"""Spatial propagation through the medium and the backward boundary re-solve.

The coupled probe/signal equations integrate to a 2x2 transfer matrix
e^{-M L} relating the fields at z = 0 and z = L.  In the backward
geometry the physical inputs are the probe at z = 0 and the (vacuum)
signal at z = L, so the raw matrix is re-solved into boundary form.
The same machinery yields the spatial noise kernels P_jk, Q_jk and the
single-mode (omega = 0) transmittance and conversion efficiency; an
independent semiclassical boundary-value solver cross-checks the latter.

There is one 2x2 exponential: ``expm2`` takes one matrix or a stack
(..., 2, 2), and one matrix is evaluated in Python scalars with the same
arithmetic as a stack.  ``noise_kernel_block`` uses the same closed form
to give the kernels on a whole block of frequencies and z nodes at once;
``noise_kernels`` is its one-frequency view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IllPosedBoundary, ShootingFailure
from .params import LENGTH, SystemParams, validate
from .spectral import NOISE_INDICES, SpectralCoefficients, SpectralStack, solve_susceptibilities

#: |D'| below this is treated as a backward-geometry resonance.
BOUNDARY_TOL = 1e-12

_EYE = np.eye(2)


def coupling_matrix(coeffs: SpectralCoefficients) -> np.ndarray:
    """The 2x2 propagation generator M = [[Lambda_p, kappa_p], [kappa_s, Lambda_s]]."""
    return np.array(
        [[coeffs.lambda_p, coeffs.kappa_p], [coeffs.kappa_s, coeffs.lambda_s]],
        dtype=complex,
    )


def _mu_q(m: np.ndarray) -> tuple:
    """mu = tr(M)/2 and q = (d/2)^2 = (tr^2 - 4 det)/4 of one 2x2 matrix or a stack.

    The complex products are formed from real and imaginary parts: numpy
    may fuse the multiply-adds inside its complex array multiply, while
    separate real operations round one by one everywhere.  So one matrix
    (done in Python scalars, which are cheap) and a stack holding it give
    bit-identical results.
    """
    if m.ndim == 2:
        (a, b), (c, d) = m.tolist()
    else:
        a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    tr_re, tr_im = a.real + d.real, a.imag + d.imag
    det_re = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
    det_im = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
    q_re = (tr_re * tr_re - tr_im * tr_im - 4 * det_re) / 4
    q_im = (tr_re * tr_im + tr_im * tr_re - 4 * det_im) / 4
    return (tr_re + 1j * tr_im) / 2, q_re + 1j * q_im


def _series(q, offset: int):
    """Taylor sum in q of cosh(sqrt(q)) (offset 0) or sinh(sqrt(q))/sqrt(q) (offset 1), |q| < 0.25.

    Term k carries 1/(2k + offset)! and is formed in real arithmetic.
    It is at most 0.25^k/(2k)!, and from k = 11 on it is below half an
    ulp of the partial sum (real part at least cos(1/2), imaginary part
    at least |Im q|/7), so ten terms give the same sum as any longer
    series.
    """
    q_re, q_im = q.real, q.imag
    term_re, term_im, acc_re, acc_im = 1.0, 0.0, 1.0, 0.0
    for k in range(1, 11):
        scale = 1.0 / ((2 * k - 1 + offset) * (2 * k + offset))
        re = term_re * q_re
        re -= term_im * q_im
        re *= scale
        im = term_re * q_im
        im += term_im * q_re
        im *= scale
        term_re, term_im = re, im
        acc_re += re
        acc_im += im
    return acc_re + 1j * acc_im


def _hyperbolic(q) -> tuple:
    w = np.sqrt(q)
    return np.cosh(w), np.divide(np.sinh(w), w)


def _cosh_sinch(q) -> tuple:
    """cosh(sqrt(q)) and sinh(sqrt(q))/sqrt(q) as even functions of sqrt(q).

    Both are entire functions of q itself, so a series in q is used for
    small |q| (uniformly accurate through the degenerate-eigenvalue case,
    where q -> 0) and the hyperbolic forms otherwise.  ``q`` is a complex
    scalar (one matrix, branched without masks) or an array.
    """
    if np.ndim(q) == 0:
        return (_series(q, 0), _series(q, 1)) if abs(q) < 0.25 else _hyperbolic(q)
    small = np.abs(q) < 0.25
    c = np.empty_like(q)
    s = np.empty_like(q)
    if small.any():
        q_small = q[small]
        c[small] = _series(q_small, 0)
        s[small] = _series(q_small, 1)
    if not small.all():
        large = ~small
        c[large], s[large] = _hyperbolic(q[large])
    return c, s


def _stacked(x) -> np.ndarray:
    """A scalar or an array of scalars, broadcastable against (..., 2, 2)."""
    return np.asarray(x)[..., None, None]


def expm2(m: np.ndarray) -> np.ndarray:
    """e^{-M} for a 2x2 complex matrix or a stack (..., 2, 2), exact through degenerate eigenvalues.

    Uses the spectral closed form e^{-M} = e^{-mu} [cosh(d/2) I
    - sinch(d/2) (M - mu I)] with mu = tr(M)/2 and d^2 = tr^2 - 4 det,
    evaluated through even functions of d so that the nilpotent /
    repeated-eigenvalue limit (d -> 0) is smooth and exact (reducing to
    I - M + mu-corrections without any branch switch).  Overflow is not
    reported here: an overflowing e^{-M} comes back non-finite, and the
    callers raise IllPosedBoundary for it.
    """
    m = np.asarray(m, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        mu, quarter_d2 = _mu_q(m)  # quarter_d2 = (d/2)^2, an even invariant
        c, s = _cosh_sinch(quarter_d2)
        traceless = m - np.multiply.outer(mu, _EYE)
        return _stacked(np.exp(-mu)) * (_stacked(c) * _EYE - _stacked(s) * traceless)


def boundary_resolve(raw: np.ndarray, det_raw: complex | None = None) -> np.ndarray:
    """Re-solve e^{-ML} = (A',B';C',D') into the backward boundary form.

    Returns [[A, B], [C, D]] = [[A'-B'C'/D', B'/D'], [-C'/D', 1/D']],
    mapping (probe in at 0, signal in at L) to (probe out at L, signal
    out at 0).  The A entry equals det(raw)/D'; when the caller knows
    det(raw) analytically (det e^{-ML} = e^{-tr(M) L}) it can be passed
    in to avoid the cancellation in A' - B'C'/D' at large optical depth.
    """
    raw = np.asarray(raw, dtype=complex)
    d_raw = raw[1, 1]
    if abs(d_raw) < BOUNDARY_TOL:
        raise IllPosedBoundary(f"|D'| = {abs(d_raw):.3e} below {BOUNDARY_TOL}")
    if det_raw is None:
        det_raw = raw[0, 0] * raw[1, 1] - raw[0, 1] * raw[1, 0]
    return np.array(
        [
            [det_raw / d_raw, raw[0, 1] / d_raw],
            [-raw[1, 0] / d_raw, 1.0 / d_raw],
        ],
        dtype=complex,
    )


def reassemble_raw(resolved: np.ndarray) -> np.ndarray:
    """Invert the boundary re-solve, recovering (A',B';C',D') from (A,B;C,D)."""
    resolved = np.asarray(resolved, dtype=complex)
    a, b, c, d = resolved[0, 0], resolved[0, 1], resolved[1, 0], resolved[1, 1]
    d_raw = 1.0 / d
    return np.array([[a - b * c / d, b / d], [-c / d, d_raw]], dtype=complex)


@dataclass(frozen=True)
class PropagationMatrix:
    """Raw transfer matrix e^{-ML} and its boundary-resolved counterpart."""

    raw: np.ndarray
    resolved: np.ndarray
    omega: float


def propagation_matrix(params: SystemParams, omega: float = 0.0) -> PropagationMatrix:
    """Full pipeline: spectral solve -> e^{-ML} -> backward boundary form.

    Raises IllPosedBoundary when the raw or the resolved matrix is not
    finite: at large optical depth the unscaled e^{-ML} overflows.
    """
    coeffs = solve_susceptibilities(params, omega)
    m = coupling_matrix(coeffs)
    raw = expm2(m * LENGTH)
    if not np.isfinite(raw).all():
        raise IllPosedBoundary("e^{-ML} overflowed to a non-finite matrix")
    det_raw = np.exp(-(coeffs.lambda_p + coeffs.lambda_s) * LENGTH)
    resolved = boundary_resolve(raw, det_raw=det_raw)
    if not np.isfinite(resolved).all():
        raise IllPosedBoundary("the boundary re-solve of e^{-ML} is not finite")
    return PropagationMatrix(raw=raw, resolved=resolved, omega=omega)


@dataclass(frozen=True)
class NoiseKernels:
    """Spatial noise kernels P_jk(z), Q_jk(z) at one frequency.

    ``p`` and ``q`` have shape (3, len(z_grid)) with rows ordered like
    NOISE_INDICES = (21, 31, 41).
    """

    z_grid: np.ndarray
    p: np.ndarray
    q: np.ndarray
    omega: float

    def p_of(self, jk: int) -> np.ndarray:
        return self.p[NOISE_INDICES.index(jk)]

    def q_of(self, jk: int) -> np.ndarray:
        return self.q[NOISE_INDICES.index(jk)]


def default_z_grid(n: int = 257) -> np.ndarray:
    """Uniform z grid on [0, L]."""
    return np.linspace(0.0, LENGTH, n)


def _check_raw(raw: np.ndarray, omega: np.ndarray) -> None:
    """IllPosedBoundary unless every e^{-ML} in the stack is finite with |D'| >= BOUNDARY_TOL."""
    finite = np.isfinite(raw).all(axis=(-2, -1))
    if not finite.all():
        first = np.flatnonzero(~finite)[0]
        raise IllPosedBoundary(f"e^{{-ML}} overflowed to a non-finite matrix at omega={omega[first]}")
    d_abs = np.abs(raw[:, 1, 1])
    resonant = d_abs < BOUNDARY_TOL
    if resonant.any():
        first = np.flatnonzero(resonant)[0]
        raise IllPosedBoundary(
            f"|D'| = {d_abs[first]:.3e} below {BOUNDARY_TOL} at omega={omega[first]}"
        )


def noise_kernel_block(
    stack: SpectralStack, raw: np.ndarray, z_grid: np.ndarray, row: int | None = None
) -> np.ndarray:
    """Noise kernels on a block of n frequencies and a z grid.

    [P_jk; Q_jk](z) = b e^{M (z - L)} [zeta_p; zeta_s] with the boundary
    mixing b = [[1, -B'/D'], [0, -1/D']] of each frequency's raw matrix
    e^{-ML} (shape (n, 2, 2)).  With t = L - z and the closed form of
    expm2, e^{-Mt} = e^{-mu t} [c(q t^2) I - t s(q t^2) (M - mu I)], so
    the kernels are e^{-mu t} (c u - t s w) with u = b zeta and
    w = b (M - mu I) zeta, and no 2x2 product is formed per (omega, z)
    pair.  Returns shape (n, nz, 2, 3), rows (P, Q) and columns ordered
    like NOISE_INDICES; ``row`` = 0 or 1 returns only P or only Q,
    shape (n, nz, 3).
    """
    z_grid = np.asarray(z_grid, dtype=float)
    raw = np.asarray(raw, dtype=complex)
    _check_raw(raw, stack.omega)
    d_raw = raw[:, 1, 1]
    boundary = np.zeros_like(raw)
    boundary[:, 0, 0] = 1.0
    boundary[:, 0, 1] = -raw[:, 0, 1] / d_raw
    boundary[:, 1, 1] = -1.0 / d_raw
    if row is not None:
        boundary = boundary[:, row : row + 1]
    t = LENGTH - z_grid
    with np.errstate(over="ignore", invalid="ignore"):
        mu, quarter_d2 = _mu_q(stack.generator)
        c, s = _cosh_sinch(np.multiply.outer(quarter_d2, t * t))
        decay = np.exp(-np.multiply.outer(mu, t))
        c *= decay  # now e^{-mu t} c
        s *= decay
        s *= t  # now e^{-mu t} t s
        traceless = stack.generator - np.multiply.outer(mu, _EYE)
        u = (boundary @ stack.zeta)[:, None]
        w = (boundary @ traceless @ stack.zeta)[:, None]
        kernels = _stacked(c) * u
        kernels -= _stacked(s) * w
    return kernels if row is None else kernels[:, :, 0]


def noise_kernels(
    coeffs: SpectralCoefficients,
    raw: np.ndarray,
    z_grid: np.ndarray | None = None,
) -> NoiseKernels:
    """Evaluate the boundary-consistent noise kernels on a z grid.

    [P_jk; Q_jk](z) = [[1, -B'/D'], [0, -1/D']] e^{M (z - L)} [zeta_p; zeta_s].
    The one-frequency view of noise_kernel_block.
    """
    if z_grid is None:
        z_grid = default_z_grid()
    stack = SpectralStack(
        generator=coupling_matrix(coeffs)[None],
        zeta=np.stack([coeffs.zeta_p_vector, coeffs.zeta_s_vector])[None],
        omega=np.array([coeffs.omega]),
    )
    kernels = noise_kernel_block(stack, np.asarray(raw, dtype=complex)[None], z_grid)[0]
    return NoiseKernels(
        z_grid=np.asarray(z_grid, dtype=float),
        p=kernels[:, 0, :].T,
        q=kernels[:, 1, :].T,
        omega=coeffs.omega,
    )


def resolved_coefficients(params: SystemParams, omega: float = 0.0) -> tuple[complex, complex, complex, complex]:
    """(A, B, C, D) of the backward-resolved transfer matrix at omega."""
    resolved = propagation_matrix(params, omega).resolved
    return resolved[0, 0], resolved[0, 1], resolved[1, 0], resolved[1, 1]


def transmittance(params: SystemParams) -> float:
    """Single-mode probe transmittance |A_0|^2 (equals (4/(4+alpha))^2 symmetric)."""
    a0, _, _, _ = resolved_coefficients(validate(params), 0.0)
    return float(abs(a0) ** 2)


def conversion_efficiency(params: SystemParams) -> float:
    """Single-mode conversion efficiency |C_0|^2 (equals (alpha/(4+alpha))^2 symmetric)."""
    _, _, c0, _ = resolved_coefficients(validate(params), 0.0)
    return float(abs(c0) ** 2)


def _fundamental_matrix_ode(m: np.ndarray, rtol: float, atol: float) -> np.ndarray:
    """Integrate dPhi/dz = -M Phi from z=0 to z=L with Phi(0) = I."""

    def rhs(_z: float, y: np.ndarray) -> np.ndarray:
        return (-m @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, LENGTH),
        np.eye(2, dtype=complex).ravel(),
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise ShootingFailure(f"field integration failed: {sol.message}")
    return sol.y[:, -1].reshape(2, 2)


def semiclassical_solve(
    params: SystemParams, rtol: float = 1e-12, atol: float = 1e-14
) -> tuple[float, float]:
    """Classical two-point boundary-value solution at omega = 0.

    Drops all noise terms, integrates the coupled field equations
    directly (no matrix exponential) for the fundamental matrix Phi(L),
    then performs the linear shooting step for the unknown backward
    signal amplitude u at z = 0: probe(0) = 1 and signal(L) =
    Phi_21 + Phi_22 u = 0.  Returns (|probe(L)|^2, |signal(0)|^2).
    """
    coeffs = solve_susceptibilities(validate(params), 0.0)
    m = coupling_matrix(coeffs)
    phi = _fundamental_matrix_ode(m, rtol, atol)
    if abs(phi[1, 1]) < BOUNDARY_TOL:
        raise ShootingFailure(f"shooting solve singular: |Phi_22| = {abs(phi[1, 1]):.3e}")
    u = -phi[1, 0] / phi[1, 1]
    probe_out = phi[0, 0] + phi[0, 1] * u
    return float(abs(probe_out) ** 2), float(abs(u) ** 2)
