"""Spatial propagation through the medium and the backward boundary re-solve.

The coupled probe/signal equations integrate to a 2x2 transfer matrix
e^{-M L} relating the fields at z = 0 and z = L.  In the backward
geometry the physical inputs are the probe at z = 0 and the (vacuum)
signal at z = L, so the raw matrix is re-solved into boundary form.
The same machinery yields the spatial noise kernels P_jk, Q_jk and the
single-mode (omega = 0) transmittance and conversion efficiency; an
independent semiclassical boundary-value solver cross-checks the latter.

Every optical-depth computation goes through one sweep core.  M(alpha)
= alpha M(1), and the 3x3 response behind M(1) does not depend on
alpha, so ``propagation_sweep`` needs one 3x3 solve, one stacked
``expm2`` and one stacked boundary re-solve for a whole grid, and
``semiclassical_sweep`` one field integration (Phi_alpha(L) = Psi(alpha)
with dPsi/dt = -M(1) L Psi).  Both return the rows before the first
optical depth that fails plus that row's error.  ``resolved_coefficients``
and ``semiclassical_solve`` are their one-row views; ``transmittance``
and ``conversion_efficiency`` read the former.  One set of checks
decides whether a stack of e^{-ML} (or of Phi(L)) is boundary-solvable,
for the sweeps and the noise kernels alike.

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

from .errors import IllPosedBoundary, NegativeOD, QfcError, ShootingFailure, SingularSystem
from .params import LENGTH, SystemParams
from .spectral import SpectralCoefficients, SpectralStack, generator_sweep

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
    shape = m.shape
    if m.size == 4:
        m = m.reshape(2, 2)  # a stack of one: the Python-scalar route rounds alike and costs less
    with np.errstate(over="ignore", invalid="ignore"):
        mu, quarter_d2 = _mu_q(m)  # quarter_d2 = (d/2)^2, an even invariant
        c, s = _cosh_sinch(quarter_d2)
        traceless = m - np.multiply.outer(mu, _EYE)
        return (_stacked(np.exp(-mu)) * (_stacked(c) * _EYE - _stacked(s) * traceless)).reshape(shape)


def _resolve(raw: np.ndarray, det_raw) -> np.ndarray:
    """Re-solve e^{-ML} = (A',B';C',D') (one matrix or a stack (..., 2, 2)) into the backward boundary form.

    [[A, B], [C, D]] = [[A'-B'C'/D', B'/D'], [-C'/D', 1/D']] maps (probe
    in at 0, signal in at L) to (probe out at L, signal out at 0).  A is
    formed as det(raw)/D', so a caller that knows det e^{-ML} = e^{-tr(M)
    L} avoids the cancellation in A' - B'C'/D' at large optical depth.
    Unchecked: _solvable holds the conditions under which it is defined.
    """
    d_raw = raw[..., 1, 1]
    resolved = np.empty_like(raw)
    resolved[..., 0, 0] = det_raw / d_raw
    resolved[..., 0, 1] = raw[..., 0, 1] / d_raw
    resolved[..., 1, 0] = -raw[..., 1, 0] / d_raw
    resolved[..., 1, 1] = 1.0 / d_raw
    return resolved


def _optical_depths(alphas) -> np.ndarray:
    """A 1-D optical-depth grid as floats; NegativeOD for a negative entry."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise ValueError(f"optical depths must form a 1-D grid, got shape {alphas.shape}")
    if (alphas < 0).any():
        raise NegativeOD(f"optical depth must be >= 0, got {alphas[alphas < 0][0]}")
    return alphas


def _at(value: float, exc: QfcError, name: str = "alpha") -> QfcError:
    """The same kind of error, its message prefixed by the grid value (``name``) of the failing row."""
    return type(exc)(f"at {name}={float(value)!r}: {exc}")


def _grid_generator(
    params: SystemParams, alphas: np.ndarray, omega: float, depths: np.ndarray | None = None
) -> np.ndarray:
    """generator_sweep at ``depths`` (default: the grid ``alphas`` itself).

    The 3x3 response is alpha-free, so a SingularSystem fails the first
    row of the grid, and its message names that row.
    """
    try:
        return generator_sweep(params, alphas if depths is None else depths, omega)
    except SingularSystem as exc:
        raise (_at(alphas[0], exc) if alphas.size else exc) from exc


def _first_failure(grid: np.ndarray, checks, name: str = "alpha") -> tuple[int, QfcError | None]:
    """The number of rows before the first failing one, and that row's error.

    ``checks`` pairs a boolean mask over the grid with a function of the
    row index that builds the error, in the order the checks apply
    within one row.  The error names the failing grid value as
    ``name``=value, and is None when no row fails.
    """
    bad = np.zeros(grid.shape, dtype=bool)
    for mask, _ in checks:
        bad |= mask
    if not bad.any():
        return grid.size, None
    k = int(np.flatnonzero(bad)[0])
    error = next(make(k) for mask, make in checks if mask[k])
    return k, _at(grid[k], error, name)


def _solvable(
    matrices: np.ndarray,
    error: type[QfcError] = IllPosedBoundary,
    non_finite: str = "e^{-ML} overflowed to a non-finite matrix",
    small_pivot: str = f"|D'| = {{:.3e}} below {BOUNDARY_TOL}",
) -> list:
    """The checks, for _first_failure, that a stack (n, 2, 2) can be boundary-solved.

    Each matrix must be finite and its [1, 1] entry (D' of e^{-ML}, or
    Phi_22 of the semiclassical Phi(L)) must reach BOUNDARY_TOL in
    magnitude; ``small_pivot`` formats that magnitude.
    """
    pivot = np.abs(matrices[:, 1, 1])
    return [
        (~np.isfinite(matrices).all(axis=(1, 2)), lambda k: error(non_finite)),
        (pivot < BOUNDARY_TOL, lambda k: error(small_pivot.format(pivot[k]))),
    ]


@dataclass(frozen=True)
class PropagationSweep:
    """e^{-ML} and its boundary form on an optical-depth grid at one omega.

    The rows stop before the first optical depth that fails: ``raw`` and
    ``resolved`` (n, 2, 2) belong to ``alphas``, the first n values of
    the requested grid, and ``failure`` is the error of the next value
    (its message names that alpha), or None when every row solved.
    """

    alphas: np.ndarray
    raw: np.ndarray
    resolved: np.ndarray
    failure: QfcError | None


def propagation_sweep(params: SystemParams, alphas: np.ndarray, omega: float = 0.0) -> PropagationSweep:
    """Spectral solve -> e^{-ML} -> backward boundary form on a 1-D grid of optical depths.

    M(alpha) = alpha M(1), so one 3x3 solve (generator_sweep), one
    stacked expm2 and one stacked boundary re-solve with det e^{-ML} =
    e^{-tr(M) L} serve the whole grid; ``params.alpha`` is only
    validated.  Each row is bit for bit what the one-row grid gives.  A
    row fails with IllPosedBoundary when e^{-ML} is not finite (at large
    optical depth the unscaled exponential overflows), when |D'| <
    BOUNDARY_TOL, or when the resolved matrix is not finite.  A singular
    3x3 response raises SingularSystem naming the first optical depth.
    """
    alphas = _optical_depths(alphas)
    generator = _grid_generator(params, alphas, omega)
    raw = expm2(generator * LENGTH)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det_raw = np.exp(-(generator[:, 0, 0] + generator[:, 1, 1]) * LENGTH)
        resolved = _resolve(raw, det_raw)
    n, failure = _first_failure(
        alphas,
        _solvable(raw)
        + [
            (
                ~np.isfinite(resolved).all(axis=(1, 2)),
                lambda k: IllPosedBoundary("the boundary re-solve of e^{-ML} is not finite"),
            )
        ],
    )
    return PropagationSweep(alphas=alphas[:n], raw=raw[:n], resolved=resolved[:n], failure=failure)


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


def default_z_grid(n: int = 257) -> np.ndarray:
    """Uniform z grid on [0, L]."""
    return np.linspace(0.0, LENGTH, n)


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
    _, failure = _first_failure(stack.omega, _solvable(raw), "omega")
    if failure is not None:
        raise failure
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
    """(A, B, C, D) of the backward-resolved transfer matrix at the optical depth of ``params``.

    The one-row view of propagation_sweep; raises the row's error, e.g.
    IllPosedBoundary when e^{-ML} overflows.  C at omega = 0 is the
    channel amplitude C_0 that carries the input state to the signal.
    """
    sweep = propagation_sweep(params, [params.alpha], omega)
    if sweep.failure is not None:
        raise sweep.failure
    (a, b), (c, d) = sweep.resolved[0]
    return a, b, c, d


def transmittance(params: SystemParams) -> float:
    """Single-mode probe transmittance |A_0|^2 (equals (4/(4+alpha))^2 symmetric)."""
    return float(abs(resolved_coefficients(params)[0]) ** 2)


def conversion_efficiency(params: SystemParams) -> float:
    """Single-mode conversion efficiency |C_0|^2 (equals (alpha/(4+alpha))^2 symmetric)."""
    return float(abs(resolved_coefficients(params)[2]) ** 2)


def _fundamental_matrices(m: np.ndarray, alphas: np.ndarray, rtol: float, atol: float) -> np.ndarray:
    """Psi(alpha) on a 1-D grid of optical depths (>= 0), shape (n, 2, 2).

    One DOP853 integration of dPsi/dt = -M Psi, Psi(0) = I, over t in
    [0, max alpha] with t_eval at the distinct grid values, where ``m``
    is the generator at unit optical depth times L.  Rows the
    integration does not reach are NaN.  A grid of zeros needs no solve:
    Psi(0) = I.
    """
    times, row_of = np.unique(alphas, return_inverse=True)
    psi = np.full((times.size, 4), np.nan, dtype=complex)
    if times.size and times[-1] > 0:
        neg_m = -m

        def rhs(_t: float, y: np.ndarray) -> np.ndarray:
            return (neg_m @ y.reshape(2, 2)).ravel()

        sol = solve_ivp(
            rhs,
            (0.0, times[-1]),
            _EYE.astype(complex).ravel(),
            method="DOP853",
            t_eval=times,
            rtol=rtol,
            atol=atol,
        )
        psi[: sol.t.size] = sol.y.T
    else:
        psi[:] = _EYE.ravel()
    return psi[row_of].reshape(-1, 2, 2)


@dataclass(frozen=True)
class SemiclassicalSweep:
    """Classical (|probe(L)|^2, |signal(0)|^2) on an optical-depth grid at omega = 0.

    The rows stop before the first optical depth that fails, like
    PropagationSweep: ``transmittance`` and ``conversion_efficiency``
    (n,) belong to ``alphas``, and ``failure`` is the error of the next
    grid value, or None.
    """

    alphas: np.ndarray
    transmittance: np.ndarray
    conversion_efficiency: np.ndarray
    failure: QfcError | None


def semiclassical_sweep(
    params: SystemParams, alphas: np.ndarray, rtol: float = 1e-12, atol: float = 1e-14
) -> SemiclassicalSweep:
    """Classical two-point boundary-value solution at omega = 0 on a 1-D optical-depth grid.

    Drops all noise terms and integrates the coupled field equations
    directly (no matrix exponential) for the fundamental matrix Phi(L).
    M(alpha) = alpha M(1), so Phi_alpha(L) = Psi(alpha) with dPsi/dt =
    -M(1) L Psi: one integration serves the grid.  The linear shooting
    step then solves for the unknown backward signal amplitude u at
    z = 0: probe(0) = 1 and signal(L) = Phi_21 + Phi_22 u = 0.  A row
    fails with ShootingFailure when Phi is not finite or |Phi_22| <
    BOUNDARY_TOL.  ``params.alpha`` is only validated.
    """
    alphas = _optical_depths(alphas)
    m_unit = _grid_generator(params, alphas, 0.0, depths=np.ones(1))[0]
    phi = _fundamental_matrices(m_unit * LENGTH, alphas, rtol, atol)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = -phi[:, 1, 0] / phi[:, 1, 1]
        probe_out = phi[:, 0, 0] + phi[:, 0, 1] * u
    n, failure = _first_failure(
        alphas,
        _solvable(
            phi,
            ShootingFailure,
            "the field integration gave no finite Phi(L)",
            "shooting solve singular: |Phi_22| = {:.3e}",
        ),
    )
    return SemiclassicalSweep(
        alphas=alphas[:n],
        transmittance=np.abs(probe_out[:n]) ** 2,
        conversion_efficiency=np.abs(u[:n]) ** 2,
        failure=failure,
    )


def semiclassical_solve(
    params: SystemParams, rtol: float = 1e-12, atol: float = 1e-14
) -> tuple[float, float]:
    """(|probe(L)|^2, |signal(0)|^2) at the optical depth of ``params``.

    The one-row view of semiclassical_sweep; raises the row's error.
    """
    sweep = semiclassical_sweep(params, [params.alpha], rtol, atol)
    if sweep.failure is not None:
        raise sweep.failure
    return float(sweep.transmittance[0]), float(sweep.conversion_efficiency[0])
