"""Spatial propagation through the medium and the backward boundary re-solve.

The coupled probe/signal equations integrate to a 2x2 transfer matrix
e^{-M L} relating the fields at z = 0 and z = L.  In the backward
geometry the physical inputs are the probe at z = 0 and the (vacuum)
signal at z = L, so the raw matrix is re-solved into boundary form.
The same machinery yields the spatial noise kernels P_jk, Q_jk and the
single-mode (omega = 0) transmittance and conversion efficiency; an
independent semiclassical boundary-value solver cross-checks the latter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IllPosedBoundary, ShootingFailure
from .params import LENGTH, SystemParams, validate
from .spectral import NOISE_INDICES, SpectralCoefficients, solve_susceptibilities

#: |D'| below this is treated as a backward-geometry resonance.
BOUNDARY_TOL = 1e-12


def coupling_matrix(coeffs: SpectralCoefficients) -> np.ndarray:
    """The 2x2 propagation generator M = [[Lambda_p, kappa_p], [kappa_s, Lambda_s]]."""
    return np.array(
        [[coeffs.lambda_p, coeffs.kappa_p], [coeffs.kappa_s, coeffs.lambda_s]],
        dtype=complex,
    )


def _cosh_sinch(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cosh(sqrt(q)) and sinh(sqrt(q))/sqrt(q) as even functions of sqrt(q).

    Both are entire functions of q itself, so a series in q is used for
    small |q| (uniformly accurate through the degenerate-eigenvalue case,
    where q -> 0) and the hyperbolic forms otherwise.
    """
    q = np.asarray(q, dtype=complex)
    small = np.abs(q) < 0.25
    c = np.empty_like(q)
    s = np.empty_like(q)
    if np.any(small):
        qs = q[small]
        term_c = np.ones_like(qs)
        term_s = np.ones_like(qs)
        acc_c = term_c.copy()
        acc_s = term_s.copy()
        for k in range(1, 16):
            term_c = term_c * qs / ((2 * k - 1) * (2 * k))
            term_s = term_s * qs / ((2 * k) * (2 * k + 1))
            acc_c += term_c
            acc_s += term_s
        c[small] = acc_c
        s[small] = acc_s
    if np.any(~small):
        w = np.sqrt(q[~small])
        c[~small] = np.cosh(w)
        s[~small] = np.sinh(w) / w
    return c, s


def expm2(m: np.ndarray) -> np.ndarray:
    """e^{-M} for a 2x2 complex matrix, exact through degenerate eigenvalues.

    Uses the spectral closed form e^{-M} = e^{-mu} [cosh(d/2) I
    - sinch(d/2) (M - mu I)] with mu = tr(M)/2 and d^2 = tr^2 - 4 det,
    evaluated through even functions of d so that the nilpotent /
    repeated-eigenvalue limit (d -> 0) is smooth and exact (reducing to
    I - M + mu-corrections without any branch switch).
    """
    m = np.asarray(m, dtype=complex)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    mu = tr / 2
    quarter_d2 = (tr * tr - 4 * det) / 4  # (d/2)^2, an even invariant
    c, s = _cosh_sinch(np.atleast_1d(quarter_d2))
    traceless = m - mu * np.eye(2)
    return np.exp(-mu) * (complex(c[0]) * np.eye(2) - complex(s[0]) * traceless)


def _expm2_batch(m: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """e^{-M t} for one 2x2 matrix and an array of scale factors t.

    Returns an array of shape (len(scales), 2, 2); used to evaluate the
    noise kernels on a whole z grid at once.
    """
    m = np.asarray(m, dtype=complex)
    t = np.asarray(scales, dtype=complex)[:, None, None]
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    mu = tr / 2
    quarter_d2 = (tr * tr - 4 * det) / 4 * np.asarray(scales, dtype=complex) ** 2
    c, s = _cosh_sinch(quarter_d2)
    traceless = m - mu * np.eye(2)
    eye = np.eye(2)[None, :, :]
    return np.exp(-mu * np.asarray(scales, dtype=complex))[:, None, None] * (
        c[:, None, None] * eye - s[:, None, None] * t * traceless[None, :, :]
    )


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


def noise_kernels(
    coeffs: SpectralCoefficients,
    raw: np.ndarray,
    z_grid: np.ndarray | None = None,
) -> NoiseKernels:
    """Evaluate the boundary-consistent noise kernels on a z grid.

    [P_jk; Q_jk](z) = [[1, -B'/D'], [0, -1/D']] e^{M (z - L)} [zeta_p; zeta_s].
    """
    if z_grid is None:
        z_grid = default_z_grid()
    z_grid = np.asarray(z_grid, dtype=float)
    raw = np.asarray(raw, dtype=complex)
    d_raw = raw[1, 1]
    if abs(d_raw) < BOUNDARY_TOL:
        raise IllPosedBoundary(f"|D'| = {abs(d_raw):.3e} below {BOUNDARY_TOL}")
    m = coupling_matrix(coeffs)
    # e^{M(z-L)} = e^{-M (L-z)}
    propagators = _expm2_batch(m, LENGTH - z_grid)
    zeta = np.stack([coeffs.zeta_p_vector, coeffs.zeta_s_vector], axis=1)  # (3, 2)
    boundary = np.array([[1.0, -raw[0, 1] / d_raw], [0.0, -1.0 / d_raw]], dtype=complex)
    # (nz, 2, 2) @ (2, 3) -> (nz, 2, 3), then boundary mixing
    mixed = np.einsum("ij,zjk->zik", boundary, propagators @ zeta.T)
    p = mixed[:, 0, :].T
    q = mixed[:, 1, :].T
    return NoiseKernels(z_grid=z_grid, p=p, q=q, omega=coeffs.omega)


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
