"""Spatial propagation through the medium and the backward boundary solution.

The coupled probe/signal equations integrate to a 2x2 transfer matrix
e^{-ML} relating the fields at z = 0 and z = L.  In the backward
geometry the inputs are the probe at z = 0 and the (vacuum) signal at
z = L, so what is needed is the resolved (scattering) matrix [[A, B],
[C, D]], the spatial noise kernels P_jk, Q_jk and the single-mode
(omega = 0) transmittance and conversion efficiency; an independent
semiclassical boundary-value solver cross-checks the latter.

e^{-ML} grows without bound with the optical depth, while the resolved
entries of a passive medium stay bounded.  So one core (``_scattering``)
maps a stack of generators straight to the resolved matrices, with cosh
and sinch scaled by e^{-w} (w = sqrt(q), Re w >= 0) so that every entry
is a ratio of bounded terms (L. Li, JOSA A 13, 1024 (1996)).  One
expression serves every q: expm1 carries the sinch through q -> 0.
M(alpha) = alpha M(1), so both sweeps take the unit-depth generator
M(1) from one stack-of-one spectral solve and scale it:
``propagation_sweep`` then needs one pass of the core for a whole
optical-depth grid, and ``semiclassical_sweep`` one field integration
(Phi_alpha(L) = Psi(alpha), dPsi/dt = -M(1) L Psi).  Both return the
rows before the first optical depth that fails plus that row's error;
``resolved_coefficients`` and ``semiclassical_solve`` are their one-row
views, and ``transmittance`` and ``conversion_efficiency`` read the
former.  ``noise_kernel_block`` takes B and D of each frequency from the
core (``noise_kernels`` is its one-frequency view).  ``expm2``, e^{-M}
itself on the same scaled cosh and sinch, is the reference route of the
tests: the package never forms e^{-ML}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IllPosedBoundary, NegativeOD, QfcError, ShootingFailure, SingularSystem
from .params import LENGTH, SystemParams, validate
from .spectral import SpectralStack, solve_susceptibility_stack

#: |1/D| (= |D'| of e^{-ML}) below this is treated as a backward-geometry resonance.
BOUNDARY_TOL = 1e-12

#: Relative and absolute tolerances of the semiclassical field integration.
ODE_RTOL = 1e-12
ODE_ATOL = 1e-14

_EYE = np.eye(2)


def coupling_matrix(stack: SpectralStack) -> np.ndarray:
    """The 2x2 propagation generator M = [[Lambda_p, kappa_p], [kappa_s, Lambda_s]] of a stack of one."""
    return stack.generator[0]


def _mu_q(m: np.ndarray) -> tuple:
    """mu = tr(M)/2 and q = (d/2)^2 = (tr^2 - 4 det)/4 of a stack (..., 2, 2).

    The complex products are formed from real and imaginary parts: numpy
    may fuse the multiply-adds inside its complex array multiply, while
    separate real operations round one by one everywhere, so a matrix
    gives the same bits in any stack that holds it.
    """
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    tr_re, tr_im = a.real + d.real, a.imag + d.imag
    det_re = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
    det_im = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
    q_re = (tr_re * tr_re - tr_im * tr_im - 4 * det_re) / 4
    q_im = (tr_re * tr_im + tr_im * tr_re - 4 * det_im) / 4
    return (tr_re + 1j * tr_im) / 2, q_re + 1j * q_im


def _cosh_sinch(q: np.ndarray) -> tuple:
    """e^{-w} cosh(w), e^{-w} sinh(w)/w and the scale w, for w = sqrt(q) on an array q.

    w is the principal root, so Re w >= 0 and e^{-2w} is bounded: the
    scaled forms (1 + e^{-2w})/2 and -expm1(-2w)/(2w) are ratios of
    bounded terms however large w grows.  expm1 keeps the sinch accurate
    as q -> 0 (the degenerate-eigenvalue case), and q = 0 gives exactly
    1, 1 and 0.
    """
    w = np.sqrt(q)
    s = np.divide(-np.expm1(-2 * w), 2 * w, out=np.ones_like(w), where=w != 0)
    return (1 + np.exp(-2 * w)) / 2, s, w


def _stacked(x) -> np.ndarray:
    """A scalar or an array of scalars, broadcastable against (..., 2, 2)."""
    return np.asarray(x)[..., None, None]


def expm2(m: np.ndarray) -> np.ndarray:
    """e^{-M} for a 2x2 complex matrix or a stack (..., 2, 2), exact through degenerate eigenvalues.

    Uses the spectral closed form e^{-M} = e^{-mu} [cosh(d/2) I
    - sinch(d/2) (M - mu I)] with mu = tr(M)/2 and d^2 = tr^2 - 4 det,
    evaluated through even functions of d so that the nilpotent /
    repeated-eigenvalue limit (d -> 0) is smooth and exact (reducing to
    I - M + mu-corrections without any branch switch).  One matrix is a
    stack of one.  An overflowing e^{-M} comes back non-finite.
    """
    m = np.asarray(m, dtype=complex)
    stack = m.reshape(-1, 2, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        mu, quarter_d2 = _mu_q(stack)  # quarter_d2 = (d/2)^2, an even invariant
        c, s, v = _cosh_sinch(quarter_d2)
        traceless = stack - np.multiply.outer(mu, _EYE)
        return (_stacked(np.exp(v - mu)) * (_stacked(c) * _EYE - _stacked(s) * traceless)).reshape(m.shape)


def _scattering(m: np.ndarray) -> np.ndarray:
    """The resolved [[A, B], [C, D]] of e^{-M} for a stack of generators (..., 2, 2).

    [[A, B], [C, D]] = [[A'-B'C'/D', B'/D'], [-C'/D', 1/D']] of (A', B';
    C', D') = e^{-M} maps (probe in at 0, signal in at L) to (probe out
    at L, signal out at 0).  By expm2's closed form with _cosh_sinch's
    scaled c, s and scale v, D' = e^{v - mu} t with t = c - s (m22 - mu)
    and det e^{-M} = e^{-2 mu}, so A = e^{-mu-v}/t, B = -s m12/t, C =
    s m21/t and D = e^{mu-v}/t: ratios of bounded terms.  Unchecked:
    _solvable holds the conditions under which the result is usable.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu, q = _mu_q(m)
        c, s, v = _cosh_sinch(q)
        t = c - s * (m[..., 1, 1] - mu)
        resolved = np.empty_like(m)
        resolved[..., 0, 0] = np.exp(-mu - v) / t
        resolved[..., 0, 1] = -s * m[..., 0, 1] / t
        resolved[..., 1, 0] = s * m[..., 1, 0] / t
        resolved[..., 1, 1] = np.exp(mu - v) / t
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


def _unit_generator(params: SystemParams, alphas: np.ndarray, omega: float) -> np.ndarray:
    """M(1) (2, 2) at ``omega``, from one stack-of-one spectral solve at unit optical depth.

    M(alpha) = alpha M(1), so ``alphas[:, None, None] * M(1)`` is the
    generator on the whole grid.  The caller's ``params`` is validated,
    though its alpha is not read.  The 3x3 response is alpha-free, so a
    SingularSystem fails the first row of the grid, and its message
    names that row.
    """
    validate(params)
    try:
        return solve_susceptibility_stack(replace(params, alpha=1.0), [omega]).generator[0]
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
    pivot: np.ndarray | None = None,
    error: type[QfcError] = IllPosedBoundary,
    non_finite: str = "the resolved matrix is not finite",
    small_pivot: str = f"|1/D| = {{:.3e}} below {BOUNDARY_TOL}",
) -> list:
    """The checks, for _first_failure, that a stack (n, 2, 2) is a usable boundary solution.

    Each matrix must be finite and its ``pivot`` (by default |1/D| of a
    resolved stack; |Phi_22| of the semiclassical Phi(L)) must reach
    BOUNDARY_TOL in magnitude; ``small_pivot`` formats that magnitude.
    """
    if pivot is None:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            pivot = 1.0 / np.abs(matrices[:, 1, 1])
    return [
        (~np.isfinite(matrices).all(axis=(1, 2)), lambda k: error(non_finite)),
        (pivot < BOUNDARY_TOL, lambda k: error(small_pivot.format(pivot[k]))),
    ]


@dataclass(frozen=True)
class PropagationSweep:
    """The resolved [[A, B], [C, D]] on an optical-depth grid at one omega.

    The rows stop before the first optical depth that fails:
    ``resolved`` (n, 2, 2) belongs to ``alphas``, the first n values of
    the requested grid, and ``failure`` is the error of the next value
    (its message names that alpha), or None when every row solved.
    """

    alphas: np.ndarray
    resolved: np.ndarray
    failure: QfcError | None


def propagation_sweep(params: SystemParams, alphas: np.ndarray, omega: float = 0.0) -> PropagationSweep:
    """Spectral solve -> resolved (scattering) matrix on a 1-D grid of optical depths.

    M(alpha) = alpha M(1), so one 3x3 solve (_unit_generator) and one
    pass of the scattering core serve the whole grid; ``params.alpha``
    is only validated.  Each row is bit for bit what the one-row grid
    gives.  A row fails with IllPosedBoundary when its resolved matrix
    fails _solvable (a backward resonance).  A singular 3x3 response
    raises SingularSystem naming the first optical depth.
    """
    alphas = _optical_depths(alphas)
    resolved = _scattering(alphas[:, None, None] * _unit_generator(params, alphas, omega) * LENGTH)
    n, failure = _first_failure(alphas, _solvable(resolved))
    return PropagationSweep(alphas=alphas[:n], resolved=resolved[:n], failure=failure)


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


def noise_kernel_block(
    stack: SpectralStack, z_grid: np.ndarray, row: int | None = None, resolved: np.ndarray | None = None
) -> np.ndarray:
    """Noise kernels on a block of n frequencies and a z grid.

    [P_jk; Q_jk](z) = b e^{M (z - L)} [zeta_p; zeta_s] with the boundary
    mixing b = [[1, -B], [0, -D]] of each frequency's resolved matrix
    (shape (n, 2, 2); by default the scattering core's at the stack's
    generators; only B and D are read).  With t = L - z, e^{-Mt} =
    e^{v - mu t} [c I - t s (M - mu I)] with c, s, v = _cosh_sinch(q t^2),
    so the kernels are e^{v - mu t} (c u - t s w) with u = b zeta and
    w = b (M - mu I) zeta: no 2x2 product per (omega, z) pair.  Returns
    shape (n, nz, 2, 3), rows (P, Q) and columns ordered like
    NOISE_INDICES; ``row`` = 0 or 1 returns only P or only Q, shape
    (n, nz, 3).  IllPosedBoundary names the first frequency whose
    resolved matrix fails _solvable.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    if resolved is None:
        resolved = _scattering(stack.generator * LENGTH)
    _, failure = _first_failure(stack.omega, _solvable(resolved), "omega")
    if failure is not None:
        raise failure
    boundary = np.zeros_like(resolved)
    boundary[:, 0, 0] = 1.0
    boundary[:, :, 1] = -resolved[:, :, 1]
    if row is not None:
        boundary = boundary[:, row : row + 1]
    t = LENGTH - z_grid
    with np.errstate(over="ignore", invalid="ignore"):
        mu, quarter_d2 = _mu_q(stack.generator)
        c, s, v = _cosh_sinch(np.multiply.outer(quarter_d2, t * t))
        decay = np.exp(v - np.multiply.outer(mu, t))
        c *= decay  # now e^{v - mu t} c
        s *= decay
        s *= t  # now e^{v - mu t} t s
        traceless = stack.generator - np.multiply.outer(mu, _EYE)
        u = (boundary @ stack.zeta)[:, None]
        w = (boundary @ traceless @ stack.zeta)[:, None]
        kernels = _stacked(c) * u
        kernels -= _stacked(s) * w
    return kernels if row is None else kernels[:, :, 0]


def noise_kernels(
    stack: SpectralStack,
    raw: np.ndarray,
    z_grid: np.ndarray | None = None,
) -> NoiseKernels:
    """Evaluate the boundary-consistent noise kernels on a z grid.

    [P_jk; Q_jk](z) = [[1, -B'/D'], [0, -1/D']] e^{M (z - L)} [zeta_p; zeta_s]
    with (A', B'; C', D') = ``raw``, the caller's e^{-ML}, on ``z_grid``
    (by default 257 uniform nodes on [0, L]), for a stack of one.  The
    one-frequency view of noise_kernel_block.
    """
    if z_grid is None:
        z_grid = np.linspace(0.0, LENGTH, 257)
    with np.errstate(divide="ignore", invalid="ignore"):  # B and D, all the block reads
        resolved = np.array([[[0.0, raw[0][1]], [0.0, 1.0]]]) / complex(raw[1][1])
    kernels = noise_kernel_block(stack, z_grid, resolved=resolved)[0]
    return NoiseKernels(
        z_grid=np.asarray(z_grid, dtype=float),
        p=kernels[:, 0, :].T,
        q=kernels[:, 1, :].T,
        omega=float(stack.omega[0]),
    )


def resolved_coefficients(params: SystemParams, omega: float = 0.0) -> tuple[complex, complex, complex, complex]:
    """(A, B, C, D) of the backward-resolved transfer matrix at the optical depth of ``params``.

    The one-row view of propagation_sweep; raises the row's error, e.g.
    IllPosedBoundary at a backward resonance.  C at omega = 0 is the
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


def _fundamental_matrices(m: np.ndarray, alphas: np.ndarray) -> np.ndarray:
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

        with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows fail the caller's check
            sol = solve_ivp(
                rhs,
                (0.0, times[-1]),
                _EYE.astype(complex).ravel(),
                method="DOP853",
                t_eval=times,
                rtol=ODE_RTOL,
                atol=ODE_ATOL,
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


def semiclassical_sweep(params: SystemParams, alphas: np.ndarray) -> SemiclassicalSweep:
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
    phi = _fundamental_matrices(_unit_generator(params, alphas, 0.0) * LENGTH, alphas)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = -phi[:, 1, 0] / phi[:, 1, 1]
        transmittance = np.abs(phi[:, 0, 0] + phi[:, 0, 1] * u) ** 2  # an overflow fails the caller's gate
        conversion = np.abs(u) ** 2
    n, failure = _first_failure(
        alphas,
        _solvable(
            phi,
            np.abs(phi[:, 1, 1]),
            ShootingFailure,
            "the field integration gave no finite Phi(L)",
            "shooting solve singular: |Phi_22| = {:.3e}",
        ),
    )
    return SemiclassicalSweep(
        alphas=alphas[:n],
        transmittance=transmittance[:n],
        conversion_efficiency=conversion[:n],
        failure=failure,
    )


def semiclassical_solve(params: SystemParams) -> tuple[float, float]:
    """(|probe(L)|^2, |signal(0)|^2) at the optical depth of ``params``.

    The one-row view of semiclassical_sweep; raises the row's error.
    """
    sweep = semiclassical_sweep(params, [params.alpha])
    if sweep.failure is not None:
        raise sweep.failure
    return float(sweep.transmittance[0]), float(sweep.conversion_efficiency[0])
