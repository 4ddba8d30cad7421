"""Spatial propagation through the medium and the backward boundary solution.

The coupled probe/signal equations integrate to a 2x2 transfer matrix
e^{-ML} relating the fields at z = 0 and z = L.  In the backward
geometry the inputs are the probe at z = 0 and the (vacuum) signal at
z = L, so what is needed is the resolved (scattering) matrix [[A, B],
[C, D]], the spatial noise kernels P_jk, Q_jk and the single-mode
(omega = 0) transmittance and conversion efficiency; an independent
semiclassical boundary-value solver cross-checks the latter.

e^{-ML} grows without bound with the optical depth, while the resolved
entries of a passive medium stay bounded.  So one scaled propagator
(``_propagator``: cosh and sinch scaled by e^{-w}, w = sqrt(q), Re w >=
0; expm1 carries the sinch through q -> 0) feeds everything, as ratios
of bounded terms (L. Li, JOSA A 13, 1024 (1996)): the scattering core
``_scattering``, which maps a stack of generators to the resolved
matrices, and the noise kernels, whose rows are two bounded exponentials
each (``_kernel_rows``).  Those rows feed two routes.
``noise_kernel_gram``, which the noise integrals read, integrates their
products over z in closed form: int_0^L K_a K_b* dz from three divided
differences of exp per frequency (``_exp_divided_difference``, accurate
through the degenerate w = 0).  ``noise_kernel_block`` evaluates them on
a z grid: the tests' quadrature oracle for the Gram, and the engine of
``noise_kernels``, its one-frequency view.
M(alpha) = alpha M(1), so ``propagation_sweep`` needs one unit-depth
spectral solve and one pass of the core for a whole optical-depth grid.
``semiclassical_sweep`` solves the same boundary-value problem by
invariant imbedding in the optical depth (Bellman & Wing, *An
Introduction to Invariant Imbedding*, 1975): one slab per distinct gap
of the sorted grid, a classical RK4 step of the imbedding (Riccati)
equations on a thin seed widened by star-squarings, and cumulative
Redheffer star products along the grid.  It forms no e^{-ML}, no
eigenvalue and no cosh or sinch, so it stays independent of the
quantum route.  Both sweeps return the rows before the first optical
depth that fails plus that row's error; a single point is a one-row
grid.  ``expm2``, e^{-M} itself in the core's form, is the reference
route of the tests: the package never forms e^{-ML}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IllPosedBoundary, NegativeOD, QfcError, SingularSystem
from .params import LENGTH, SystemParams, validate
from .spectral import SpectralStack, solve_susceptibility_stack

#: |1/D| (= |D'| of e^{-ML}) below this is treated as a backward-geometry resonance.
BOUNDARY_TOL = 1e-12

#: Points closer than this take the Taylor series of _exp_divided_difference, with DD_TERMS terms.
DD_CLUSTER = 0.5
DD_TERMS = 18

#: A seed slab of the semiclassical imbedding has |m| h <= 2^-THIN_DOUBLINGS (one RK4 step of
#: width h); that many squarings, on its change from the empty slab, take it to |m| h <= 1.
THIN_DOUBLINGS = 10

_EYE = np.eye(2)
#: The empty slab (A, B, C, D) = (1, 0, 0, 1) as a column, for stacks (4, n) of slabs.
_EMPTY_SLAB = np.array([[1.0], [0.0], [0.0], [1.0]])


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


def _sinch(w: np.ndarray) -> tuple:
    """expm1(-2w) and the scaled sinch e^{-w} sinh(w)/w = -expm1(-2w)/(2w) of roots w with Re w >= 0.

    For a principal root (np.sqrt(q), or that times a real t >= 0)
    e^{-2w} is bounded however large w grows; expm1 keeps the sinch
    accurate as w -> 0, and w = 0 gives exactly 0 and 1.
    """
    em1 = np.expm1(-2 * w)
    return em1, np.divide(-em1, 2 * w, out=np.ones_like(w), where=w != 0)


def _cosh_sinch(w: np.ndarray) -> tuple:
    """e^{-w} cosh(w) = (1 + e^{-2w})/2 and the scaled sinch of _sinch; w = 0 gives exactly 1 and 1."""
    _, s = _sinch(w)
    return (1 + np.exp(-2 * w)) / 2, s


def _propagator(m: np.ndarray) -> tuple:
    """mu, w, c, s and tee of a stack of generators (..., 2, 2), all bounded: e^{-M} in scaled form.

    mu = tr(M)/2, w = sqrt(q) of _mu_q and c, s = _cosh_sinch(w), so
    e^{-M} = e^{w - mu} [c I - s (M - mu I)], exact through degenerate
    eigenvalues (q -> 0), and its D' = e^{w - mu} tee, tee = c - s (m22 - mu).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mu, q = _mu_q(m)
        w = np.sqrt(q)
        c, s = _cosh_sinch(w)
        return mu, w, c, s, c - s * (m[..., 1, 1] - mu)


def expm2(m: np.ndarray) -> np.ndarray:
    """e^{-M} = e^{w - mu} [c I - s (M - mu I)] (_propagator) for a 2x2 complex matrix or a stack (..., 2, 2).

    Even in w, so the nilpotent / repeated-eigenvalue limit is smooth and
    exact without any branch switch.  One matrix is a stack of one.  An
    overflowing e^{-M} comes back non-finite.
    """
    m = np.asarray(m, dtype=complex)
    stack = m.reshape(-1, 2, 2)
    mu, w, c, s, _ = (x[:, None, None] for x in _propagator(stack))
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.exp(w - mu) * (c * _EYE - s * (stack - mu * _EYE))).reshape(m.shape)


def _scattering(m: np.ndarray) -> np.ndarray:
    """The resolved [[A, B], [C, D]] of e^{-M} for a stack of generators (..., 2, 2).

    [[A, B], [C, D]] = [[A'-B'C'/D', B'/D'], [-C'/D', 1/D']] of (A', B';
    C', D') = e^{-M} maps (probe in at 0, signal in at L) to (probe out
    at L, signal out at 0).  With _propagator's D' = e^{w - mu} tee and
    det e^{-M} = e^{-2 mu}, A = e^{-mu-w}/tee, B = -s m12/tee, C = s
    m21/tee and D = e^{mu-w}/tee: ratios of bounded terms.  Unchecked:
    _solvable holds the conditions under which the result is usable.
    """
    return _resolve(m, *_propagator(m))


def _resolve(m: np.ndarray, mu, w, _, s, tee) -> np.ndarray:
    """The resolved stack of _scattering from the _propagator values (mu, w, c, s, tee) of ``m``."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        resolved = np.empty_like(m)
        resolved[..., 0, 0] = np.exp(-mu - w) / tee
        resolved[..., 0, 1] = -s * m[..., 0, 1] / tee
        resolved[..., 1, 0] = s * m[..., 1, 0] / tee
        resolved[..., 1, 1] = np.exp(mu - w) / tee
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


def _solvable(resolved: np.ndarray) -> list:
    """The checks, for _first_failure, that a resolved stack (n, 2, 2) is a usable boundary solution.

    Each matrix must be finite and its |1/D| (= |D'| of e^{-ML}) must
    reach BOUNDARY_TOL.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pivot = 1.0 / np.abs(resolved[:, 1, 1])
    return [
        (~np.isfinite(resolved).all(axis=(1, 2)), lambda k: IllPosedBoundary("the resolved matrix is not finite")),
        (pivot < BOUNDARY_TOL, lambda k: IllPosedBoundary(f"|1/D| = {pivot[k]:.3e} below {BOUNDARY_TOL}")),
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


def _kernel_rows(stack: SpectralStack, row: int | None = None) -> tuple:
    """mu, w and the rows (pa, a, pb, b) of the noise kernels of a stack, after its boundary check.

    [P_jk; Q_jk](z) = [[1, -B], [0, -D]] e^{M (z - L)} [zeta_p; zeta_s],
    with B, D the core's.  With _propagator's mu, w, tee of ML, N = ML -
    mu I, n = (m11 - m22)/2 and t = 1 - z/L, e^{-Nt} = e^{-wt} I +
    e^{wt} t s(wt) (w I - N), and exactly (1, -B)(w I - N) = e^{-2w} (w
    - n, -m12)/tee and D = e^{mu - w}/tee.  So each row is K(t) =
    e^{pa - (mu + w) t} a + e^{pb - (mu - w) t} t s(wt) b, two bounded
    exponentials: P has a = zeta_p - B zeta_s, b = ((w - n) zeta_p - m12
    zeta_s)/tee, pa = 0, pb = -2w; Q has a = -zeta_s/tee, b = (m21 zeta_p
    - (w + n) zeta_s)/tee, pa = pb = mu - w.  No 1/w, no e^{+w}.  a and
    b have a column per column of ``stack.zeta``; ``row`` = 0 or 1 builds
    only P or only Q.  IllPosedBoundary names the first frequency whose
    resolved matrix fails _solvable.
    """
    m = stack.generator * LENGTH
    mu, w, c, s, tee = _propagator(m)
    resolved = _resolve(m, mu, w, c, s, tee)
    _, failure = _first_failure(stack.omega, _solvable(resolved), "omega")
    if failure is not None:
        raise failure
    n, tee = (m[:, 0, 0] - m[:, 1, 1]) / 2, tee[:, None]
    zeta_p, zeta_s = stack.zeta[:, 0], stack.zeta[:, 1]
    rows = (
        lambda: (np.zeros_like(mu), zeta_p - resolved[:, 0, 1, None] * zeta_s,
                 -2 * w, ((w - n)[:, None] * zeta_p - m[:, 0, 1, None] * zeta_s) / tee),
        lambda: (mu - w, -zeta_s / tee,
                 mu - w, (m[:, 1, 0, None] * zeta_p - (w + n)[:, None] * zeta_s) / tee),
    )
    return mu, w, tuple(build() for build in (rows if row is None else rows[row : row + 1]))


def noise_kernel_block(stack: SpectralStack, z_grid: np.ndarray, row: int | None = None) -> np.ndarray:
    """Noise kernels [P_jk; Q_jk](z) of _kernel_rows on n frequencies and a z grid.

    Per (omega, z) pair one expm1 and the two exponentials.  Returns
    shape (n, nz, 2, k), rows (P, Q) and a column per column of
    ``stack.zeta`` (k = 3 for a solved stack, ordered like
    NOISE_INDICES); ``row`` = 0 or 1 gives only P or only Q, shape (n,
    nz, k).  A zeta with no columns gets the boundary check and then
    empty kernels, with no work per (omega, z) pair.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    mu, w, rows = _kernel_rows(stack, row)
    if stack.zeta.shape[-1] == 0:
        empty = np.empty((len(stack.omega), z_grid.size, 2, 0), dtype=complex)
        return empty if row is None else empty[:, :, row]
    t = 1 - z_grid / LENGTH
    _, ts = _sinch(np.multiply.outer(w, t))
    ts *= t
    kernels = []
    for pa, a, pb, b in rows:
        near = np.exp(pa[:, None] - np.multiply.outer(mu + w, t))
        far = np.exp(pb[:, None] - np.multiply.outer(mu - w, t)) * ts
        kernels.append(near[..., None] * a[:, None] + far[..., None] * b[:, None])
    return np.stack(kernels, axis=2) if row is None else kernels[0]


def _farthest_pair_orders(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i < j) of k points, and per pair an order of the points that puts i first and j last."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    orders = [[i, *(m for m in range(k) if m not in (i, j)), j] for i, j in pairs]
    return np.array(pairs), np.array(orders)


_FARTHEST = {k: _farthest_pair_orders(k) for k in (3, 4)}


def _exp_divided_difference(x: np.ndarray) -> np.ndarray:
    """exp[x_0, ..., x_n], the divided difference of exp at the points x (m, n + 1), shape (m,).

    It is the integral of e^{sum tau_j x_j} over the simplex of weights
    tau (Hermite-Genocchi), so it is bounded by e^{max Re x}/n!.  Two
    points give e^{x_b} (1 - e^{-d})/d, d = x_b - x_s with x_b the one of
    larger real part, and expm1 carries d -> 0.  More points within
    DD_CLUSTER of each other take DD_TERMS terms of the Taylor series
    about their mean, e^{c} sum_k h_k(x - c)/(k + n)! with h_k the
    complete symmetric polynomials; the others the recurrence
    (exp[x_1..x_n] - exp[x_0..x_{n-1}])/(x_n - x_0) with x_0, x_n the
    farthest pair (after McCurdy, Ng & Parlett, Math. Comp. 43, 501
    (1984)).  So coincident points need no branch of their own.
    """
    k = x.shape[1]
    if k == 2:
        first = x[:, 0].real >= x[:, 1].real
        big, small = np.where(first, x[:, 0], x[:, 1]), np.where(first, x[:, 1], x[:, 0])
        d = big - small
        return np.exp(big) * np.divide(-np.expm1(-d), d, out=np.ones_like(d), where=d != 0)
    pairs, orders = _FARTHEST[k]
    spread = np.abs(x[:, pairs[:, 1]] - x[:, pairs[:, 0]])
    best = spread.argmax(axis=1)
    x = x[np.arange(len(x))[:, None], orders[best]]  # the farthest pair first and last
    near = spread.max(axis=1) < DD_CLUSTER
    out = np.empty(len(x), dtype=complex)
    far = x[~near]
    last, first = _exp_divided_difference(np.concatenate([far[:, 1:], far[:, :-1]])).reshape(2, -1)
    out[~near] = (last - first) / (far[:, -1] - far[:, 0])
    centre = x[near].mean(axis=1)
    y = (x[near] - centre[:, None]).T
    h = np.ones_like(y)  # h[j] = h_order(y_0, ..., y_j)
    total, coefficient = np.ones_like(centre), 1.0  # coefficient = (k - 1)!/(order + k - 1)!
    for order in range(1, DD_TERMS):
        h = np.cumsum(y * h, axis=0)  # h_order(y_0..y_j) = h_order(y_0..y_{j-1}) + y_j h_{order-1}(y_0..y_j)
        coefficient /= order + k - 1
        total += coefficient * h[-1]
    out[near] = np.exp(centre) * total / math.factorial(k - 1)
    return out


def _pair_integrals(mu: np.ndarray, w: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> tuple:
    """int_0^1 of u u*, u v* and v v* dt for u = e^{pa - (mu + w) t} and v = e^{pb - (mu - w) t} t s(wt).

    v = e^{pb - mu t} sinh(wt)/w, and each integral is a divided
    difference of exp at the end exponents of its integrand, so each is
    bounded wherever the kernels are and exact through w = 0: with
    lambda = mu + w, u u* gives exp[2 Re pa, 2 Re (pa - lambda)] and u
    v* gives exp[x, x - lambda - conj(mu - w), x - 2 Re lambda], x = pa +
    conj(pb).  |sinh(wt)/w|^2 = (sinh^2(at) + sin^2(bt))/|w|^2 for w = a
    + ib, so v v* gives 2 (a^2 E(a) + b^2 E(ib))/|w|^2 with E(h) =
    exp[c, y - 2h, y, y + 2h], c = 2 Re pb, y = c - 2 Re mu (weight 1 on
    E(a) at w = 0, where E(a) = E(ib)).
    """
    lam = mu + w
    e = 2 * pa.real
    x = pa + np.conj(pb)
    c = 2 * pb.real
    y = c - 2 * mu.real
    uu = _exp_divided_difference(np.stack([e, e - 2 * lam.real], axis=1)).real
    uv = _exp_divided_difference(np.stack([x, x - lam - np.conj(mu - w), x - 2 * lam.real], axis=1))
    points = np.array([[c, y - 2 * h, y, y + 2 * h] for h in (w.real, 1j * w.imag)])  # (2, 4, n)
    ea, eb = _exp_divided_difference(points.transpose(0, 2, 1).reshape(-1, 4)).real.reshape(2, -1)
    size = np.abs(w) ** 2
    weight = np.divide(w.real**2, size, out=np.ones_like(size), where=size != 0)
    return uu, uv, 2 * (weight * ea + (1 - weight) * eb)


def noise_kernel_gram(stack: SpectralStack, row: int) -> np.ndarray:
    """G_ab = int_0^L K_a K_b* dz of one kernel row (0: P, 1: Q) of _kernel_rows, shape (n, k, k).

    With K_a = u a_a + v b_a (u, v of _pair_integrals, t = 1 - z/L),
    G_ab = L (a_a a_b* I_uu + a_a b_b* I_uv + b_a a_b* conj(I_uv) + b_a
    b_b* I_vv): three scalar integrals per frequency, for any number k of
    columns of ``stack.zeta``, and no z grid.  IllPosedBoundary names the
    first frequency whose resolved matrix fails _solvable; a zeta with no
    columns gets that check and an empty Gram.
    """
    mu, w, ((pa, a, pb, b),) = _kernel_rows(stack, row)
    if not a.shape[1]:
        return np.zeros((len(stack.omega), 0, 0), dtype=complex)
    uu, uv, vv = (v[:, None, None] for v in _pair_integrals(mu, w, pa, pb))
    a, b, ac, bc = a[:, :, None], b[:, :, None], a.conj()[:, None, :], b.conj()[:, None, :]
    return LENGTH * (uu * a * ac + uv * a * bc + uv.conj() * b * ac + vv * b * bc)


def noise_kernels(stack: SpectralStack, raw: np.ndarray, z_grid: np.ndarray | None = None) -> NoiseKernels:
    """The noise kernels of a stack of one on ``z_grid`` (by default 257 uniform nodes on [0, L]).

    ``raw`` = (A', B'; C', D') must be e^{-ML}, the exponential of the
    stack's generator: it is only checked, and IllPosedBoundary names the
    frequency when B'/D' or 1/D' is not finite or |D'| < BOUNDARY_TOL.
    The kernels are noise_kernel_block's, which never form e^{-ML}.
    """
    if z_grid is None:
        z_grid = np.linspace(0.0, LENGTH, 257)
    with np.errstate(divide="ignore", invalid="ignore"):
        boundary = np.array([[[0.0, raw[0][1]], [0.0, 1.0]]]) / complex(raw[1][1])
    _, failure = _first_failure(stack.omega, _solvable(boundary), "omega")
    if failure is not None:
        raise failure
    kernels = noise_kernel_block(stack, z_grid)[0]
    return NoiseKernels(np.asarray(z_grid, dtype=float), kernels[:, 0].T, kernels[:, 1].T, float(stack.omega[0]))


def _imbedding_rates(m: np.ndarray, slabs: np.ndarray) -> np.ndarray:
    """d/dt of stacked slabs (4, n) = (A, B, C, D) as a sheet of optical depth dt is added at the far face.

    With m = M(1) L: A' = A (m21 B - m11), B' = m21 B^2 + (m22 - m11) B -
    m12, C' = m21 A D and D' = D (m21 B + m22), the thin-sheet limit of
    _star (a sheet is (1 - m11 dt, -m12 dt, m21 dt, 1 + m22 dt)).
    """
    (m11, m12), (m21, m22) = m
    a, b, _, d = slabs
    return np.array([a * (m21 * b - m11), (m21 * b + m22 - m11) * b - m12, m21 * a * d, d * (m21 * b + m22)])


def _seed_slabs(m: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Thin slabs of the optical-depth ``widths`` (n,) as their change from (1, 0, 0, 1), shape (4, n).

    One classical RK4 step of _imbedding_rates from the empty slab.
    """
    k1 = _imbedding_rates(m, _EMPTY_SLAB)
    k2 = _imbedding_rates(m, _EMPTY_SLAB + widths / 2 * k1)
    k3 = _imbedding_rates(m, _EMPTY_SLAB + widths / 2 * k2)
    k4 = _imbedding_rates(m, _EMPTY_SLAB + widths * k3)
    return widths / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _star(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Redheffer star product of stacked slabs (4, n), ``first`` nearer z = 0, and its pivot |1 - B1 C2|.

    A slab (A, B, C, D) maps (probe in at its near face, signal in at its
    far face) to (probe out at the far face, signal out at the near
    face), like a resolved matrix.  With den = 1 - B1 C2 the pair gives
    A = A2 A1/den, B = B2 + A2 B1 D2/den, C = C1 + D1 C2 A1/den and D =
    D1 D2/den.  On whole slabs, so a small A or C keeps its relative
    precision.
    """
    a1, b1, c1, d1 = first
    a2, b2, c2, d2 = second
    den = 1 - b1 * c2
    return np.array([a2 * a1 / den, b2 + a2 * b1 * d2 / den, c1 + d1 * c2 * a1 / den, d1 * d2 / den]), np.abs(den)


def _square(change: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_star of each slab with itself, on and to (A - 1, B, C, D - 1), shape (4, n); and its pivot |1 - B C|.

    A^2/den - 1 = ((A - 1)(A + 1) + B C)/den, B (den + A D)/den, C (den +
    A D)/den and D^2/den - 1 likewise, with den = 1 - B C.  A thin slab
    so keeps the full precision of its change from the empty slab; held
    whole, its A and D would round to within eps of 1, an error that k
    squarings scale by 2^k.
    """
    a, b, c, d = change
    bc = b * c
    den = 1 - bc
    both = (den + (1 + a) * (1 + d)) / den
    return np.array([(a * (2 + a) + bc) / den, b * both, c * both, (d * (2 + d) + bc) / den]), np.abs(den)


def _slabs(m: np.ndarray, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slabs (4, n) of the optical-depth widths ``gaps`` (n,), and the smallest pivot met in each.

    A width g is a seed (_seed_slabs) of width g/2^k, k the least with
    |m| g/2^k <= 2^-THIN_DOUBLINGS (|m| the largest entry of m), widened
    by k squarings: the first THIN_DOUBLINGS on the change from the
    empty slab (_square), the rest, from |m| width <= 1 on, on whole
    slabs (_star), so a small A or C keeps its relative precision.  A
    width of 0 is exactly the empty slab (1, 0, 0, 1).  If every width
    is 0 no seed is built.
    """
    change, pivot = np.zeros((4, gaps.size), dtype=complex), np.ones(gaps.size)
    k = np.zeros(gaps.size, dtype=int)
    if gaps.any():
        depth = np.fmax(np.ldexp(np.abs(m).max() * gaps, THIN_DOUBLINGS), 1.0)  # a NaN width gives 1
        k = np.where(np.isfinite(depth), np.ceil(np.log2(depth)), 0).astype(int)
        change = _seed_slabs(m, np.ldexp(gaps, -k))
    thin = min(k.max(initial=0), THIN_DOUBLINGS)
    for doubling in range(thin):
        wider = k > doubling
        change[:, wider], den = _square(change[:, wider])
        pivot[wider] = np.fmin(pivot[wider], den)
    slabs = change + _EMPTY_SLAB
    for doubling in range(thin, k.max(initial=0)):
        wider = k > doubling
        slabs[:, wider], den = _star(slabs[:, wider], slabs[:, wider])
        pivot[wider] = np.fmin(pivot[wider], den)
    return slabs, pivot


def _cumulative_star(slabs: np.ndarray, pivot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slab 0 * ... * slab i for each i of (4, n) stacked slabs, and the smallest pivot met in each.

    ``pivot`` holds the one each slab was built with.  An inclusive scan
    in ceil(log2 n) vectorised rounds (Hillis & Steele, CACM 29, 1170
    (1986)): the star product is associative.
    """
    slabs, pivot = slabs.copy(), pivot.copy()
    offset = 1
    while offset < slabs.shape[1]:
        joined, den = _star(slabs[:, :-offset], slabs[:, offset:])
        pivot[offset:] = np.fmin(np.fmin(pivot[:-offset], pivot[offset:]), den)
        slabs[:, offset:] = joined
        offset *= 2
    return slabs, pivot


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

    Drops all noise terms and solves the coupled field equations for
    probe(0) = 1, signal(L) = 0 by invariant imbedding in the optical
    depth: M(alpha) = alpha M(1), so with m = M(1) L a slab of depth g
    follows from the imbedding equations (_imbedding_rates), and the
    grid is the star product of one slab per gap of the sorted distinct
    values (_slabs, built once per distinct gap, then _cumulative_star).
    Each row's (A, B, C, D) gives |probe(L)|^2 = |A|^2 and |signal(0)|^2
    = |C|^2.  No matrix exponential, eigenvalue or shooting step: every
    entry stays bounded for a passive medium.  A row fails with
    IllPosedBoundary, like a row of propagation_sweep, when a star
    product it needed has a pivot |1 - B1 C2| below BOUNDARY_TOL, or
    when its (A, B, C, D) is not finite.  ``params.alpha`` is only
    validated.
    """
    alphas = _optical_depths(alphas)
    m = _unit_generator(params, alphas, 0.0) * LENGTH
    times, row_of = np.unique(alphas, return_inverse=True)
    gaps, gap_of = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slabs, pivot = _slabs(m, gaps)
        slabs, pivot = _cumulative_star(slabs[:, gap_of], pivot[gap_of])
        slabs, pivot = slabs[:, row_of], pivot[row_of]
        transmittance, conversion = np.abs(slabs[0]) ** 2, np.abs(slabs[2]) ** 2
    finite = np.isfinite(slabs).all(axis=0)
    n, failure = _first_failure(
        alphas,
        [
            (pivot < BOUNDARY_TOL, lambda k: IllPosedBoundary(f"imbedding singular: |1 - B C| = {pivot[k]:.3e}")),
            (~finite, lambda k: IllPosedBoundary("the imbedding gave no finite scattering matrix")),
        ],
    )
    return SemiclassicalSweep(
        alphas=alphas[:n],
        transmittance=transmittance[:n],
        conversion_efficiency=conversion[:n],
        failure=failure,
    )

