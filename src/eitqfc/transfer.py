"""Spatial propagation through the medium and the backward boundary solution.

The coupled probe/signal equations integrate to a 2x2 transfer matrix
e^{-ML} relating the fields at z = 0 and z = L.  In the backward
geometry the inputs are the probe at z = 0 and the (vacuum) signal at
z = L, so what is needed is the resolved (scattering) matrix [[A, B],
[C, D]] and the spatial noise kernels P_jk, Q_jk; an independent
semiclassical boundary-value solver cross-checks the resolved matrix.

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
differences of exp per frequency, in one pass per Gram
(``_exp_divided_differences``, accurate through the degenerate w = 0).
``noise_kernel_block`` evaluates them on a z grid, the tests' quadrature
oracle for the Gram; ``noise_kernels`` is its first frequency.
M(alpha) = alpha M(1), so ``propagation_sweep`` needs one unit-depth
spectral solve and one pass of the core for a whole optical-depth grid
at one omega, and keeps that generator m = M(1) L with its rows.
``semiclassical_sweep`` takes such a sweep and solves the same
boundary-value problem on its rows by invariant imbedding in the
optical depth (Bellman & Wing, *An Introduction to Invariant
Imbedding*, 1975): one slab per distinct gap of the sorted grid, a
classical RK4 step of the imbedding (Riccati) equations on a thin seed
widened by star-squarings, and cumulative Redheffer star products along
the grid.  It scales the sweep's own m, at the sweep's omega, and reads
none of its resolved matrices; it forms no e^{-ML}, no eigenvalue, cosh
or sinch, so it stays independent of the quantum route.  Each returns a
PropagationSweep: the resolved matrices of the rows before the first
optical depth that fails, plus that row's error; a single point is a
one-row grid.  The package never forms e^{-ML}; ``expm2``, e^{-M} in
the core's form, is only the tests' reference for the core.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, combinations
from operator import index, truediv

import numpy as np

from .errors import IllPosedBoundary, NegativeOD, NonFiniteParameter, QfcError, SingularSystem, at, first_failure
from .params import LENGTH, SystemParams
from .spectral import SpectralStack, solve_susceptibility_stack

#: |1/D| (= |D'| of e^{-ML}) below this is treated as a backward-geometry resonance.
BOUNDARY_TOL = 1e-12

#: Points closer than this take the Taylor series of _exp_divided_differences, with DD_TERMS terms.
#: They lie within rho = 3/8 of their centroid, so the order-n term of the sum is at most rho^n/n!
#: and its real part at least e^{-rho} cos rho = 0.6395: from order DD_TERMS on, every term
#: (1.25e-17 or less) is below half an ulp (2^-54) of that real part.
DD_CLUSTER = 0.5
DD_TERMS = 14

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


def _sinch(w: np.ndarray) -> np.ndarray:
    """The scaled sinch e^{-w} sinh(w)/w = -expm1(-2w)/(2w) of roots w with Re w >= 0.

    For a principal root (np.sqrt(q), or that times a real t >= 0)
    e^{-2w} is bounded however large w grows; expm1 keeps the sinch
    accurate as w -> 0, and w = 0 gives exactly 1.
    """
    return np.divide(-np.expm1(-2 * w), 2 * w, out=np.ones_like(w), where=w != 0)


def _cosh_sinch(w: np.ndarray) -> tuple:
    """e^{-w} cosh(w) = (1 + e^{-2w})/2 and the scaled sinch of _sinch; w = 0 gives exactly 1 and 1."""
    return (1 + np.exp(-2 * w)) / 2, _sinch(w)


def _propagator(m: np.ndarray) -> tuple:
    """mu, w, c, s and tee of a stack of generators (..., 2, 2), all bounded: e^{-M} in scaled form.

    mu = tr(M)/2, w = sqrt(q) of _mu_q and c, s = _cosh_sinch(w), so
    e^{-M} = e^{w - mu} [c I - s (M - mu I)], exact through degenerate
    eigenvalues (q -> 0), and its D' = e^{w - mu} tee, tee = c - s (m22 - mu).
    Its callers hold one np.errstate for it and _resolve: a non-finite entry is _solvable's to find.
    """
    mu, q = _mu_q(m)
    w = np.sqrt(q)
    c, s = _cosh_sinch(w)
    return mu, w, c, s, c - s * (m[..., 1, 1] - mu)


def expm2(m: np.ndarray) -> np.ndarray:
    """e^{-M} = e^{w - mu} [c I - s (M - mu I)] (_propagator) for a 2x2 complex matrix or a stack (..., 2, 2).

    Even in w, so the nilpotent / repeated-eigenvalue limit is smooth and
    exact without any branch switch.  One matrix is a stack of one.  An
    overflowing e^{-M} (off line centre, from alpha near 2,500) comes
    back non-finite.  Nothing in the package reads it.
    """
    m = np.asarray(m, dtype=complex)
    stack = m.reshape(-1, 2, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        mu, w, c, s, _ = (x[:, None, None] for x in _propagator(stack))
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu, w, _, s, tee = _propagator(m)
        return _resolve(m, mu, w, s, tee)


def _resolve(m: np.ndarray, mu, w, s, tee) -> np.ndarray:
    """The resolved stack of _scattering from _propagator's mu, w, s and tee of ``m``, in the caller's errstate."""
    resolved = np.empty_like(m)
    resolved[..., 0, 0] = np.exp(-mu - w) / tee
    resolved[..., 0, 1] = -s * m[..., 0, 1] / tee
    resolved[..., 1, 0] = s * m[..., 1, 0] / tee
    resolved[..., 1, 1] = np.exp(mu - w) / tee
    return resolved


def _solvable(resolved: np.ndarray) -> list:
    """The checks, for first_failure, that a resolved stack (n, 2, 2) is a usable boundary solution.

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
    """The resolved [[A, B], [C, D]] on an optical-depth grid, from either sweep.

    The rows stop before the first optical depth that fails:
    ``resolved`` (n, 2, 2) belongs to ``alphas``, the first n values of
    the requested grid, and ``failure`` is the error of the next value
    (its message names that alpha), or None when every row solved.
    ``generator`` is m = M(1) L (2, 2), the unit-depth generator that
    the sweep scaled.
    """

    alphas: np.ndarray
    resolved: np.ndarray
    failure: QfcError | None
    generator: np.ndarray


def propagation_sweep(params: SystemParams, alphas: np.ndarray, omega: float = 0.0) -> PropagationSweep:
    """Spectral solve -> resolved (scattering) matrix on a 1-D grid of optical depths at ``omega``.

    M(alpha) = alpha M(1), so one 3x3 solve of m = M(1) L and one pass
    of the scattering core on ``alphas[:, None, None] * m`` serve the
    whole grid; ``params.alpha`` is not read.  Each row is bit for bit
    what the one-row grid gives.  A grid that is not 1-D is a
    ValueError, a NaN or infinite entry a NonFiniteParameter and a
    negative one a NegativeOD, before any arithmetic.  The 3x3 response
    is alpha-free, so a SingularSystem fails, and names, the grid's
    first row.  A row fails with IllPosedBoundary when its resolved
    matrix fails _solvable (a backward resonance).
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise ValueError(f"optical depths must form a 1-D grid, got shape {alphas.shape}")
    if not np.isfinite(alphas).all():
        raise NonFiniteParameter(f"optical depth must be finite, got {alphas[~np.isfinite(alphas)][0]}")
    if (alphas < 0).any():
        raise NegativeOD(f"optical depth must be >= 0, got {alphas[alphas < 0][0]}")
    try:
        m = solve_susceptibility_stack(replace(params, alpha=1.0), [omega]).generator[0] * LENGTH
    except SingularSystem as exc:
        raise (at(alphas[0], exc) if alphas.size else exc) from exc
    resolved = _scattering(alphas[:, None, None] * m)
    n, failure = first_failure(alphas, _solvable(resolved))
    return PropagationSweep(alphas[:n], resolved[:n], failure, m)


@dataclass(frozen=True)
class NoiseKernels:
    """Spatial noise kernels P_jk(z), Q_jk(z) at one frequency.

    ``p`` and ``q`` have shape (3, nz), a column per z node and rows
    ordered like NOISE_INDICES = (21, 31, 41).
    """

    p: np.ndarray
    q: np.ndarray


def _kernel_rows(stack: SpectralStack, rows: tuple = (0, 1)) -> tuple:
    """mu, w and the noise kernel rows (pa, a, pb, b) ``rows`` (0: P, 1: Q) of a stack, after its boundary check.

    [P_jk; Q_jk](z) = [[1, -B], [0, -D]] e^{M (z - L)} [zeta_p; zeta_s],
    with B, D the core's.  With _propagator's mu, w, tee of ML, N = ML -
    mu I, n = (m11 - m22)/2 and t = 1 - z/L, e^{-Nt} = e^{-wt} I +
    e^{wt} t s(wt) (w I - N), and exactly (1, -B)(w I - N) = e^{-2w} (w
    - n, -m12)/tee and D = e^{mu - w}/tee.  So each row is K(t) =
    e^{pa - (mu + w) t} a + e^{pb - (mu - w) t} t s(wt) b, two bounded
    exponentials: P has a = zeta_p - B zeta_s, b = ((w - n) zeta_p - m12
    zeta_s)/tee, pa = 0, pb = -2w; Q has a = -zeta_s/tee, b = (m21 zeta_p
    - (w + n) zeta_s)/tee, pa = pb = mu - w.  No 1/w, no e^{+w}.  a and
    b have a column per column of ``stack.zeta``.  IllPosedBoundary names
    the first frequency whose resolved matrix fails _solvable.
    """
    m = stack.generator * LENGTH
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu, w, _, s, tee = _propagator(m)
        resolved = _resolve(m, mu, w, s, tee)
    _, failure = first_failure(stack.omega, _solvable(resolved), "omega")
    if failure is not None:
        raise failure
    if not rows:
        return mu, w, []
    n, tee = (m[:, 0, 0] - m[:, 1, 1]) / 2, tee[:, None]
    zeta_p, zeta_s = stack.zeta[:, 0], stack.zeta[:, 1]
    build = (lambda: (np.zeros_like(mu), zeta_p - resolved[:, 0, 1, None] * zeta_s,
                      -2 * w, ((w - n)[:, None] * zeta_p - m[:, 0, 1, None] * zeta_s) / tee),
             lambda: (mu - w, -zeta_s / tee, mu - w, (m[:, 1, 0, None] * zeta_p - (w + n)[:, None] * zeta_s) / tee))
    return mu, w, [build[row]() for row in rows]


def noise_kernel_block(stack: SpectralStack, z_grid: np.ndarray) -> np.ndarray:
    """Noise kernels [P_jk; Q_jk](z) of _kernel_rows on n frequencies and a z grid.

    Per (omega, z) pair one expm1 and the two exponentials.  Returns
    shape (n, nz, 2, k), rows (P, Q) and a column per column of
    ``stack.zeta`` (k = 3 for a solved stack, ordered like
    NOISE_INDICES).  A z node that is not finite or lies outside [0,
    LENGTH] is a ValueError naming the first one, before the boundary
    check.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    outside = ~((z_grid >= 0) & (z_grid <= LENGTH))  # NaN fails both comparisons
    if outside.any():
        raise ValueError(f"z nodes must be finite and lie in [0, {LENGTH}], got {z_grid[outside][0]}")
    mu, w, rows = _kernel_rows(stack)
    t = 1 - z_grid / LENGTH
    ts = _sinch(np.multiply.outer(w, t))
    ts *= t
    kernels = []
    for pa, a, pb, b in rows:
        near = np.exp(pa[:, None] - np.multiply.outer(mu + w, t))
        far = np.exp(pb[:, None] - np.multiply.outer(mu - w, t)) * ts
        kernels.append(near[..., None] * a[:, None] + far[..., None] * b[:, None])
    return np.stack(kernels, axis=2)


#: Per k = 3, 4: the index pairs (i < j) of k points, and per pair an order of the points that puts i first and j last.
_FARTHEST = {k: (np.array(pairs), np.array([[i, *(m for m in range(k) if m not in (i, j)), j] for i, j in pairs]))
             for k in (3, 4) for pairs in [list(combinations(range(k), 2))]}


def _exp_pair_difference(x: np.ndarray) -> np.ndarray:
    """exp[x_0, x_1] = e^{x_b} (1 - e^{-d})/d, d = x_b - x_s, Re x_b >= Re x_s, of rows x (m, 2), in their dtype.

    Bounded by e^{Re x_b}, and expm1 carries d -> 0.
    """
    first = x[:, 0].real >= x[:, 1].real
    big, small = np.where(first, x[:, 0], x[:, 1]), np.where(first, x[:, 1], x[:, 0])
    d = big - small
    return np.exp(big) * np.divide(-np.expm1(-d), d, out=np.ones_like(d), where=d != 0)


def _farthest_first(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of x (m, k), k = 3 or 4, with their farthest pair first and last, and which are within DD_CLUSTER."""
    pairs, orders = _FARTHEST[x.shape[1]]
    spread = np.abs(x[:, pairs[:, 1]] - x[:, pairs[:, 0]])
    # flat indices and take: a third of the time of x[rows, orders[...]] on a few hundred rows
    flat = orders.take(spread.argmax(axis=1), axis=0) + np.arange(0, x.size, x.shape[1])[:, None]
    return x.take(flat), spread.max(axis=1) < DD_CLUSTER


#: (k - 1)!/(order + k - 1)!, order = 1 .. DD_TERMS - 1, by sequential division: columns k = 3 and 4.
_TAYLOR = np.array([list(accumulate(range(k, k + DD_TERMS - 1), truediv, initial=1.0))[1:] for k in (3, 4)]).T


def _exp_divided_differences(x3: np.ndarray, x4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp[x_0, ..., x_{k-1}] of the rows of x3 (m3, 3) and x4 (m4, 4), shapes (m3,) and (m4,), in one pass.

    The integral of e^{sum tau_j x_j} over the simplex of weights tau
    (Hermite-Genocchi), bounded by e^{max Re x}/(k - 1)!.  Points within
    DD_CLUSTER of each other take DD_TERMS terms of the Taylor series
    about their mean c, e^c sum_n h_n(x - c)/(n + k - 1)! with h_n the
    complete symmetric polynomials.  Each |x - c| <= rho = 3/8, so with
    (k - 1)! taken out the order-n term is at most rho^n/n! and the
    sum's real part at least e^{-rho} cos rho > 1/2: the terms from order
    DD_TERMS on lie below half an ulp of it.  The others are
    (exp[x_1..x_{k-1}] - exp[x_0..x_{k-2}])/(x_{k-1} - x_0) with x_0,
    x_{k-1} the farthest pair (after McCurdy, Ng & Parlett, Math. Comp.
    43, 501 (1984)).  So the far 4-point rows join x3, the far 3-point
    rows go to _exp_pair_difference, and all clusters share one Taylor
    loop, a 3-point one padded with a centred point of exactly 0.  With
    x3 and x4 of one dtype each row gets the bits it would get alone.
    """
    rows3 = len(x3)
    x4, near4 = _farthest_first(x4)
    far4 = x4.compress(~near4, axis=0)
    x3, near3 = _farthest_first(np.concatenate([x3, far4[:, 1:], far4[:, :-1]]))
    far3 = x3.compress(~near3, axis=0)
    last, first = _exp_pair_difference(np.concatenate([far3[:, 1:], far3[:, :-1]])).reshape(2, -1)
    clusters = x3.compress(near3, axis=0), x4.compress(near4, axis=0)
    centres = [cluster.sum(axis=1) / cluster.shape[1] for cluster in clusters]  # np.mean's add.reduce and true_divide
    m3 = len(centres[0])
    y = np.zeros((4, m3 + len(centres[1])), dtype=np.result_type(x3, x4))
    y[:3, :m3], y[:, m3:] = ((cluster - centre[:, None]).T for cluster, centre in zip(clusters, centres))
    h, total = np.ones_like(y), np.ones(y.shape[1], dtype=y.dtype)  # h[j] = h_n(y_0, ..., y_j)
    term = np.empty_like(total)
    for coefficient in np.repeat(_TAYLOR.astype(y.dtype), [m3, y.shape[1] - m3], axis=1):
        np.multiply(y, h, out=h)
        for j in range(1, 4):  # h_n(y_0..y_j) = h_n(y_0..y_{j-1}) + y_j h_{n-1}(y_0..y_j)
            h[j] += h[j - 1]
        total += np.multiply(coefficient, h[-1], out=term)
    out3, out4 = np.empty(len(x3), dtype=complex), np.empty(len(x4), dtype=complex)
    out3[~near3] = (last - first) / (far3[:, -1] - far3[:, 0])
    out3[near3] = np.exp(centres[0]) * total[:m3] / 2  # / (k - 1)!
    last, first = out3[rows3:].reshape(2, -1)
    out4[~near4] = (last - first) / (far4[:, -1] - far4[:, 0])
    out4[near4] = np.exp(centres[1]) * total[m3:] / 6
    return out3[:rows3], out4


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
    E(a) at w = 0, where E(a) = E(ib)).  u u* takes the real two-point
    form; u v*, E(a) and E(ib) share one _exp_divided_differences pass.
    """
    lam, e, x, c = mu + w, 2 * pa.real, pa + np.conj(pb), 2 * pb.real
    y = c - 2 * mu.real
    uu = _exp_pair_difference(np.stack([e, e - 2 * lam.real], axis=1))
    points = np.empty((2, len(w), 4), dtype=complex)
    points[..., 0], points[..., 2] = c, y
    for edge, h in zip(points, (w.real, 1j * w.imag)):
        edge[:, 1], edge[:, 3] = y - 2 * h, y + 2 * h
    uv_points = np.stack([x, x - lam - np.conj(mu - w), x - 2 * lam.real], axis=1)
    uv, vv = _exp_divided_differences(uv_points, points.reshape(-1, 4))
    ea, eb = vv.real.reshape(2, -1)
    size = np.abs(w) ** 2
    weight = np.divide(w.real**2, size, out=np.ones_like(size), where=size != 0)
    return uu, uv, 2 * (weight * ea + (1 - weight) * eb)


def noise_kernel_gram(stack: SpectralStack, row: int) -> np.ndarray:
    """G_ab = int_0^L K_a K_b* dz of one kernel row (0: P, 1: Q) of _kernel_rows, shape (n, k, k).

    With K_a = u a_a + v b_a (u, v of _pair_integrals, t = 1 - z/L),
    G_ab = L (a_a a_b* I_uu + a_a b_b* I_uv + b_a a_b* conj(I_uv) + b_a
    b_b* I_vv): three scalar integrals per frequency, for any number k of
    columns of ``stack.zeta``, one divided-difference pass and no z grid.
    IllPosedBoundary names the first frequency whose resolved matrix
    fails _solvable; a zeta with no columns gets that check, no kernel
    row and an empty Gram.  A non-integer row is a TypeError and any
    other row a ValueError, before any arithmetic.
    """
    row = index(row)
    if row not in (0, 1):
        raise ValueError(f"kernel row must be 0 (P) or 1 (Q), got {row!r}")
    mu, w, rows = _kernel_rows(stack, (row,) if stack.zeta.shape[-1] else ())
    if not rows:
        return np.zeros((len(stack.omega), 0, 0), dtype=complex)
    pa, a, pb, b = rows[0]
    uu, uv, vv = (v[:, None, None] for v in _pair_integrals(mu, w, pa, pb))
    a, b, ac, bc = a[:, :, None], b[:, :, None], a.conj()[:, None, :], b.conj()[:, None, :]
    return LENGTH * (uu * a * ac + uv * a * bc + uv.conj() * b * ac + vv * b * bc)


def noise_kernels(stack: SpectralStack, raw: np.ndarray, z_grid: np.ndarray | None = None) -> NoiseKernels:
    """The rows (P, Q) of noise_kernel_block(stack, z_grid)[0], by default on 257 uniform nodes on [0, L].

    ``raw`` is not read: callers pass e^{-ML} there positionally, and the
    z grid stays the third argument.  The block's z-node and boundary
    checks are the only ones: IllPosedBoundary names the frequency.
    """
    if z_grid is None:
        z_grid = np.linspace(0.0, LENGTH, 257)
    kernels = noise_kernel_block(stack, z_grid)[0]
    return NoiseKernels(kernels[:, 0].T, kernels[:, 1].T)


def _imbedding_rates(m: np.ndarray, slabs: np.ndarray) -> np.ndarray:
    """d/dt of stacked slabs (4, n) = (A, B, C, D) as a sheet of optical depth dt is added at the far face.

    With m = M(1) L: A' = A (m21 B - m11), B' = m21 B^2 + (m22 - m11) B -
    m12, C' = m21 A D and D' = D (m21 B + m22), the thin-sheet limit of
    _star (a sheet is (1 - m11 dt, -m12 dt, m21 dt, 1 + m22 dt)).
    """
    (m11, m12), (m21, m22) = m
    a, b, _, d = slabs
    mb = m21 * b
    near = mb + m22
    return np.array([a * (mb - m11), (near - m11) * b - m12, m21 * a * d, d * near])


def _seed_slabs(m: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Thin slabs of the optical-depth ``widths`` (n,) as their change from (1, 0, 0, 1), shape (4, n).

    One classical RK4 step of _imbedding_rates from the empty slab.
    """
    k1 = _imbedding_rates(m, _EMPTY_SLAB)
    k2 = _imbedding_rates(m, _EMPTY_SLAB + widths / 2 * k1)
    k3 = _imbedding_rates(m, _EMPTY_SLAB + widths / 2 * k2)
    k4 = _imbedding_rates(m, _EMPTY_SLAB + widths * k3)
    return widths / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _star(first: np.ndarray, second: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The Redheffer star product of stacked slabs (4, n), ``first`` nearer z = 0, and its pivot |1 - B1 C2|.

    A slab (A, B, C, D) maps (probe in at its near face, signal in at its
    far face) to (probe out at the far face, signal out at the near
    face), like a resolved matrix.  With den = 1 - B1 C2 the pair gives
    A = A2 A1/den, B = B2 + A2 B1 D2/den, C = C1 + D1 C2 A1/den and D =
    D1 D2/den.  On whole slabs, so a small A or C keeps its relative
    precision.  The rows are written into ``out`` (new if None), which
    must not overlap either factor.
    """
    a1, b1, c1, d1 = first
    a2, b2, c2, d2 = second
    den = 1 - b1 * c2
    out = np.empty_like(first) if out is None else out
    for row, top in enumerate((a2 * a1, a2 * b1 * d2, d1 * c2 * a1, d1 * d2)):
        np.divide(top, den, out=out[row])
    out[1] += b2
    out[2] += c1
    return out, np.abs(den)


def _square(change: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_star of each slab with itself, in place on (A - 1, B, C, D - 1), shape (4, n); and its pivot |1 - B C|.

    A^2/den - 1 = ((A - 1)(A + 1) + B C)/den, B (den + A D)/den, C (den +
    A D)/den and D^2/den - 1 likewise, with den = 1 - B C.  A thin slab
    so keeps the full precision of its change from the empty slab; held
    whole, its A and D would round to within eps of 1, an error that k
    squarings scale by 2^k.
    """
    ends, sides = change[::3], change[1:3]  # (A - 1, D - 1) and (B, C)
    bc = sides[0] * sides[1]
    den = 1 - bc
    grown = 1 + ends
    both = (den + grown[0] * grown[1]) / den
    np.multiply(sides, both, out=sides)
    np.divide(ends * (2 + ends) + bc, den, out=ends)
    return change, np.abs(den)


def _slabs(m: np.ndarray, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slabs (4, n) of the ascending optical-depth widths ``gaps`` (n,), and the smallest pivot met in each.

    A width g is a seed (_seed_slabs) of width g/2^k, k the least with
    |m| g/2^k <= 2^-THIN_DOUBLINGS (|m| the largest entry of m), widened
    by k squarings: the first THIN_DOUBLINGS on the change from the
    empty slab (_square), the rest, from |m| width <= 1 on, on whole
    slabs (_star), so a small A or C keeps its relative precision.  k
    ascends with g, so each squaring works in place on one run of columns
    that stops before any width whose |m| g overflows (k = 0: a seed).  A
    width of 0 is exactly the empty slab (1, 0, 0, 1); if every width is
    0 no seed is built.
    """
    change, pivot = np.zeros((4, gaps.size), dtype=complex), np.ones(gaps.size)
    k, stop = np.zeros(gaps.size, dtype=int), 0
    if gaps.any():
        depth = np.fmax(np.ldexp(np.abs(m).max() * gaps, THIN_DOUBLINGS), 1.0)  # a NaN |m| gives 1
        finite = np.isfinite(depth)
        k, stop = np.where(finite, np.ceil(np.log2(depth)), 0).astype(int), np.count_nonzero(finite)
        change = _seed_slabs(m, np.ldexp(gaps, -k))
    starts = np.searchsorted(k[:stop], np.arange(k.max(initial=0)), side="right").tolist()
    for start in starts[:THIN_DOUBLINGS]:
        _, den = _square(change[:, start:stop])
        np.fmin(pivot[start:stop], den, out=pivot[start:stop])
    slabs = change + _EMPTY_SLAB
    for start in starts[THIN_DOUBLINGS:]:
        slabs[:, start:stop], den = _star(slabs[:, start:stop], slabs[:, start:stop])
        np.fmin(pivot[start:stop], den, out=pivot[start:stop])
    return slabs, pivot


def _cumulative_star(slabs: np.ndarray, pivot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slab 0 * ... * slab i for each i of (4, n) stacked slabs, and the smallest pivot met in each.

    ``pivot`` holds the one each slab was built with.  An inclusive scan
    in ceil(log2 n) vectorised rounds (Hillis & Steele, CACM 29, 1170
    (1986)): the star product is associative.  Each round writes into the
    other of two buffers; both arguments are overwritten.
    """
    spare = np.empty_like(slabs)
    offset = 1
    while offset < slabs.shape[1]:
        spare[:, :offset] = slabs[:, :offset]
        _, den = _star(slabs[:, :-offset], slabs[:, offset:], spare[:, offset:])
        pivot[offset:] = np.fmin(np.fmin(pivot[:-offset], pivot[offset:]), den)
        slabs, spare = spare, slabs
        offset *= 2
    return slabs, pivot


def semiclassical_sweep(quantum: PropagationSweep) -> PropagationSweep:
    """Classical two-point boundary-value solution on the rows of a quantum sweep, with its generator.

    Drops all noise terms and solves the coupled field equations for
    probe(0) = 1, signal(L) = 0 by invariant imbedding in the optical
    depth: M(alpha) = alpha M(1), so with m = ``quantum.generator`` a
    slab of depth g follows from the imbedding equations
    (_imbedding_rates), and each row of ``quantum.alphas`` is the star
    product of one slab per gap of the sorted distinct values up to it
    (_slabs, built once per distinct gap, then _cumulative_star).
    ``quantum.resolved`` is not read.  Each row's slab (A, B, C, D) is
    its resolved [[A, B], [C, D]], so |probe(L)|^2 = |A|^2 and
    |signal(0)|^2 = |C|^2.  No matrix exponential, eigenvalue or
    shooting step: every entry stays bounded for a passive medium.  A
    row fails with IllPosedBoundary, like a row of propagation_sweep,
    when a star product it needed has a pivot |1 - B1 C2| below
    BOUNDARY_TOL, or when its (A, B, C, D) is not finite.
    """
    alphas, m = quantum.alphas, quantum.generator
    times, row_of = np.unique(alphas, return_inverse=True)
    gaps, gap_of = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slabs, pivot = _slabs(m, gaps)
        slabs, pivot = _cumulative_star(slabs[:, gap_of], pivot[gap_of])
        rows, pivot = slabs.T[row_of], pivot[row_of]
    finite = np.isfinite(rows).all(axis=1)
    n, failure = first_failure(
        alphas,
        [
            (pivot < BOUNDARY_TOL, lambda k: IllPosedBoundary(f"imbedding singular: |1 - B C| = {pivot[k]:.3e}")),
            (~finite, lambda k: IllPosedBoundary("the imbedding gave no finite scattering matrix")),
        ],
    )
    return PropagationSweep(alphas[:n], rows.reshape(-1, 2, 2)[:n], failure, m)
