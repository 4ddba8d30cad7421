"""Vacuum-reservoir noise accounting.

The Langevin noise enters the output photon number and quadrature
variances through double integrals of the spatial kernels weighted by
the normally-ordered diffusion matrix.  Under the weak-probe
approximation the excited-state populations vanish, the diffusion
matrix is zero and so are those integrals; the signal-side noise term
eta2 then follows from the output commutator instead of any
anti-normally-ordered integration.

All integrals carry the correlation prefactor L/(2 pi c) with L and c
normalized to 1 (c drops out of the dimensionless model once the
i*omega/c propagation term is neglected).

The medium is uniform, so the z integral is exact: each frequency
contributes sum_ab d_ab G_ab, with G_ab = int_0^L K_a K_b* dz the Gram
of the kernel row (transfer.noise_kernel_gram, three scalar integrals
per frequency).  The drift has a real diagonal and off-diagonals -(i/2)
Omega, so G_ab(-omega) = conj(G_ab(omega) phi_a) phi_b, phi = (1,
-e^{-2i arg omega_c}, -e^{-2i arg omega_d}), and the rule runs on [0, W]
of the form of d + conj(d) o (phi phi^H), d's form at omega plus at
-omega: composite 21-point Gauss-Kronrod (QUADPACK's qk21) on panels.
The integrand has a cusp at omega = 0 whose half-width shrinks like
|Omega|^2 / alpha^2, so the seed edges come from the physics: omega = 0,
decades toward it down to the cusp, the Rabi scale and W/2, W.  Each
pass is one stacked spectral solve, one boundary check, one Gram and one
contraction over the Kronrod nodes of its panels.  The seed pass also
solves and checks the panel edges, with weight 0, so SingularSystem and
IllPosedBoundary can name omega = 0; the condition number and |1/D| at
-omega are those at omega.  A pass ends with QUADPACK's error estimate
per panel; while their sum is above INTEGRAL_TOL, the next pass bisects
each panel whose estimate exceeds its share of the tolerance by width.
The Gram is built only for the live noise slots, those whose row or
column of the diffusion matrix holds a non-zero entry: one of three for
the Einstein matrix.  Zero diffusion (None, or a matrix whose folded
form is zero) has none, and costs the seed pass's spectral solve and
boundary check and nothing more: the same Kronrod nodes and panel edges
an injected call solves first, so a singular or ill-posed frequency
raises as otherwise, and then the integral is exactly 0.0, with no
Gram, contraction, error estimate or refinement.

Ground-state dephasing (gamma21 > 0) enters the deterministic
propagation coefficients but not the diffusion matrix here: its
Langevin back-action on the photon statistics is not modeled, and a
caller who wants to study it must supply the extra diffusion entries
explicitly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergedIntegral, NonFiniteParameter, first_failure
from .params import GAMMA, LENGTH, SystemParams
from .spectral import SpectralStack, solve_susceptibility_stack
from .transfer import noise_kernel_gram, propagation_sweep

#: Convergence target for the summed panel error estimates of a noise integral.
INTEGRAL_TOL = 1e-8

#: The cusp of the integrand at omega = 0 falls to half its height at about
#: CUSP_WIDTH |Omega|^2 / alpha^2 (seen from alpha = 1e2 to 1e6, |Omega| = 0.3 to 3).
CUSP_WIDTH = 100.0

#: Seed edges at these multiples of the Rabi scale max(|omega_c|, |omega_d|).
RABI_EDGES = (0.3, 0.6, 1.0, 2.0, 4.0)
#: The decade ladder 0.1^k, k = 1 .. 20, of _seed_edges: 20 decades reach the cusp up to alpha ~ 1e10 |Omega|^(1/2).
#: numpy's powers, as floats: Python's 0.1 ** k differs from them in the last bit at k = 2 and 8.
_DECADES = (0.1 ** np.arange(1, 21)).tolist()


def _mirror(half: list[float], sign: float) -> np.ndarray:
    """A rule on [-1, 1] from its values at x >= 0, listed from x = 1 down to x = 0."""
    half = np.array(half)
    return np.concatenate([sign * half[:-1], half[::-1]])


#: QUADPACK's qk21 (Piessens et al., QUADPACK, 1983) on [-1, 1], nodes ascending: the
#: 21 Kronrod nodes, their weights, and the weights of the 10-point Gauss rule on the
#: same nodes, zero at the ten Kronrod-only ones and the centre.
_KRONROD_NODES = _mirror(
    [
        0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0,
    ],
    -1.0,
)
_KRONROD_WEIGHTS = _mirror(
    [
        0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208745109033, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821,
    ],
    1.0,
)
_GAUSS_WEIGHTS = _mirror(
    [
        0.0, 0.066671344308688137593568809893332,
        0.0, 0.149451349150580593145776339657697,
        0.0, 0.219086362515982043995534934228163,
        0.0, 0.269266719309996355091226921569469,
        0.0, 0.295524224714752870173892994651338,
        0.0,
    ],
    1.0,
)


@dataclass(frozen=True)
class DiffusionMatrix:
    """Normally-ordered diffusion coefficients D_{jk,k'j'}.

    entries[a, b] couples noise slot NOISE_INDICES[a] to the adjoint of
    slot NOISE_INDICES[b]: a finite (3, 3) array, stored as a read-only complex copy.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=complex)
        if entries.shape != (3, 3) or not np.isfinite(entries).all():
            raise ValueError(f"diffusion entries must be a finite 3x3 array, got shape {entries.shape}")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiffusionMatrix) and np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return hash((self.entries + 0.0).tobytes())  # + 0.0 turns -0.0, equal to 0.0, into 0.0

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.entries == 0))


def diffusion_matrix(pop33: float = 0.0, pop44: float = 0.0) -> DiffusionMatrix:
    """Einstein-relation diffusion matrix for given excited populations.

    The only nonzero entry is D_{21,12} = (GAMMA/2)(pop44 + pop33); with
    the weak-probe zero populations the whole matrix vanishes.  Each
    population lies in [0, 1], and being one atom's, their sum too.
    """
    if not (0.0 <= pop33 <= 1.0 and 0.0 <= pop44 <= 1.0):
        raise ValueError(f"populations must lie in [0, 1], got {pop33}, {pop44}")
    if pop33 + pop44 > 1.0:
        raise ValueError(f"populations must add up to at most 1, got {pop33} + {pop44}")
    entries = np.zeros((3, 3), dtype=complex)
    entries[0, 0] = GAMMA / 2 * (pop44 + pop33)
    return DiffusionMatrix(entries=entries)


def default_window(params: SystemParams) -> float:
    """Half-width of the frequency truncation window; NonFiniteParameter when it overflows (|Omega| past ~1.8e307)."""
    try:
        window = 10.0 * max(GAMMA, abs(params.omega_c), abs(params.omega_d))
    except OverflowError:  # abs of a complex field whose modulus is past the float range
        window = float("inf")
    if window == float("inf"):
        raise NonFiniteParameter(f"frequency window 10 max(Gamma, |Omega|) must be finite, got {window}")
    return window


def _checked_diffusion(diffusion: DiffusionMatrix | None) -> None:
    """TypeError, naming the type, for a ``diffusion`` that is neither None nor a DiffusionMatrix."""
    if diffusion is not None and not isinstance(diffusion, DiffusionMatrix):
        raise TypeError(f"diffusion must be a DiffusionMatrix or None, got {type(diffusion).__name__}")


def _folded(params: SystemParams, d: np.ndarray) -> np.ndarray:
    """d + conj(d) o (phi phi^H): the form of d at omega plus its form at -omega (the module docstring's phi)."""
    phi = np.concatenate([[1.0], -np.exp(-2j * np.angle([params.omega_c, params.omega_d]))])
    return d + d.conj() * np.outer(phi, phi.conj())


def _live_gram(params: SystemParams, live, row: int, omegas: np.ndarray) -> np.ndarray:
    """The spectral solve and boundary check of the omega nodes, then the Gram (omega, live, live) of slots ``live``."""
    stack = solve_susceptibility_stack(params, omegas)
    return noise_kernel_gram(SpectralStack(stack.generator, stack.zeta[..., live], stack.omega), row)


def _form(params: SystemParams, d: np.ndarray, row: int, omegas: np.ndarray) -> np.ndarray:
    """Re sum_ab d_ab int_0^L K_a K*_b dz at each omega node, shape (omega,).

    Only the live slots a, those whose row or column of ``d`` holds a
    non-zero entry, get a Gram: one of three for the Einstein matrix.
    Zero diffusion has none: the nodes are solved and checked, and the
    form is zeros.
    """
    nonzero = d != 0
    live = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    return np.einsum("nab,ab->n", _live_gram(params, live, row, omegas), d[live][:, live]).real


def _seed_edges(params: SystemParams) -> np.ndarray:
    """The first panel edges on [0, W], W = default_window: omega = 0 and the edges below, ascending.

    The Rabi scale R = max(|omega_c|, |omega_d|) times RABI_EDGES, W/2 and W, and the decades
    0.3 R 10^-k (k >= 1) down to a tenth of the cusp's half-width CUSP_WIDTH R^2 / alpha^2, as
    Python floats (the half-width is inf past the float range), each once: R's coincide at R = 0.
    """
    window = default_window(params)
    rabi = max(abs(params.omega_c), abs(params.omega_d))
    scale = rabi / max(params.alpha, 1.0)
    cusp = CUSP_WIDTH * (scale * scale)
    decades = [edge for edge in (0.3 * rabi * decade for decade in _DECADES) if edge >= cusp / 10]
    return np.array(sorted({0.0, *decades, *(rabi * edge for edge in RABI_EDGES), window / 2, window}))


def _kronrod_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 21 Kronrod nodes of each panel [lo, hi], shape (n, 21), and the half-widths (n,)."""
    half = (hi - lo) / 2
    return (lo + half)[:, None] + half[:, None] * _KRONROD_NODES, half


def _panel_pass(
    params: SystemParams, d: np.ndarray, row: int, lo: np.ndarray, hi: np.ndarray, edges: np.ndarray | tuple = ()
) -> tuple[np.ndarray, np.ndarray]:
    """The qk21 value and error estimate of each panel [lo, hi] of the integral, from one _form.

    The form runs over the panels' Kronrod nodes and then ``edges``,
    which are solved and checked with weight 0, under one np.errstate: a
    Kronrod node whose form is not finite is a NonConvergedIntegral that
    names the first such omega, before any sum.  The error is QUADPACK's
    (Piessens et al., QUADPACK, 1983, routine qk21): |K21 - G10| scaled
    by resasc, the K21 integral of |f - mean f|, and at least 50 eps
    times the integral of |f|.
    """
    nodes, half = _kronrod_nodes(lo, hi)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        form = _form(params, d, row, np.concatenate([nodes.ravel(), edges])) * (LENGTH / (2 * np.pi))
    form = form[: nodes.size]
    if not np.isfinite(form).all():  # first_failure only on failure: its mask costs more than this test
        not_finite = (~np.isfinite(form), lambda k: NonConvergedIntegral("the noise form is not finite"))
        raise first_failure(nodes.ravel(), [not_finite], "omega")[1]
    form = form.reshape(nodes.shape)
    kronrod, gauss = form @ _KRONROD_WEIGHTS, form @ _GAUSS_WEIGHTS
    resasc = np.abs(form - kronrod[:, None] / 2) @ _KRONROD_WEIGHTS * half
    error = np.abs(kronrod - gauss) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200 * error / resasc) ** 1.5)
    error = np.where((resasc != 0) & (error != 0), scaled, error)
    return kronrod * half, np.maximum(error, 50 * np.finfo(float).eps * (np.abs(form) @ _KRONROD_WEIGHTS * half))


def _adaptive_noise_integral(
    params: SystemParams, diffusion: DiffusionMatrix | None, row: int, max_doublings: int
) -> float:
    """The P (row 0) or Q (row 1) integral, panel-refined Gauss-Kronrod on omega >= 0; INTEGRAL_TOL is read per call."""
    max_doublings = operator.index(max_doublings)
    if max_doublings < 0:
        raise ValueError(f"max_doublings must be >= 0, got {max_doublings}")
    _checked_diffusion(diffusion)
    d = None if diffusion is None else _folded(params, diffusion.entries)

    edges = _seed_edges(params)
    lo, hi = edges[:-1], edges[1:]
    if d is None or not d.any():  # no live slot: the seed pass's solve and boundary check, and nothing more
        _live_gram(params, slice(0), row, np.concatenate([_kronrod_nodes(lo, hi)[0].ravel(), edges]))
        return 0.0
    value, error = _panel_pass(params, d, row, lo, hi, edges)
    solved, width = lo.size * _KRONROD_NODES.size + edges.size, edges[-1]
    for _ in range(max_doublings):
        if error.sum() < INTEGRAL_TOL:
            break
        # bisect each panel whose error exceeds its share of the tolerance by width
        split = error > INTEGRAL_TOL * (hi - lo) / width
        mid = (lo[split] + hi[split]) / 2
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        new_value, new_error = _panel_pass(params, d, row, new_lo, new_hi)
        lo, hi = np.concatenate([lo[~split], new_lo]), np.concatenate([hi[~split], new_hi])
        value, error = np.concatenate([value[~split], new_value]), np.concatenate([error[~split], new_error])
        solved += new_lo.size * _KRONROD_NODES.size
    if error.sum() < INTEGRAL_TOL:
        return float(value.sum())
    raise NonConvergedIntegral(
        f"noise integral not converged after {max_doublings} refinement round(s): {lo.size} panels, "
        f"{solved} omega nodes solved, last error estimate {error.sum():.3e}, tol {INTEGRAL_TOL:.3e}"
    )


def langevin_photon_noise(
    params: SystemParams, diffusion: DiffusionMatrix | None = None, max_doublings: int = 4
) -> float:
    """Langevin contribution to the output probe photon number (P kernels).

    The z integral over [0, L] in closed form and composite Gauss-Kronrod
    in omega on [0, W] (W = default_window) of the integrand folded by its
    frequency parity, on seed panels from the physics that are bisected
    where their error estimate is large, until the summed estimate is
    below INTEGRAL_TOL.  ``max_doublings`` bounds the refinement rounds
    after the seed pass: NonConvergedIntegral when they do not reach the
    tolerance; before any solve, TypeError when it is not an integer and
    ValueError when it is negative, and TypeError when ``diffusion`` is
    neither None nor a DiffusionMatrix.  The Gram is built only for the
    live slots of ``diffusion``, so the default weak-probe (zero) matrix
    gives exactly 0.0 at the cost of the seed pass's spectral solve and
    boundary check and nothing more.
    """
    return _adaptive_noise_integral(params, diffusion, 0, max_doublings)


def eta1(
    params: SystemParams, diffusion: DiffusionMatrix | None = None, max_doublings: int = 4
) -> float:
    """Signal-side Langevin variance term (Q kernels).

    The omega rule on [0, W] of the folded integrand, ``max_doublings``
    and the live slots are those of langevin_photon_noise, so the default
    (zero) diffusion matrix gives exactly 0.0.
    """
    return _adaptive_noise_integral(params, diffusion, 1, max_doublings)


def eta2(params: SystemParams, diffusion: DiffusionMatrix | None = None) -> float:
    """Vacuum-commutator noise term of the converted signal quadratures.

    Obtained from [a_s(0,t), a_s^+(0,t)] = 1 as
    eta2 = 1 - |C_0|^2 - |D_0|^2 + eta1, never by direct
    anti-normally-ordered integration.  What it adds is eta1, the
    omega-integral of the Q form with the prefactor L/(2 pi), not the Q
    form at omega = 0 that the single-frequency closure gives; the two
    differ (0.00542 against 0.660 at alpha = 200 for
    diffusion_matrix(0.01, 0.01), symmetric |Omega| = 1), and which one
    the definition should hold is still open.  With the default (zero)
    diffusion matrix eta1 is exactly 0.0 after its seed pass's solve and
    boundary check; a user-supplied diffusion matrix is integrated honestly.
    TypeError, before any solve, when ``diffusion`` is neither None nor
    a DiffusionMatrix.
    """
    _checked_diffusion(diffusion)
    sweep = propagation_sweep(params, [params.alpha])
    if sweep.failure is not None:
        raise sweep.failure
    c0, d0 = sweep.resolved[0, 1]
    return float(1.0 - abs(c0) ** 2 - abs(d0) ** 2 + eta1(params, diffusion))
