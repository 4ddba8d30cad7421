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
contributes sum_ab d_ab G_ab, with G_ab = int_0^L K_a K_b* dz the Gram of
the kernel row (transfer.noise_kernel_gram, three scalar integrals per
frequency).  The grid levels in omega double the nodes.  Every call
needs the first two levels before it can compare, so they share one
pass: one stacked spectral solve, one boundary check, one Gram and one
contraction with the diffusion matrix over their nodes, level 0 first,
so SingularSystem and IllPosedBoundary name the first failing node in
level order; each later level is one pass of its own.  The Gram is built only for the
live noise slots, those whose row or column of the diffusion matrix
holds a non-zero entry: one of three for the Einstein matrix.  Zero
diffusion has none: every node is still solved and boundary-checked, so
a singular or ill-posed frequency raises as otherwise, and the integral
is exactly 0.0.

Ground-state dephasing (gamma21 > 0) enters the deterministic
propagation coefficients but not the diffusion matrix here: its
Langevin back-action on the photon statistics is not modeled, and a
caller who wants to study it must supply the extra diffusion entries
explicitly.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import NonConvergedIntegral
from .params import GAMMA, LENGTH, SystemParams, validate
from .spectral import solve_susceptibility_stack
from .transfer import noise_kernel_gram, resolved_coefficients

#: Row labels jk of the diffusion matrix and their adjoint pairs k'j'.
DIFFUSION_ROWS = (21, 31, 41)
DIFFUSION_COLS = (12, 13, 14)

#: Convergence target for grid doubling of the noise integrals.
INTEGRAL_TOL = 1e-8

#: Gauss-Legendre nodes in omega at the first grid level; each level doubles them.
N_OMEGA = 513


@dataclass(frozen=True)
class DiffusionMatrix:
    """Normally-ordered diffusion coefficients D_{jk,k'j'}.

    entries[a, b] couples noise slot DIFFUSION_ROWS[a] to the adjoint
    slot DIFFUSION_COLS[b].
    """

    entries: np.ndarray

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.entries == 0))


def diffusion_matrix(pop33: float = 0.0, pop44: float = 0.0) -> DiffusionMatrix:
    """Einstein-relation diffusion matrix for given excited populations.

    The only nonzero entry is D_{21,12} = (GAMMA/2)(pop44 + pop33); with
    the weak-probe zero populations the whole matrix vanishes.
    """
    if not (0.0 <= pop33 <= 1.0 and 0.0 <= pop44 <= 1.0):
        raise ValueError(f"populations must lie in [0, 1], got {pop33}, {pop44}")
    entries = np.zeros((3, 3), dtype=complex)
    entries[0, 0] = GAMMA / 2 * (pop44 + pop33)
    return DiffusionMatrix(entries=entries)


def default_window(params: SystemParams) -> float:
    """Half-width of the frequency truncation window."""
    return 10.0 * max(GAMMA, abs(params.omega_c), abs(params.omega_d))


@lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre_grid(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _gauss_legendre(n)
    half = (b - a) / 2
    return a + half * (x + 1), half * w


def _form(params: SystemParams, d: np.ndarray, row: int, omegas: np.ndarray) -> np.ndarray:
    """Re sum_ab d_ab int_0^L K_a K*_b dz at each omega node, shape (omega,).

    Only the live slots a, those whose row or column of ``d`` holds a
    non-zero entry, get a Gram: one of three for the Einstein matrix.
    Zero diffusion has none: the nodes are solved and checked, and the
    form is zeros.
    """
    nonzero = d != 0
    live = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    stack = solve_susceptibility_stack(params, omegas)
    gram = noise_kernel_gram(replace(stack, zeta=stack.zeta[..., live]), row)  # (omega, live, live)
    return np.einsum("nab,ab->n", gram, d[np.ix_(live, live)]).real


def _integrals_on_grids(
    params: SystemParams, diffusion: DiffusionMatrix, kernel: str, grids: list[tuple[np.ndarray, np.ndarray]]
) -> list[float]:
    """_integral_on_grid on each (nodes, weights) grid, from one _form over all their nodes in order."""
    form = _form(params, diffusion.entries, 0 if kernel == "P" else 1, np.concatenate([x for x, _ in grids]))
    parts = np.split(form, np.cumsum([len(x) for x, _ in grids[:-1]]))
    return [float(weights @ part) * LENGTH / (2 * np.pi) for (_, weights), part in zip(grids, parts)]


def _integral_on_grid(
    params: SystemParams,
    diffusion: DiffusionMatrix,
    kernel: str,
    omega_nodes: np.ndarray,
    omega_weights: np.ndarray,
) -> float:
    """sum_jk,j'k' of int dz d_omega K_jk D K*_j'k' / (2 pi) on a fixed omega grid, z in closed form."""
    (value,) = _integrals_on_grids(params, diffusion, kernel, [(omega_nodes, omega_weights)])
    return value


def _level_values(
    params: SystemParams, diffusion: DiffusionMatrix, kernel: str, max_doublings: int
) -> Iterator[float]:
    """The integral on each omega level 0..max_doublings, lazily; levels 0 and 1 share one pass."""
    window = default_window(params)
    first = range(min(max_doublings, 1) + 1)  # every call needs both before it can compare
    yield from _integrals_on_grids(
        params, diffusion, kernel, [gauss_legendre_grid(-window, window, N_OMEGA * 2**level) for level in first]
    )
    for level in range(len(first), max_doublings + 1):
        nodes, weights = gauss_legendre_grid(-window, window, N_OMEGA * 2**level)
        yield _integral_on_grid(params, diffusion, kernel, nodes, weights)


def _adaptive_noise_integral(
    params: SystemParams, diffusion: DiffusionMatrix | None, kernel: str, max_doublings: int
) -> float:
    """The P or Q integral on doubling omega grids; N_OMEGA and INTEGRAL_TOL are read at call time."""
    if max_doublings < 0:
        raise ValueError(f"max_doublings must be >= 0, got {max_doublings}")
    validate(params)
    if diffusion is None:
        diffusion = diffusion_matrix()

    previous = None
    change = None
    for value in _level_values(params, diffusion, kernel, max_doublings):
        if previous is not None:
            change = abs(value - previous)
            if change < INTEGRAL_TOL:
                return value
        previous = value
    last = "none (one level has nothing to compare)" if change is None else f"{change:.3e}"
    raise NonConvergedIntegral(
        f"noise integral not converged after {max_doublings + 1} grid level(s), "
        f"the last with {N_OMEGA * 2**max_doublings} omega nodes: last |change| {last}, tol {INTEGRAL_TOL:.3e}"
    )


def langevin_photon_noise(
    params: SystemParams, diffusion: DiffusionMatrix | None = None, max_doublings: int = 4
) -> float:
    """Langevin contribution to the output probe photon number (P kernels).

    The z integral over [0, L] in closed form and Gauss-Legendre in
    omega over [-W, W] (W = default_window), with the omega nodes
    doubled until the value changes by less than INTEGRAL_TOL
    (NonConvergedIntegral otherwise; ValueError for a negative
    ``max_doublings``).  The Gram is built only for the live slots of
    ``diffusion``, so the default weak-probe (zero) matrix gives exactly
    0.0 at the cost of the spectral solve and boundary check of the
    first two grid levels, done as one pass.
    """
    return _adaptive_noise_integral(params, diffusion, "P", max_doublings)


def eta1(
    params: SystemParams, diffusion: DiffusionMatrix | None = None, max_doublings: int = 4
) -> float:
    """Signal-side Langevin variance term (Q kernels).

    The omega grids and live slots are those of langevin_photon_noise, so the
    default (zero) diffusion matrix gives exactly 0.0.
    """
    return _adaptive_noise_integral(params, diffusion, "Q", max_doublings)


def eta2(params: SystemParams, diffusion: DiffusionMatrix | None = None) -> float:
    """Vacuum-commutator noise term of the converted signal quadratures.

    Obtained from [a_s(0,t), a_s^+(0,t)] = 1 as
    eta2 = 1 - |C_0|^2 - |D_0|^2 + eta1, never by direct
    anti-normally-ordered integration.  With the default (zero)
    diffusion matrix eta1 vanishes identically, so the integral is
    skipped; a user-supplied diffusion matrix is integrated honestly.
    """
    validate(params)
    _, _, c0, d0 = resolved_coefficients(params, 0.0)
    if diffusion is None or diffusion.is_zero:
        eta1_value = 0.0
    else:
        eta1_value = eta1(params, diffusion)
    return 1.0 - abs(c0) ** 2 - abs(d0) ** 2 + eta1_value
