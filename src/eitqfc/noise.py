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

Each grid level is evaluated in blocks of about BLOCK_PAIRS (omega, z)
pairs: a stacked spectral solve and a kernel block per block of
frequencies, with the quadratic form and both quadrature weight
contractions done on the block arrays.  The kernels, two bounded
exponentials per row from the scattering core, are built only for the
live noise slots, those whose row or column of the diffusion matrix
holds a non-zero entry: one of three for the Einstein matrix.  Zero
diffusion has none: each block is still solved and boundary-checked, so
a singular or ill-posed frequency raises as otherwise, and its form is
exactly 0.0 with no contraction.

Ground-state dephasing (gamma21 > 0) enters the deterministic
propagation coefficients but not the diffusion matrix here: its
Langevin back-action on the photon statistics is not modeled, and a
caller who wants to study it must supply the extra diffusion entries
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import NonConvergedIntegral
from .params import GAMMA, LENGTH, SystemParams, validate
from .spectral import solve_susceptibility_stack
from .transfer import noise_kernel_block, resolved_coefficients

#: Row labels jk of the diffusion matrix and their adjoint pairs k'j'.
DIFFUSION_ROWS = (21, 31, 41)
DIFFUSION_COLS = (12, 13, 14)

#: Convergence target for grid doubling of the noise integrals.
INTEGRAL_TOL = 1e-8

#: Gauss-Legendre nodes in omega and in z at the first grid level; each level doubles both.
N_OMEGA = 513
N_Z = 64

#: (omega, z) pairs evaluated at once; a block holds BLOCK_PAIRS // (z nodes) frequencies.
BLOCK_PAIRS = 8192


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


def _block_form(
    params: SystemParams, d: np.ndarray, row: int, omegas: np.ndarray, z_nodes: np.ndarray
) -> np.ndarray:
    """sum_ab K_a d_ab K*_b on a block of omega nodes and the z nodes, shape (omega, z).

    Only the live slots a, those whose row or column of ``d`` holds a
    non-zero entry, get kernels: one of three for the Einstein matrix.
    Zero diffusion has none: the block is solved and checked, and the
    form is zeros with no contraction.
    """
    nonzero = d != 0
    live = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    stack = solve_susceptibility_stack(params, omegas)
    k = noise_kernel_block(replace(stack, zeta=stack.zeta[..., live]), z_nodes, row)  # (omega, z, live slot)
    if not live.size:
        return np.zeros(k.shape[:2])
    kd = k @ d[np.ix_(live, live)]
    return np.einsum("...a,...a->...", kd.real, k.real) + np.einsum("...a,...a->...", kd.imag, k.imag)


def _integral_on_grid(
    params: SystemParams,
    diffusion: DiffusionMatrix,
    kernel: str,
    omega_nodes: np.ndarray,
    omega_weights: np.ndarray,
    z_nodes: np.ndarray,
    z_weights: np.ndarray,
) -> float:
    """sum_jk,j'k' of int dz d_omega K_jk D K*_j'k' / (2 pi) on fixed grids.

    The omega nodes are taken in blocks of about BLOCK_PAIRS (omega, z)
    pairs: one stacked spectral solve and one kernel block per block,
    and no Python loop over omega.
    """
    row = 0 if kernel == "P" else 1
    size = max(1, BLOCK_PAIRS // len(z_nodes))
    total = 0.0
    for start in range(0, len(omega_nodes), size):
        block = slice(start, start + size)
        form = _block_form(params, diffusion.entries, row, omega_nodes[block], z_nodes)
        total += float(omega_weights[block] @ (form @ z_weights))
    return total * LENGTH / (2 * np.pi)


def _adaptive_noise_integral(
    params: SystemParams, diffusion: DiffusionMatrix | None, kernel: str, max_doublings: int
) -> float:
    """The P or Q integral on doubling grids; N_OMEGA, N_Z and INTEGRAL_TOL are read at call time."""
    validate(params)
    if diffusion is None:
        diffusion = diffusion_matrix()
    window = default_window(params)

    previous = None
    change = None
    nodes = 0
    for level in range(max_doublings + 1):
        nodes = N_OMEGA * 2**level
        omega_nodes, omega_weights = gauss_legendre_grid(-window, window, nodes)
        z_nodes, z_weights = gauss_legendre_grid(0.0, LENGTH, N_Z * 2**level)
        value = _integral_on_grid(
            params, diffusion, kernel, omega_nodes, omega_weights, z_nodes, z_weights
        )
        if previous is not None:
            change = abs(value - previous)
            if change < INTEGRAL_TOL:
                return value
        previous = value
    last = "none (one level has nothing to compare)" if change is None else f"{change:.3e}"
    raise NonConvergedIntegral(
        f"noise integral not converged after {max(max_doublings + 1, 0)} grid level(s), "
        f"the last with {nodes} omega nodes: last |change| {last}, tol {INTEGRAL_TOL:.3e}"
    )


def langevin_photon_noise(
    params: SystemParams, diffusion: DiffusionMatrix | None = None, max_doublings: int = 4
) -> float:
    """Langevin contribution to the output probe photon number (P kernels).

    Gauss-Legendre in z over [0, L] and in omega over [-W, W] (W =
    default_window), with both grids doubled until the value changes by
    less than INTEGRAL_TOL (NonConvergedIntegral otherwise).  Kernels
    are built only for the live slots of ``diffusion``, so the default
    weak-probe (zero) matrix gives exactly 0.0 at the cost of the
    spectral solves and boundary checks of two grid levels.
    """
    return _adaptive_noise_integral(params, diffusion, "P", max_doublings)


def eta1(
    params: SystemParams, diffusion: DiffusionMatrix | None = None, max_doublings: int = 4
) -> float:
    """Signal-side Langevin variance term (Q kernels).

    The grids and live slots are those of langevin_photon_noise, so the
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
