"""Frequency-domain atomic response of the FWM medium.

The first-order Heisenberg-Langevin equations for the three coherences
(sigma_21, sigma_31, sigma_41) form a linear 3x3 system at each Fourier
frequency omega.  Eliminating the coherences from the field propagation
equations yields, per frequency, the EIT profile coefficients Lambda,
the cross-coupling coefficients kappa and the Langevin noise couplings
zeta.  They come in one format, the ``SpectralStack`` (one frequency is
a stack of one), from two sources:

* ``solve_susceptibility_stack`` -- the numeric 3x3 solve, valid for
  arbitrary (also asymmetric, dephasing) parameters; one stacked SVD
  condition test and one stacked inverse serve a whole array of
  frequencies.  It is the only numeric route: the noise integrals call
  it on blocks of frequencies, and the optical-depth sweeps once at unit
  optical depth, since M is linear in it;
* ``closed_form_coefficients`` -- literal transcription of the
  symmetric-case closed forms, used as an oracle for the numeric route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricCase, SingularG, SingularSystem
from .params import GAMMA, LENGTH, SystemParams, is_symmetric, validate

#: Langevin noise slots: the atomic-coherence subscripts, in the column order of SpectralStack.zeta.
NOISE_INDICES = (21, 31, 41)

#: Condition-number threshold beyond which the 3x3 solve is rejected.
COND_LIMIT = 1e12

_EYE3 = np.eye(3)
#: Row signs of M: [Lambda_p, kappa_p] carry +strength, [kappa_s, Lambda_s] -strength.
_SIGNS = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class SpectralStack:
    """Per-frequency propagation and noise-coupling coefficients on an array of n frequencies.

    ``generator`` (n, 2, 2) holds M = [[Lambda_p, kappa_p], [kappa_s,
    Lambda_s]] in units of 1/LENGTH; ``zeta`` (n, 2, 3) holds the rows
    zeta_p and zeta_s, the couplings of the renormalized Langevin noises,
    with columns ordered like NOISE_INDICES.  One frequency is a stack of
    one.
    """

    generator: np.ndarray
    zeta: np.ndarray
    omega: np.ndarray


def build_first_order_system(params: SystemParams) -> np.ndarray:
    """The drift (3, 3) of the first-order coherence equations.

    The equations read (i*omega*I - drift) sigma = -i a_p^+ e_31
    - i a_s^+ e_41 + F at frequency omega: the probe and signal creation
    operators drive sigma_31 and sigma_41 (their coupling constants g_p,
    g_s are absorbed into the optical depth downstream), and the Langevin
    operators F enter with unit coefficients.  Row order is (sigma_21,
    sigma_31, sigma_41): the ground-state coherence decays at gamma21/2
    and couples to both optical coherences through the Rabi frequencies;
    each optical coherence decays at its own gamma_j1/2 and is driven by
    one quantized field plus the conjugated Rabi coupling back to
    sigma_21.
    """
    validate(params)
    oc, od = complex(params.omega_c), complex(params.omega_d)
    return np.array(
        [
            [-params.gamma21 / 2, -0.5j * oc, -0.5j * od],
            [-0.5j * np.conj(oc), -params.gamma31 / 2, 0.0],
            [-0.5j * np.conj(od), 0.0, -params.gamma41 / 2],
        ],
        dtype=complex,
    )


def _inverse_response(params: SystemParams, omegas: np.ndarray) -> np.ndarray:
    """(i*omega*I - drift)^{-1} on a 1-D array of n frequencies, shape (n, 3, 3).

    Every matrix must pass the SVD condition test against COND_LIMIT;
    SingularSystem names the first omega that fails it.
    """
    matrix = np.multiply.outer(1j * omegas, _EYE3) - build_first_order_system(params)
    # the 2-norm condition number s_max/s_min of np.linalg.cond, compared
    # without the division so that s_min = 0 needs no special case
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    well_posed = singular_values[..., 0] <= COND_LIMIT * singular_values[..., -1]
    if not well_posed.all():
        first = np.flatnonzero(~well_posed)[0]
        raise SingularSystem(
            f"atomic response matrix at omega={np.ravel(omegas)[first]} "
            f"has condition number {np.ravel(np.linalg.cond(matrix))[first]:.3e}"
        )
    return np.linalg.inv(matrix)


def _couplings(alpha: float, ainv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map the inverted 3x3 responses onto M (n, 2, 2) and zeta (n, 2, 3).

    Lambda_p, kappa_p = strength * ainv[1, 1:] and kappa_s, Lambda_s =
    -strength * ainv[2, 1:] with strength = alpha / 4 (GAMMA = LENGTH
    = 1); zeta_p = -i root ainv[1, :] and zeta_s = i root ainv[2, :],
    with root = sqrt(strength).
    """
    strength = alpha * GAMMA / (4 * LENGTH)
    root = np.sqrt(strength)
    zeta = np.array([[-1j * root], [1j * root]]) * ainv[..., 1:, :]
    return strength * _SIGNS * ainv[..., 1:, 1:], zeta


def solve_susceptibility_stack(params: SystemParams, omegas: np.ndarray) -> SpectralStack:
    """Numeric elimination of the atomic coherences on a 1-D array of frequencies.

    Works for arbitrary validated parameters (asymmetric Rabi
    frequencies, unequal decays, ground-state dephasing).  One stacked
    condition test and one stacked inverse serve all of them.  Raises
    SingularSystem, naming the first such frequency, when a response
    matrix is ill-conditioned beyond COND_LIMIT, which signals a
    physically degenerate configuration (e.g. both Rabi frequencies and
    the dephasing vanish at omega = 0).
    """
    omegas = np.asarray(omegas, dtype=float)
    generator, zeta = _couplings(params.alpha, _inverse_response(params, omegas))
    return SpectralStack(generator=generator, zeta=zeta, omega=omegas)


def solve_susceptibilities(params: SystemParams, omega: float) -> SpectralStack:
    """solve_susceptibility_stack at one frequency: a stack of one."""
    return solve_susceptibility_stack(params, [omega])


def eit_denominator(params: SystemParams, omega: float) -> complex:
    """The common denominator G(omega) of the symmetric-case closed forms."""
    mag2 = abs(params.omega_c) * abs(params.omega_d)
    return (GAMMA / 2 + 1j * omega) * (2j * GAMMA * omega - 4 * omega**2 + 2 * mag2)


def closed_form_coefficients(params: SystemParams, omega: float) -> SpectralStack:
    """Symmetric-case closed forms for all eight coefficients, as a stack of one.

    Only valid when |omega_c| = |omega_d|, gamma31 = gamma41 = GAMMA and
    gamma21 = 0 (raises NotSymmetricCase otherwise).  The Rabi phases are
    attributed per coefficient: kappa_p carries conj(omega_c)*omega_d and
    the zeta_21 couplings carry the conjugated Rabi frequency of their
    own transition, which reduces to the familiar |Omega|^2 / Omega*
    expressions when both fields share a phase.
    """
    validate(params)
    if not is_symmetric(params):
        raise NotSymmetricCase(
            "closed forms require |omega_c| = |omega_d|, gamma31 = gamma41 = 1, gamma21 = 0"
        )
    g = eit_denominator(params, omega)
    if abs(g) < 1e-14:
        raise SingularG(f"G(omega) ~ 0 at omega={omega} (|G|={abs(g):.3e})")

    oc, od = complex(params.omega_c), complex(params.omega_d)
    mag2 = abs(oc) * abs(od)
    strength = params.alpha * GAMMA / (4 * LENGTH)
    root = np.sqrt(strength)

    lambda_p = strength * (2j * GAMMA * omega - 4 * omega**2 + mag2) / g
    kappa_p = strength * (-np.conj(oc) * od) / g
    kappa_s = strength * (oc * np.conj(od)) / g
    zeta_p = [
        root * (-2j * omega * np.conj(oc) - GAMMA * np.conj(oc)) / g,
        root * (4j * omega**2 + 2 * GAMMA * omega - 1j * abs(od) ** 2) / g,
        root * (1j * np.conj(oc) * od) / g,
    ]
    zeta_s = [
        root * (GAMMA * np.conj(od) + 2j * omega * np.conj(od)) / g,
        root * (-1j * oc * np.conj(od)) / g,
        root * (-2 * GAMMA * omega - 4j * omega**2 + 1j * abs(oc) ** 2) / g,
    ]
    return SpectralStack(
        generator=np.array([[[lambda_p, kappa_p], [kappa_s, -lambda_p]]], dtype=complex),
        zeta=np.array([[zeta_p, zeta_s]], dtype=complex),
        omega=np.array([omega], dtype=float),
    )
