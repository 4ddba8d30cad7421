"""Frequency-domain atomic response of the FWM medium.

The first-order Heisenberg-Langevin equations for the three coherences
(sigma_21, sigma_31, sigma_41) form a linear 3x3 system at each Fourier
frequency omega.  Eliminating the coherences from the field propagation
equations yields, per frequency, the EIT profile coefficients Lambda,
the cross-coupling coefficients kappa and the Langevin noise couplings
zeta.  Two routes are provided:

* the numeric 3x3 solve, valid for arbitrary (also asymmetric,
  dephasing) parameters.  One stacked SVD condition test and one stacked
  inverse serve a whole array of frequencies at once
  (``solve_susceptibility_stack``, used by the noise integrals);
  ``solve_susceptibilities`` is its one-frequency view.  Since M is
  linear in the optical depth, ``generator_sweep`` gives M on a whole
  optical-depth grid from one 3x3 solve;
* ``closed_form_coefficients`` -- literal transcription of the
  symmetric-case closed forms, used as an oracle for the numeric route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricCase, SingularG, SingularSystem
from .params import GAMMA, LENGTH, SystemParams, is_symmetric, validate

#: Langevin noise slots, keyed by the atomic-coherence subscript.
NOISE_INDICES = (21, 31, 41)

#: Condition-number threshold beyond which the 3x3 solve is rejected.
COND_LIMIT = 1e12

_EYE3 = np.eye(3)
#: Row signs of M: [Lambda_p, kappa_p] carry +strength, [kappa_s, Lambda_s] -strength.
_SIGNS = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class FirstOrderSystem:
    """Linear system (i*omega*I - drift) sigma = -i a_p^+ e_31 - i a_s^+ e_41 + F.

    ``drift`` holds the coefficients of (sigma_21, sigma_31, sigma_41) in
    their equations of motion.  The probe and signal creation operators
    drive sigma_31 and sigma_41 (their coupling constants g_p, g_s are
    absorbed into the optical depth downstream), and the Langevin
    operators F enter with unit coefficients.
    """

    drift: np.ndarray
    omega: float | np.ndarray

    @property
    def system_matrix(self) -> np.ndarray:
        """The matrix (i*omega*I - drift) to be inverted.

        Shape (3, 3) for one omega, (n, 3, 3) for an array of n omegas.
        """
        return np.multiply.outer(1j * self.omega, _EYE3) - self.drift


@dataclass(frozen=True)
class SpectralCoefficients:
    """Per-frequency propagation and noise-coupling coefficients.

    lambda_p/lambda_s and kappa_p/kappa_s carry units of 1/LENGTH;
    zeta_p/zeta_s map the coherence subscript (21, 31, 41) to the
    coupling of the corresponding renormalized Langevin noise.
    """

    lambda_p: complex
    lambda_s: complex
    kappa_p: complex
    kappa_s: complex
    zeta_p: dict[int, complex]
    zeta_s: dict[int, complex]
    omega: float

    @property
    def zeta_p_vector(self) -> np.ndarray:
        return np.array([self.zeta_p[jk] for jk in NOISE_INDICES])

    @property
    def zeta_s_vector(self) -> np.ndarray:
        return np.array([self.zeta_s[jk] for jk in NOISE_INDICES])


@dataclass(frozen=True)
class SpectralStack:
    """The coefficients of SpectralCoefficients on an array of n frequencies.

    ``generator`` (n, 2, 2) holds M = [[Lambda_p, kappa_p], [kappa_s,
    Lambda_s]]; ``zeta`` (n, 2, 3) holds the rows zeta_p and zeta_s, with
    columns ordered like NOISE_INDICES.
    """

    generator: np.ndarray
    zeta: np.ndarray
    omega: np.ndarray


def build_first_order_system(params: SystemParams, omega: float | np.ndarray) -> FirstOrderSystem:
    """Assemble the first-order coherence equations at frequency omega.

    ``omega`` may also be a 1-D array; the drift does not depend on it.

    Row order is (sigma_21, sigma_31, sigma_41): the ground-state
    coherence decays at gamma21/2 and couples to both optical coherences
    through the Rabi frequencies; each optical coherence decays at its
    own gamma_j1/2 and is driven by one quantized field plus the
    conjugated Rabi coupling back to sigma_21.
    """
    validate(params)
    oc, od = complex(params.omega_c), complex(params.omega_d)
    drift = np.array(
        [
            [-params.gamma21 / 2, -0.5j * oc, -0.5j * od],
            [-0.5j * np.conj(oc), -params.gamma31 / 2, 0.0],
            [-0.5j * np.conj(od), 0.0, -params.gamma41 / 2],
        ],
        dtype=complex,
    )
    return FirstOrderSystem(drift=drift, omega=omega)


def _inverse_response(params: SystemParams, omega: float | np.ndarray) -> np.ndarray:
    """(i*omega*I - drift)^{-1} for one omega (3, 3) or a 1-D array of them (n, 3, 3).

    Every matrix must pass the SVD condition test against COND_LIMIT;
    SingularSystem names the first omega that fails it.
    """
    matrix = build_first_order_system(params, omega).system_matrix
    # the 2-norm condition number s_max/s_min of np.linalg.cond, compared
    # without the division so that s_min = 0 needs no special case
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    well_posed = singular_values[..., 0] <= COND_LIMIT * singular_values[..., -1]
    if not well_posed.all():
        first = np.flatnonzero(~well_posed)[0]
        raise SingularSystem(
            f"atomic response matrix at omega={np.ravel(omega)[first]} "
            f"has condition number {np.ravel(np.linalg.cond(matrix))[first]:.3e}"
        )
    return np.linalg.inv(matrix)


def _generator(alpha: float | np.ndarray, ainv: np.ndarray) -> np.ndarray:
    """Map the inverted 3x3 response(s) onto M (..., 2, 2).

    Lambda_p, kappa_p = strength * ainv[1, 1:] and kappa_s, Lambda_s =
    -strength * ainv[2, 1:] with strength = alpha / 4 (GAMMA = LENGTH
    = 1).  ``alpha`` is one optical depth (with one ainv or a stack) or
    a 1-D array of them (with one ainv); every entry is the same single
    product either way.
    """
    strength = alpha * GAMMA / (4 * LENGTH)
    return np.multiply.outer(strength, _SIGNS) * ainv[..., 1:, 1:]


def _couplings(alpha: float, ainv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map the inverted 3x3 response(s) onto M (..., 2, 2) and zeta (..., 2, 3).

    M as in _generator; zeta_p = -i root ainv[1, :] and zeta_s =
    i root ainv[2, :], with root = sqrt(strength).
    """
    root = np.sqrt(alpha * GAMMA / (4 * LENGTH))
    zeta = np.array([[-1j * root], [1j * root]]) * ainv[..., 1:, :]
    return _generator(alpha, ainv), zeta


def generator_sweep(params: SystemParams, alphas: np.ndarray, omega: float = 0.0) -> np.ndarray:
    """M at one frequency on a 1-D array of optical depths, shape (n, 2, 2).

    M is linear in the optical depth and the 3x3 response does not
    depend on it, so one condition test and one inverse serve the whole
    grid; ``params.alpha`` is only validated.  Row k equals the
    generator solve_susceptibilities gives at alphas[k] bit for bit.
    Raises SingularSystem like solve_susceptibilities.
    """
    return _generator(np.asarray(alphas, dtype=float), _inverse_response(params, omega))


def solve_susceptibility_stack(params: SystemParams, omegas: np.ndarray) -> SpectralStack:
    """Numeric elimination of the atomic coherences on a 1-D array of frequencies.

    One stacked condition test and one stacked inverse serve all of
    them; raises SingularSystem like solve_susceptibilities, naming the
    first ill-conditioned frequency.
    """
    omegas = np.asarray(omegas, dtype=float)
    generator, zeta = _couplings(params.alpha, _inverse_response(params, omegas))
    return SpectralStack(generator=generator, zeta=zeta, omega=omegas)


def solve_susceptibilities(params: SystemParams, omega: float) -> SpectralCoefficients:
    """Numeric elimination of the atomic coherences at one frequency.

    Works for arbitrary validated parameters (asymmetric Rabi
    frequencies, unequal decays, ground-state dephasing).  Raises
    SingularSystem when the response matrix is ill-conditioned beyond
    COND_LIMIT, which signals a physically degenerate configuration
    (e.g. both Rabi frequencies and the dephasing vanish at omega = 0).
    The one-frequency view of solve_susceptibility_stack.
    """
    generator, zeta = _couplings(params.alpha, _inverse_response(params, omega))
    return SpectralCoefficients(
        lambda_p=generator[0, 0],
        lambda_s=generator[1, 1],
        kappa_p=generator[0, 1],
        kappa_s=generator[1, 0],
        zeta_p=dict(zip(NOISE_INDICES, zeta[0])),
        zeta_s=dict(zip(NOISE_INDICES, zeta[1])),
        omega=omega,
    )


def eit_denominator(params: SystemParams, omega: float) -> complex:
    """The common denominator G(omega) of the symmetric-case closed forms."""
    mag2 = abs(params.omega_c) * abs(params.omega_d)
    return (GAMMA / 2 + 1j * omega) * (2j * GAMMA * omega - 4 * omega**2 + 2 * mag2)


def closed_form_coefficients(params: SystemParams, omega: float) -> SpectralCoefficients:
    """Symmetric-case closed forms for all eight coefficients.

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
    zeta_p = {
        21: root * (-2j * omega * np.conj(oc) - GAMMA * np.conj(oc)) / g,
        31: root * (4j * omega**2 + 2 * GAMMA * omega - 1j * abs(od) ** 2) / g,
        41: root * (1j * np.conj(oc) * od) / g,
    }
    zeta_s = {
        21: root * (GAMMA * np.conj(od) + 2j * omega * np.conj(od)) / g,
        31: root * (-1j * oc * np.conj(od)) / g,
        41: root * (-2 * GAMMA * omega - 4j * omega**2 + 1j * abs(oc) ** 2) / g,
    }
    return SpectralCoefficients(
        lambda_p=lambda_p,
        lambda_s=-lambda_p,
        kappa_p=kappa_p,
        kappa_s=strength * (oc * np.conj(od)) / g,
        zeta_p=zeta_p,
        zeta_s=zeta_s,
        omega=omega,
    )
