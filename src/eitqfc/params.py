"""Dimensionless physical configuration of the backward FWM medium.

Every rate is expressed in units of the spontaneous decay rate Gamma
(Gamma := 1) and every length in units of the medium length L (L := 1),
so the optical depth ``alpha`` is the only strength knob left in the
symmetric configuration.

The model linearizes around an undepleted ground state (weak-probe
perturbation); no quantitative probe-power threshold is enforced, so
every validated parameter set is accepted under that assumption.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import NegativeOD, NonFiniteParameter, NonPositiveDecay

#: Unit conventions: all rates are measured in units of GAMMA, all
#: per-length coefficients in units of 1/LENGTH.
GAMMA = 1.0
LENGTH = 1.0

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Immutable parameter set for the four-level FWM medium.

    alpha     -- optical depth (dimensionless, >= 0)
    omega_c   -- coupling Rabi frequency, units of Gamma (may be complex)
    omega_d   -- driving Rabi frequency, units of Gamma (may be complex)
    gamma31   -- probe-transition coherence decay, units of Gamma (> 0)
    gamma41   -- signal-transition coherence decay, units of Gamma (> 0)
    gamma21   -- ground-state dephasing, units of Gamma (>= 0)
    """

    alpha: float
    omega_c: complex = 1.0
    omega_d: complex = 1.0
    gamma31: float = 1.0
    gamma41: float = 1.0
    gamma21: float = 0.0


_FIELDS = ("alpha", "omega_c", "omega_d", "gamma31", "gamma41", "gamma21")


def validate(params: SystemParams) -> SystemParams:
    """Check the parameter invariants, returning the params unchanged.

    Raises NonFiniteParameter if a field is NaN or infinite, NegativeOD
    if alpha < 0 and NonPositiveDecay if gamma31 or gamma41 is not
    strictly positive (gamma21 only has to be >= 0).  Idempotent by
    construction.
    """
    for name in _FIELDS:
        value = getattr(params, name)
        if not cmath.isfinite(value):
            raise NonFiniteParameter(f"{name} must be finite, got {value}")
    if params.alpha < 0:
        raise NegativeOD(f"optical depth must be >= 0, got {params.alpha}")
    if params.gamma31 <= 0 or params.gamma41 <= 0:
        raise NonPositiveDecay(
            f"gamma31 and gamma41 must be > 0, got {params.gamma31}, {params.gamma41}"
        )
    if params.gamma21 < 0:
        raise NonPositiveDecay(f"gamma21 must be >= 0, got {params.gamma21}")
    return params


def is_symmetric(params: SystemParams) -> bool:
    """True iff the closed-form coefficient formulas apply.

    Requires |omega_c| = |omega_d|, gamma31 = gamma41 = Gamma and
    gamma21 = 0.  Invariant under a common phase rotation of the two
    Rabi frequencies, since only magnitudes are compared.
    """
    return (
        abs(abs(params.omega_c) - abs(params.omega_d)) <= _SYM_TOL
        and abs(params.gamma31 - GAMMA) <= _SYM_TOL
        and abs(params.gamma41 - GAMMA) <= _SYM_TOL
        and abs(params.gamma21) <= _SYM_TOL
    )


def symmetric_params(alpha: float, omega: complex = 1.0) -> SystemParams:
    """Convenience constructor for the symmetric configuration."""
    return validate(SystemParams(alpha=alpha, omega_c=omega, omega_d=omega))
