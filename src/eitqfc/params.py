"""Dimensionless physical configuration of the backward FWM medium.

Every rate is expressed in units of the spontaneous decay rate Gamma
(Gamma := 1) and every length in units of the medium length L (L := 1),
so the optical depth ``alpha`` is the only strength knob left in the
symmetric configuration.

A SystemParams checks its invariants when it is built, so no function
that takes one checks it again.  The model linearizes around an
undepleted ground state (weak-probe perturbation); no quantitative
probe-power threshold is enforced, so every SystemParams that can be
built is accepted under that assumption.
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

    def __post_init__(self) -> None:
        """Check the parameter invariants; dataclasses.replace runs them again.

        Raises NonFiniteParameter if a field is NaN or infinite, NegativeOD
        if alpha < 0 and NonPositiveDecay if gamma31 or gamma41 is not
        strictly positive (gamma21 only has to be >= 0).
        """
        for name, value in vars(self).items():
            if not cmath.isfinite(value):
                raise NonFiniteParameter(f"{name} must be finite, got {value}")
        if self.alpha < 0:
            raise NegativeOD(f"optical depth must be >= 0, got {self.alpha}")
        if self.gamma31 <= 0 or self.gamma41 <= 0:
            raise NonPositiveDecay(
                f"gamma31 and gamma41 must be > 0, got {self.gamma31}, {self.gamma41}"
            )
        if self.gamma21 < 0:
            raise NonPositiveDecay(f"gamma21 must be >= 0, got {self.gamma21}")


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
    return SystemParams(alpha=alpha, omega_c=omega, omega_d=omega)
