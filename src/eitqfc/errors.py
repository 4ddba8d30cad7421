"""Exception types raised by the simulation layers.

All errors derive from :class:`QfcError` so callers can catch the whole
family with one handler (the CLI maps them to exit code 3).
"""


class QfcError(Exception):
    """Base class for all simulation errors."""


class NegativeOD(QfcError):
    """Optical depth below zero."""


class NonPositiveDecay(QfcError):
    """A coherence decay rate that must be strictly positive is not."""


class NonFiniteParameter(QfcError):
    """A physical parameter is NaN or infinite."""


class SingularSystem(QfcError):
    """The 3x3 atomic response matrix is singular or too ill-conditioned."""


class NotSymmetricCase(QfcError):
    """Closed-form coefficients requested outside their validity domain."""


class SingularG(QfcError):
    """The common denominator G(omega) vanished (only at Omega=0, omega=0)."""


class IllPosedBoundary(QfcError):
    """|D'| too small: the backward boundary re-solve would divide by ~0."""


class ShootingFailure(QfcError):
    """Linear shooting step for the backward signal amplitude is singular."""


class NonConvergedIntegral(QfcError):
    """Grid doubling did not stabilize a noise integral."""


class TruncationOverflow(QfcError):
    """A state occupies the top of the truncated Fock basis; results untrustworthy."""


class DimensionTooSmall(QfcError):
    """Fock-space dimension insufficient for the requested construction."""


class ConfigError(QfcError):
    """Invalid configuration file or CLI parameter combination."""
