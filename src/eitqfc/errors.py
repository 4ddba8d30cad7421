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
    """A boundary solution that is not finite or has a pivot below BOUNDARY_TOL.

    The pivot is |1/D| (= |D'|) of a resolved matrix, small at a backward
    resonance, or |1 - B1 C2| of a star product of the imbedding.
    """


class NonConvergedIntegral(QfcError):
    """Panel refinement did not bring a noise integral's error estimate below its tolerance."""


class TruncationOverflow(QfcError):
    """A state occupies the top of the truncated Fock basis; results untrustworthy."""


class NonPassiveAmplitude(QfcError, ValueError):
    """A channel amplitude with |c0| above 1 beyond rounding, which no passive medium gives.

    ``row`` is the position of the first such amplitude in the stack the
    channel was given (0 for one amplitude).
    """

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class DimensionTooSmall(QfcError):
    """Fock-space dimension insufficient for the requested construction."""


class ConfigError(QfcError):
    """Invalid configuration file or CLI parameter combination."""
