"""Exception types raised by the simulation layers, and the one rule that names a failing grid row.

All errors derive from :class:`QfcError` so callers can catch the whole
family with one handler (the CLI maps them to exit code 3).  Every grid
check, in the sweeps, the noise kernels and the CLI, reports through
``first_failure``.
"""

import copy

import numpy as np


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


def at(value: float, exc: QfcError, name: str = "alpha") -> QfcError:
    """A copy of the error, every attribute kept, its message prefixed by the failing row's ``name``=value."""
    located = copy.copy(exc)
    located.args = (f"at {name}={float(value)!r}: {exc}",)
    return located


def first_failure(grid: np.ndarray, checks, name: str = "alpha") -> tuple[int, QfcError | None]:
    """The number of rows before the first failing one, and that row's error.

    ``checks`` pairs a boolean mask over the grid with a function of the
    row index that builds the error, in the order the checks apply
    within one row.  The error names the failing grid value as
    ``name``=value, and is None when no row fails.
    """
    bad = np.zeros(grid.shape, dtype=bool)
    for mask, _ in checks:
        bad |= mask
    if not bad.any():
        return grid.size, None
    k = int(np.flatnonzero(bad)[0])
    error = next(make(k) for mask, make in checks if mask[k])
    return k, at(grid[k], error, name)
