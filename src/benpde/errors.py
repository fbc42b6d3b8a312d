"""Exception types shared across the package.

Every numerical failure carries enough state to diagnose it: residuals,
iteration counts or step indices.  ``minimize`` returns its failure next to
the last iterate; other callers can catch the specific type.
"""

from __future__ import annotations


class BenpdeError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteInputError(BenpdeError, ValueError):
    """An input array contained NaN or +/-inf components."""


class ConjugateSolveError(BenpdeError, RuntimeError):
    """The dual (conjugate) solve did not reach its residual tolerance.

    Attributes
    ----------
    residual : float
        Residual norm at the last iterate.
    iterations : int
        Number of iterations performed.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = float(residual)
        self.iterations = int(iterations)


class ModelEvaluationError(BenpdeError, RuntimeError):
    """A model term produced non-finite output; message records where."""


class LineSearchError(BenpdeError, RuntimeError):
    """Backtracking line search stalled before the tolerances were met."""


class TimeStepError(BenpdeError, RuntimeError):
    """An implicit time step failed to converge.

    Attributes
    ----------
    step_index : int
        Index k of the failing step (advancing state k -> k+1).
    residual : float
        Newton residual norm at the last iterate of that step.
    """

    def __init__(self, message: str, step_index: int, residual: float):
        super().__init__(message)
        self.step_index = int(step_index)
        self.residual = float(residual)


class ConfigError(BenpdeError, ValueError):
    """A run configuration is unparsable or invalid; message names the key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key
