"""Exception types shared across the package.

Every error carries its message alone, which names where it happened (the
slice, time step, config key or sample) and any residual it stopped at;
``minimize`` returns its failure next to the last iterate.
"""

from __future__ import annotations


class BenpdeError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteInputError(BenpdeError, ValueError):
    """An input array contained NaN or +/-inf components."""


class ConjugateSolveError(BenpdeError, RuntimeError):
    """The dual (conjugate) solve did not reach its residual tolerance."""


class ModelEvaluationError(BenpdeError, RuntimeError):
    """A model term produced non-finite output; message records where."""


class LineSearchError(BenpdeError, RuntimeError):
    """Backtracking line search stalled before the tolerances were met."""


class TimeStepError(BenpdeError, RuntimeError):
    """An implicit time step failed to converge; message names the step."""


class ConfigError(BenpdeError, ValueError):
    """A run configuration is unparsable or invalid; message names the key."""
