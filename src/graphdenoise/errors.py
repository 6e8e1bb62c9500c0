"""Exception types shared across the library."""


class GraphDenoiseError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(GraphDenoiseError, ValueError):
    """An argument violates a documented precondition."""


class GraphDisconnectedError(GraphDenoiseError):
    """A constructed graph has more than one connected component."""

    def __init__(self, message, components=None):
        super().__init__(message)
        # list of vertex-id lists, one per component
        self.components = components if components is not None else []


class TooLargeError(GraphDenoiseError):
    """A dense reference computation was refused for an oversized graph."""


class NotPositiveDefiniteError(GraphDenoiseError):
    """A linear operator required to be SPD is singular or indefinite."""


class SingularSystemError(GraphDenoiseError):
    """A restricted linear system has no unique solution."""


class DegenerateSignalError(GraphDenoiseError):
    """The signal carries no usable information for the requested estimate."""


class NumericalFailureError(GraphDenoiseError):
    """An iteration produced NaN/Inf or diverged; carries diagnostics."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ConvergenceError(GraphDenoiseError):
    """An iterative solver hit its iteration cap; carries the best iterate.

    ``report`` is a :class:`~graphdenoise.result.DenoiseResult` with
    ``converged=False``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
