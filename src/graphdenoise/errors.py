"""Exception types shared across the library, and its one overflow rule."""

from contextlib import contextmanager

import numpy as np

__all__ = [
    "GraphDenoiseError",
    "InvalidArgumentError",
    "GraphDisconnectedError",
    "TooLargeError",
    "NotPositiveDefiniteError",
    "DegenerateSignalError",
    "NumericalFailureError",
]


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


class DegenerateSignalError(GraphDenoiseError):
    """The signal carries no usable information for the requested estimate."""


class NumericalFailureError(GraphDenoiseError):
    """An iteration produced NaN/Inf or diverged."""


class NotPositiveDefiniteError(NumericalFailureError):
    """A linear operator required to be SPD is singular or indefinite."""


@contextmanager
def overflow_guard(what: str):
    """Overflow, NaN or any FloatingPointError in the block is a numerical failure."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalFailureError(f"{what} failed: {exc}") from None
