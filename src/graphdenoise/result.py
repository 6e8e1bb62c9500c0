"""Result containers returned by the denoisers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DenoiseResult", "DescentTrace"]


@dataclass(frozen=True)
class DenoiseResult:
    """Estimated signal plus its convergence trace.

    ``trace`` holds one entry per iteration: relative residuals for
    solver-backed denoisers, loss values for the iterative ones.  It is
    empty for closed-form paths.  ``support`` holds the indices of
    ``signal`` a sparse solve moved, and is None for every other solve.
    """

    signal: np.ndarray
    iterations: int
    trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = True
    support: np.ndarray | None = None


@dataclass(frozen=True)
class DescentTrace:
    """Bookkeeping the descent-style denoisers add to their result.

    Their losses are the result's ``trace``: the loss at the (strictly
    feasible) initialization, then after each outer iteration.
    ``inner_iterations`` records the inner-solver work per outer step; it
    is empty for methods without an inner solver.  ``wall_time_s`` holds
    the seconds elapsed at each loss of the trace, measured as it is
    computed; its last entry is the whole solve's.
    """

    inner_iterations: tuple[int, ...] = ()
    wall_time_s: tuple[float, ...] = ()
