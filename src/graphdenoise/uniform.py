"""Denoising of uniform-scaling noise g(a) = u(a) f(a), u ~ Unif[0,1].

The negative log posterior

    loss(f) = kappa * f'Lf + sum_a log|f(a)|

is minimized over the box region where every entry keeps the observed sign
and at least the observed magnitude (entries observed as exactly zero stay
zero).  The loss is a convex quadratic plus a concave log term, so the main
solver is a convex-concave procedure: linearize the log term at the current
iterate and solve the resulting box-constrained quadratic program.  A plain
projected-gradient minimizer of the same loss is provided for benchmarking.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .graphs import Graph, as_seed, as_signal, dirichlet_energy
from .result import DenoiseResult, DescentTrace

__all__ = [
    "uniform_loss",
    "ccp_denoise",
    "projected_gradient_denoise",
    "minimize_box_qp",
]

STRICT_INIT_MARGIN = 1e-3
# outer-step cap of the CCP (see ccp_denoise)
_CCP_MAX_OUTER = 50
# stopping rule of the CCP inner QP (see minimize_box_qp)
_BOX_QP_TOL = 1e-8
_BOX_QP_MAX_ITER = 20000


def _box(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (lower, upper) bounds an observation puts on the signal.

    g(a) > 0 pins f(a) to [g(a), inf); g(a) < 0 to (-inf, g(a)];
    g(a) = 0 fixes f(a) = 0.  The observation itself is always feasible.
    """
    lower = np.where(g > 0, g, -np.inf)
    upper = np.where(g < 0, g, np.inf)
    zero = g == 0.0
    return np.where(zero, 0.0, lower), np.where(zero, 0.0, upper)


def _start(g: np.ndarray, box, rng=None) -> np.ndarray:
    """Scale the observation slightly off the box boundary, by a per-vertex
    factor in [0.5, 1.5] of the margin when an rng is given."""
    if rng is None:
        margin = STRICT_INIT_MARGIN
    else:
        margin = STRICT_INIT_MARGIN * rng.uniform(0.5, 1.5, size=g.shape)
    return np.clip(g * (1.0 + margin), *box)


def _check_kappa(kappa: float) -> None:
    """The prior weight is a finite positive number."""
    if not 0 < kappa < np.inf:
        raise InvalidArgumentError(f"kappa must be finite and positive, got {kappa}")


def uniform_loss(f, graph: Graph, kappa: float) -> float:
    """Negative log posterior kappa * f'Lf + sum log|f(a)|.

    Entries equal to exactly zero are the model's fixed points and are
    excluded from the log sum.
    """
    f = as_signal(f, graph.n)
    _check_kappa(kappa)
    if not np.all(np.isfinite(f)):
        raise InvalidArgumentError("signal must be finite")
    nz = f != 0.0
    return kappa * dirichlet_energy(graph, f) + float(
        np.sum(np.log(np.abs(f[nz])))
    )


def minimize_box_qp(
    graph: Graph,
    kappa: float,
    linear: np.ndarray,
    box: tuple[np.ndarray, np.ndarray],
    x0: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Minimize kappa * x'Lx + c'x over the box (lower, upper), starting
    from a feasible x0.

    Projected gradient with a Barzilai-Borwein trial step and an exact line
    search along the projected direction; every accepted step decreases the
    objective, so the value at the returned point never exceeds the value
    at ``x0``.  Terminates when the unit-step projected gradient is below
    1e-8 (scaled by the linear term) or after 20000 steps.  Returns the
    point and the number of steps taken.  Raises
    :class:`NumericalFailureError` if 2*kappa, or a gradient or curvature
    built from it, overflows.
    """
    h = 2.0 * kappa  # the objective's Hessian is h * L
    if not np.isfinite(h):
        raise NumericalFailureError(f"box QP curvature 2*kappa overflows ({kappa!r})")
    lower, upper = box
    x = np.clip(np.asarray(x0, dtype=np.float64), lower, upper)
    c = linear
    scale = max(1.0, float(np.max(np.abs(c))))
    step = 1.0
    iters = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            hx = h * (graph.laplacian @ x)
            grad = hx + c
            while iters < _BOX_QP_MAX_ITER:
                stationarity = np.max(np.abs(x - np.clip(x - grad, lower, upper)))
                if stationarity <= _BOX_QP_TOL * scale:
                    break
                d = np.clip(x - step * grad, lower, upper) - x
                dnorm2 = float(np.dot(d, d))
                if dnorm2 == 0.0:
                    break
                hd = h * (graph.laplacian @ d)
                dhd = float(np.dot(d, hd))
                gd = float(np.dot(grad, d))
                if dhd > 0.0:
                    t = min(1.0, -gd / dhd)
                    # Barzilai-Borwein trial step for the next round
                    step = min(max(dnorm2 / dhd, 1e-12), 1e12)
                else:
                    # curvature-free direction: the objective is linear along
                    # d and gd < 0 by the projection inequality, so take the
                    # full step
                    t = 1.0
                if t <= 0.0:
                    break
                x = x + t * d
                hx = hx + t * hd
                grad = hx + c
                iters += 1
    except FloatingPointError as exc:
        raise NumericalFailureError(f"box QP arithmetic failed: {exc}") from None
    return x, iters


def _log_term_gradient(f: np.ndarray) -> np.ndarray:
    """Gradient of sum log|f(a)| at f, with zero-fixed entries masked out."""
    out = np.zeros_like(f)
    nz = f != 0.0
    out[nz] = 1.0 / f[nz]
    return out


def ccp_denoise(
    g_signal,
    graph: Graph,
    kappa: float = 1.0,
    tol: float = 1e-7,
    rng_seed: int | None = None,
) -> tuple[DenoiseResult, DescentTrace]:
    """Convex-concave procedure for the uniform-noise posterior.

    Each outer step minimizes kappa * f'Lf + sum f(a)/|f_t(a)| over the box,
    warm-started at the previous iterate, which guarantees the true loss is
    nonincreasing.  Stops when the loss change drops below
    ``tol * |loss(f0)|`` or after 50 steps; non-convergence, including a
    last inner QP stopped at its step cap, is reported through the
    ``converged`` flag, not an exception.  The start is the observation
    moved 1e-3 into the box, by a per-vertex factor in [0.5, 1.5] drawn
    from ``rng_seed`` (None or a nonnegative integer) when one is given.
    """
    g = as_signal(g_signal, graph.n)
    _check_kappa(kappa)
    start = time.perf_counter()
    box = _box(g)
    rng = None if as_seed(rng_seed) is None else np.random.default_rng(rng_seed)
    f = _start(g, box, rng)
    losses = [uniform_loss(f, graph, kappa)]
    inner_counts: list[int] = []
    threshold = tol * abs(losses[0])
    converged = False
    for _ in range(_CCP_MAX_OUTER):
        coeff = _log_term_gradient(f)
        f_new, inner = minimize_box_qp(graph, kappa, coeff, box, f)
        loss_new = uniform_loss(f_new, graph, kappa)
        # a last inner QP stopped at its cap leaves the fixed point unproven
        finished = inner < _BOX_QP_MAX_ITER
        if loss_new > losses[-1]:
            # inner solver made no usable progress; keep the current iterate.
            # A rise within the stopping threshold is round-off at a fixed
            # point; a larger one is a stall, not convergence.
            converged = finished and loss_new - losses[-1] <= threshold
            break
        f = f_new
        inner_counts.append(inner)
        losses.append(loss_new)
        if abs(losses[-2] - losses[-1]) <= threshold:
            converged = finished
            break
    trace = DescentTrace(
        inner_iterations=tuple(inner_counts),
        wall_time_s=time.perf_counter() - start,
    )
    result = DenoiseResult(
        signal=f,
        iterations=len(inner_counts),
        trace=np.asarray(losses),
        converged=converged,
    )
    return result, trace


def projected_gradient_denoise(
    g_signal,
    graph: Graph,
    kappa: float = 1.0,
    step: float | None = None,
    max_iter: int = 5000,
    tol: float = 1e-7,
) -> tuple[DenoiseResult, DescentTrace]:
    """Projected gradient descent on the uniform-noise posterior.

    Fixed step, projection onto the per-vertex intervals after every move.
    ``step=None`` takes min(1, 1 / (2 * kappa * 2 * max degree)), a stable
    step because 2 * max degree bounds the largest Laplacian eigenvalue
    (Gershgorin).
    Not a guaranteed descent method; the best iterate seen is what is
    returned, so the reported loss never exceeds the initialization's.
    Raises :class:`NumericalFailureError` (carrying the loss trace) if the
    iteration produces NaN or diverges.
    """
    g = as_signal(g_signal, graph.n)
    _check_kappa(kappa)
    if step is None:
        lmax_bound = 2.0 * float(graph.degrees.max())
        step = min(1.0, 1.0 / (2.0 * kappa * lmax_bound))
    if not step > 0:
        raise InvalidArgumentError("step must be positive")
    start = time.perf_counter()
    box = _box(g)
    f = _start(g, box)
    best = f.copy()
    losses = [uniform_loss(f, graph, kappa)]
    best_loss = losses[0]
    threshold = tol * abs(losses[0])
    converged = False
    for _ in range(max_iter):
        grad = 2.0 * kappa * (graph.laplacian @ f) + _log_term_gradient(f)
        f = np.clip(f - step * grad, *box)
        if not np.all(np.isfinite(f)):
            raise NumericalFailureError(
                "projected gradient produced non-finite iterates",
                trace=np.asarray(losses),
            )
        loss = uniform_loss(f, graph, kappa)
        if not np.isfinite(loss):
            raise NumericalFailureError(
                "projected gradient loss diverged", trace=np.asarray(losses)
            )
        losses.append(loss)
        if loss < best_loss:
            best, best_loss = f.copy(), loss
        if abs(losses[-2] - losses[-1]) <= threshold:
            converged = True
            break
    trace = DescentTrace(wall_time_s=time.perf_counter() - start)
    result = DenoiseResult(
        signal=best,
        iterations=len(losses) - 1,
        trace=np.asarray(losses),
        converged=converged,
    )
    return result, trace
