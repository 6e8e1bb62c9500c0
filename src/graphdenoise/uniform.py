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

from .errors import InvalidArgumentError, NumericalFailureError, overflow_guard
from .graphs import Graph, as_signal, check_kappa, dirichlet_energy
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
_EXPANSION_MAX = 1e12
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _box(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (lower, upper) bounds an observation puts on the signal.

    g(a) > 0 pins f(a) to [g(a), inf); g(a) < 0 to (-inf, g(a)];
    g(a) = 0 fixes f(a) = 0.  The observation itself is always feasible.
    """
    lower = np.where(g > 0, g, -np.inf)
    upper = np.where(g < 0, g, np.inf)
    zero = g == 0.0
    return np.where(zero, 0.0, lower), np.where(zero, 0.0, upper)


def _start(g: np.ndarray, box) -> np.ndarray:
    """Scale the observation slightly off the box boundary."""
    return np.clip(g * (1.0 + STRICT_INIT_MARGIN), *box)


def uniform_loss(f, graph: Graph, kappa: float) -> float:
    """Negative log posterior kappa * f'Lf + sum log|f(a)|.

    Entries equal to exactly zero are the model's fixed points and are
    excluded from the log sum.
    """
    f = as_signal(f, graph.n)
    check_kappa(kappa)
    if not np.all(np.isfinite(f)):
        raise InvalidArgumentError("signal must be finite")
    nz = f != 0.0
    # numpy arithmetic, so an overflow follows the caller's error state
    energy = kappa * np.float64(dirichlet_energy(graph, f))
    return float(energy + np.sum(np.log(np.abs(f[nz]))))


def minimize_box_qp(
    graph: Graph,
    kappa: float,
    linear: np.ndarray,
    box: tuple[np.ndarray, np.ndarray],
    x0: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Minimize kappa * x'Lx + c'x over the box (lower, upper), starting
    from a feasible x0.

    MPRGP, modified proportioning with reduced gradient projections
    (Dostál & Schöberl, Comput. Optim. Appl. 2005).  Each step is one of:

    - a conjugate gradient step on the face of free entries, taken when it
      stays in the box;
    - an expansion step, when it would not: to the box along the CG
      direction, then a projected step along the free gradient of fixed
      length 2 / ||2 kappa L||, the norm bounded by Gershgorin's
      2 kappa * 2 * max degree, and the length by 1e12;
    - a proportioning step along the chopped gradient, cut at the box, when
      the bound entries whose gradient points into the box outweigh the
      free gradient.

    Every step decreases the objective, so the value at the returned point
    never exceeds the value at ``x0``; a direction of zero curvature goes to
    the box.  Terminates when the unit-step projected gradient is below the
    larger of 1e-8 (scaled by the linear term) and the round-off floor of
    the computed h * L x, h = 2 kappa, or after 20000 steps.  A row of L has
    at most m nonzeros, whose absolute values sum to 2 d_i, so each entry of
    the computed L x is off by at most gamma_m * 2 d_max max|x|, with
    gamma_m = m u / (1 - m u) and u the unit round-off (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, section 3.1).  With the
    scaling by h, (m + 2) u * h * 2 d_max max|x|, max|x| taken at the start,
    bounds the error to first order in u.  Below it the projected gradient
    is round-off, and a stop that asks for less is met only at the cap
    (Dostál, *Optimal Quadratic Programming Algorithms*, 2009, on MPRGP's
    stopping rule).  Returns the point and the number of steps taken.
    Raises :class:`NumericalFailureError` if 2*kappa, or a gradient or
    curvature built from it, overflows, and :class:`InvalidArgumentError`
    if the objective is unbounded below on the box.
    """
    h = 2.0 * kappa  # the objective's Hessian is h * L
    if not np.isfinite(h):
        raise NumericalFailureError(f"box QP curvature 2*kappa overflows ({kappa!r})")
    lower, upper = box
    x = np.clip(np.asarray(x0, dtype=np.float64), lower, upper)
    c = linear
    lap = graph.laplacian

    def project(v):
        """v clipped to the box, in place."""
        np.maximum(v, lower, out=v)
        return np.minimum(v, upper, out=v)

    def curvature(d):
        hd = lap @ d
        hd *= h
        dhd = float(np.dot(d, hd))
        # the sparse product raises no floating-point error of its own
        if not np.isfinite(dhd):
            raise FloatingPointError("overflow in the Laplacian product")
        return hd, dhd

    def cut(d, t):
        """The step t along -d, cut where it would leave the box."""
        # both rooms are >= +0, so a zero room in the direction of travel
        # reads +inf and one behind it -inf; inf room, 0/0 at a fixed entry
        # (nan, which fmax skips) and a ratio past the float range all have
        # their limit meaning here
        with np.errstate(all="ignore"):
            most = np.fmax.reduce(np.fmax(d / (x - lower), -d / (upper - x)))
        if most > 0.0:
            t = min(t, 1.0 / most)
        if not np.isfinite(t):
            raise InvalidArgumentError("box QP objective is unbounded below")
        return t

    def face():
        """Float masks of the free entries and of the bound ones."""
        free = ((lower < x) & (x < upper)).astype(np.float64)
        return free, 1.0 - free

    steps = 0
    with overflow_guard("box QP arithmetic"):
        d_max = float(graph.degrees.max())
        # the round-off floor of h * L x (see the docstring), in numpy
        # floats so that an overflow raises
        gamma = np.float64((np.diff(lap.indptr).max() + 2) * _UNIT_ROUNDOFF)
        floor = gamma * h * 2.0 * d_max * float(np.max(np.abs(x)))
        tol = max(_BOX_QP_TOL * max(1.0, float(np.max(np.abs(c)))), float(floor))
        # at most 1e12, so that it stays finite for a subnormal kappa
        expansion = min(1.0 / (h * d_max), _EXPANSION_MAX)
        grad = h * (lap @ x) + c
        free, bound = face()
        r, phi, chopped, work, y = (np.empty_like(x) for _ in range(5))
        p = None  # the CG direction; None restarts it at the free gradient
        while steps < _BOX_QP_MAX_ITER:
            np.subtract(x, grad, out=r)
            np.subtract(x, project(r), out=r)
            if max(r.max(), -r.min()) <= tol:
                break
            steps += 1
            np.multiply(grad, free, out=phi)
            # at a bound entry r is the chopped gradient
            np.multiply(r, bound, out=chopped)
            bb = float(np.dot(chopped, chopped))
            if bb > 0.0:
                # the reduced free gradient, times the expansion length
                np.multiply(phi, -expansion, out=work)
                work += x
                np.subtract(x, project(work), out=work)
                if bb * expansion > float(np.dot(work, phi)):
                    hd, dhd = curvature(chopped)
                    exact = float(np.dot(grad, chopped)) / dhd if dhd > 0.0 else np.inf
                    t = cut(chopped, exact)
                    x = project(x - t * chopped)
                    grad -= t * hd
                    free, bound = face()
                    p = None
                    continue
            if p is not None:
                p *= -float(np.dot(phi, hp)) / php
                p += phi
                gp = float(np.dot(grad, p))
            if p is None or not gp > 0.0:
                # a restart, or round-off has turned the CG direction uphill
                p = phi.copy()
                gp = float(np.dot(grad, p))
            hp, php = curvature(p)
            # a curvature too small for the quotient counts as none
            t = gp / php if php > 0.0 else np.inf
            if t < np.inf:
                np.multiply(p, -t, out=y)
                y += x
                if (y >= lower).all() and (y <= upper).all():
                    x, y = y, x
                    np.multiply(hp, t, out=work)
                    grad -= work
                    continue
            # expansion: to the box along p, then the fixed projected step
            t = cut(p, np.inf)
            x = project(x - t * p)
            grad -= t * hp
            free, bound = face()
            x = project(x - expansion * (grad * free))
            grad = h * (lap @ x) + c
            free, bound = face()
            p = None
    return x, steps


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
) -> tuple[DenoiseResult, DescentTrace]:
    """Convex-concave procedure for the uniform-noise posterior.

    Each outer step minimizes kappa * f'Lf + sum f(a)/|f_t(a)| over the box,
    warm-started at the previous iterate, which guarantees the true loss is
    nonincreasing.  Stops when the loss change drops below
    ``tol * |loss(f0)|`` or after 50 steps; non-convergence, including a
    last inner QP stopped at its step cap, is reported through the
    ``converged`` flag, not an exception.  The start is the observation
    moved 1e-3 into the box.
    """
    g = as_signal(g_signal, graph.n)
    check_kappa(kappa)
    start = time.perf_counter()
    box = _box(g)
    # an overflow in a loss or in the log term's 1/f, as from a subnormal
    # observation, is a numerical failure
    with overflow_guard("uniform CCP"):
        f = _start(g, box)
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
    An overflow in the start, a step or a loss, as from a subnormal
    observation's 1/f, is a :class:`NumericalFailureError`.
    """
    g = as_signal(g_signal, graph.n)
    check_kappa(kappa)
    if step is None:
        lmax_bound = 2.0 * float(graph.degrees.max())
        step = min(1.0, 1.0 / (2.0 * kappa * lmax_bound))
    if not step > 0:
        raise InvalidArgumentError("step must be positive")
    start = time.perf_counter()
    box = _box(g)
    with overflow_guard("projected gradient"):
        f = _start(g, box)
        best = f.copy()
        losses = [uniform_loss(f, graph, kappa)]
        best_loss = losses[0]
        threshold = tol * abs(losses[0])
        converged = False
        for _ in range(max_iter):
            grad = 2.0 * kappa * (graph.laplacian @ f) + _log_term_gradient(f)
            f = np.clip(f - step * grad, *box)
            # the sparse product raises no floating-point error of its own
            if not np.all(np.isfinite(f)):
                raise FloatingPointError("overflow in the Laplacian product")
            loss = uniform_loss(f, graph, kappa)
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
