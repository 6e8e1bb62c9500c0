"""Denoising of uniform-scaling noise g(a) = u(a) f(a), u ~ Unif[0,1].

The negative log posterior

    loss(f) = kappa * f'Lf + sum_a log|f(a)|

is minimized over the box region where every entry keeps the observed sign
and at least the observed magnitude (entries observed as exactly zero stay
zero).  The loss is a convex quadratic plus a concave log term, so the main
solver is a convex-concave procedure: linearize the log term at the current
iterate and solve the resulting box-constrained quadratic program.  A plain
projected-gradient minimizer of the same loss is provided for benchmarking.
Both pose it over max(1, kappa) by :func:`~graphdenoise.graphs.check_kappa`.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import InvalidArgumentError, overflow_guard
from .graphs import Graph, as_signal, check_kappa, check_tol, dirichlet_energy
from .result import DenoiseResult, DescentTrace

__all__ = [
    "uniform_loss",
    "ccp_denoise",
    "projected_gradient_denoise",
    "minimize_box_qp",
]

STRICT_INIT_MARGIN = 1e-3
# outer-step cap and inner forcing term of the CCP (see ccp_denoise)
_CCP_MAX_OUTER = 50
_CCP_FORCING = 0.1
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
    check_kappa(kappa)
    return _scaled_loss(as_signal(f, graph.n), graph, 1.0, kappa)


def _scaled_loss(f: np.ndarray, graph: Graph, a: float, b: float) -> float:
    """b * f'Lf + a * sum log|f|: at check_kappa(kappa), the loss / max(1, kappa)."""
    nz = f != 0.0
    # numpy arithmetic, so an overflow follows the caller's error state
    energy = b * np.float64(dirichlet_energy(graph, f))
    return float(energy + a * np.sum(np.log(np.abs(f[nz]))))


def minimize_box_qp(
    graph: Graph,
    kappa: float,
    linear: np.ndarray,
    box: tuple[np.ndarray, np.ndarray],
    x0: np.ndarray,
    *,
    tol: float = _BOX_QP_TOL,
    forcing: float = 0.0,
) -> tuple[np.ndarray, int]:
    """Minimize kappa * x'Lx + c'x over the box (lower, upper), starting
    from a feasible x0, posed as b * x'Lx + a * c'x, (a, b) = check_kappa
    (kappa): the objective over max(1, kappa), with Hessian h * L, h = 2b.

    MPRGP, modified proportioning with reduced gradient projections
    (Dostál & Schöberl, Comput. Optim. Appl. 2005).  Each step is one of:

    - a conjugate gradient step on the face of free entries, taken when it
      stays in the box;
    - an expansion step, when it would not: to the box along the CG
      direction, then a projected step along the free gradient of fixed
      length 2 / ||h L||, the norm bounded by Gershgorin's
      h * 2 * max degree, and the length by 1e12;
    - a proportioning step along the chopped gradient, cut at the box, when
      the bound entries whose gradient points into the box outweigh the
      free gradient.

    Every step decreases the objective, so the value at the returned point
    never exceeds the value at ``x0``; a direction of zero curvature goes to
    the box.  Terminates when the unit-step projected gradient is below the
    larger of ``tol`` (scaled by a and by the linear term), ``forcing``
    times its value at the start point, and the round-off floor of the
    computed h * L x, or after 20000 steps.  The defaults, 1e-8 and no
    forcing term, solve the QP itself; the CCP asks for less
    (:func:`ccp_denoise`).  A row of L has
    at most m nonzeros, whose absolute values sum to 2 d_i, so each entry of
    the computed L x is off by at most gamma_m * 2 d_max max|x|, with
    gamma_m = m u / (1 - m u) and u the unit round-off (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, section 3.1).  With the
    scaling by h, (m + 2) u * h * 2 d_max max|x|, max|x| taken at the start,
    bounds the error to first order in u.  Below it the projected gradient
    is round-off, and a stop that asks for less is met only at the cap
    (Dostál, *Optimal Quadratic Programming Algorithms*, 2009, on MPRGP's
    stopping rule).  Returns the point and the number of steps taken.
    Raises :class:`NumericalFailureError` if a gradient or curvature
    overflows, and :class:`InvalidArgumentError` if the objective is
    unbounded below on the box.
    """
    a, b = check_kappa(kappa)
    check_tol(tol)
    if not 0.0 <= forcing < 1.0:
        raise InvalidArgumentError(f"forcing must be in [0, 1), got {forcing}")
    h = 2.0 * b  # the objective's Hessian is h * L
    lower, upper = box
    x = np.clip(as_signal(x0, graph.n), lower, upper)
    c = a * as_signal(linear, graph.n)
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
        stop = max(tol * max(a, float(np.max(np.abs(c)))), float(floor))
        # at most 1e12, so that it stays finite for a subnormal kappa
        expansion = min(1.0 / (h * d_max), _EXPANSION_MAX)
        grad = h * (lap @ x) + c
        free, bound = face()
        r, phi, chopped, work, y = (np.empty_like(x) for _ in range(5))
        p = None  # the CG direction; None restarts it at the free gradient
        while steps < _BOX_QP_MAX_ITER:
            np.subtract(x, grad, out=r)
            np.subtract(x, project(r), out=r)
            residual = max(r.max(), -r.min())
            if steps == 0:
                stop = max(stop, forcing * residual)
            if residual <= stop:
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


def _loss_change(f: np.ndarray, f_new: np.ndarray, graph: Graph, a: float, b: float):
    """The change of the loss over max(1, kappa) from f to f_new, as a
    difference, and a bound on its rounding error (see :func:`ccp_denoise`)."""
    d = f_new - f
    mid = 0.5 * f + 0.5 * f_new
    nz = f != 0.0
    ratio = d[nz] / f[nz]
    logs = np.log1p(ratio)
    change = 2.0 * b * float(np.dot(d, graph.laplacian @ mid)) + a * float(np.sum(logs))
    # the sparse product raises no floating-point error of its own
    if not np.isfinite(change):
        raise FloatingPointError("overflow in the loss change")
    k = graph.n + int(np.diff(graph.laplacian.indptr).max()) + 6
    gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    energy = 4.0 * b * float(graph.degrees.max()) * float(np.max(np.abs(mid)))
    log_terms = np.abs(d[nz] / f_new[nz]) + np.abs(logs)
    return change, gamma * (energy * float(np.sum(np.abs(d))) + a * float(np.sum(log_terms)))


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
    tol: float = _BOX_QP_TOL,
) -> tuple[DenoiseResult, DescentTrace]:
    """Convex-concave procedure for the uniform-noise posterior.

    Each outer step minimizes kappa * f'Lf + sum f(a)/|f_t(a)| over the box,
    posed over max(1, kappa) by :func:`minimize_box_qp` and warm-started at
    the previous iterate f_t: a convex majorizer of the loss, so the true
    loss is nonincreasing.  Its ``trace`` holds :func:`uniform_loss`
    divided by max(1, kappa), at the start and after each step (below).
    The start is the observation moved 1e-3 into the box.

    The stop is a stationarity certificate.  The QP at f_t starts with
    gradient 2b * L f_t + a / f_t, the gradient of the loss itself, so its
    stop test at its start point is the test that f_t is a KKT point of the
    loss: unit-step projected gradient at most ``tol`` times a * max(1,
    max 1/|f_t|), or the round-off floor of the computed Laplacian product.
    A QP that takes 0 steps therefore certifies f_t; it is not counted as
    a step, and the result is ``converged=True``.

    Every other QP stops once its projected gradient falls to 0.1 times
    its value at f_t (or to the QP's own stop, if that is larger).  An
    inexact step still lowers the majorizer, which is all the descent
    needs (Lipp & Boyd, "Variations and extension of the convex-concave
    procedure", Optim. Eng. 2016); the stop relative to the outer residual
    is the forcing term of inexact Newton methods (Eisenstat & Walker, SIAM
    J. Sci. Comput. 1996).  Polishing a QP that the next step replaces is
    wasted work.

    Each step's loss change is computed as a difference, 2b d'L m + a sum
    log1p(d / f_t) with d = f_t+1 - f_t and m = f_t/2 + f_t+1/2, and
    ``trace`` adds it to its previous entry.  Two losses evaluated apart
    agree only to about u |loss|, u the unit round-off, which a CCP reaches
    long before its certificate; the difference stays accurate to about
    the QP's floor.  A step whose change is above 0 keeps the previous
    iterate and ends the procedure, so ``trace`` is nonincreasing.  The
    change is a tie, ``converged=True``, when it is within its rounding
    error bound; above it, a stall, ``converged=False``, as is reaching
    the cap of 50 outer steps.  The bound, to first order in u: an entry of
    L m sums at most r terms, r the most nonzeros in a row of L, whose
    absolute values sum to at most 2 d_max max|m|; with the roundings of d,
    m and the product, each term of d'L m is off by gamma_(r+3) |d_i| 2 d_max
    max|m|, and the sum of n terms adds gamma_(n-1) of the same.  d / f_t
    carries two roundings, which move log1p by at most gamma_2 |d_i /
    f_t+1(i)|, log1p itself one ulp of its value, and the sum gamma_(n-1).
    So the error is at most gamma_k (4b d_max max|m| sum |d| + a sum (|d /
    f_t+1| + |log1p(d / f_t)|)), with gamma_k = k u / (1 - k u) and k = n +
    r + 6, the scalings and the last addition included (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, sections 3.1 and 3.5).
    ``tol`` must be finite and positive.  The trace's ``wall_time_s``
    holds the seconds elapsed at each loss in ``trace``, its last entry
    the whole solve's.
    """
    g = as_signal(g_signal, graph.n)
    a, b = check_kappa(kappa)
    check_tol(tol)
    start = time.perf_counter()
    box = _box(g)
    # an overflow in a loss or in the log term's 1/f, as from a subnormal
    # observation, is a numerical failure
    with overflow_guard("uniform CCP"):
        f = _start(g, box)
        losses = [_scaled_loss(f, graph, a, b)]
        times = [time.perf_counter() - start]
        inner_counts: list[int] = []
        converged = False
        for _ in range(_CCP_MAX_OUTER):
            coeff = _log_term_gradient(f)
            f_new, inner = minimize_box_qp(
                graph, kappa, coeff, box, f, tol=tol, forcing=_CCP_FORCING
            )
            change, error = _loss_change(f, f_new, graph, a, b)
            if change > 0.0:
                # keep the current iterate; a tie up to round-off, or a stall
                converged = change <= error
                break
            if inner == 0:
                converged = True  # f passed the QP's stop test: stationary
                break
            f = f_new
            inner_counts.append(inner)
            losses.append(losses[-1] + change)
            times.append(time.perf_counter() - start)
    times[-1] = time.perf_counter() - start
    trace = DescentTrace(inner_iterations=tuple(inner_counts), wall_time_s=tuple(times))
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

    Fixed step along 2b * Lf + a / f, the gradient of the loss over
    max(1, kappa) that ``trace`` holds, projection onto the per-vertex
    intervals after every move.  ``step=None`` takes min(1, 1 / (2b * 2 *
    max degree)), stable as 2 * max degree bounds L's eigenvalues (Gershgorin).
    Not a guaranteed descent method; the best iterate seen is what is
    returned, so the reported loss never exceeds the initialization's.
    ``converged`` means only that the loss changed by at most ``tol`` (finite
    and positive) times its start value in one step; ``wall_time_s`` is
    kept as :func:`ccp_denoise` keeps it.  An overflow in the start, a step
    or a loss, as from a subnormal observation's 1/f, is a
    :class:`NumericalFailureError`.
    """
    g = as_signal(g_signal, graph.n)
    a, b = check_kappa(kappa)
    check_tol(tol)
    if step is None:
        lmax_bound = 2.0 * float(graph.degrees.max())
        step = min(1.0, 1.0 / (2.0 * b * lmax_bound))
    if not step > 0:
        raise InvalidArgumentError("step must be positive")
    start = time.perf_counter()
    box = _box(g)
    with overflow_guard("projected gradient"):
        f = _start(g, box)
        best = f.copy()
        losses = [_scaled_loss(f, graph, a, b)]
        best_loss = losses[0]
        times = [time.perf_counter() - start]
        threshold = tol * abs(losses[0])
        converged = False
        for _ in range(max_iter):
            grad = 2.0 * b * (graph.laplacian @ f) + a * _log_term_gradient(f)
            f = np.clip(f - step * grad, *box)
            # the sparse product raises no floating-point error of its own
            if not np.all(np.isfinite(f)):
                raise FloatingPointError("overflow in the Laplacian product")
            loss = _scaled_loss(f, graph, a, b)
            losses.append(loss)
            times.append(time.perf_counter() - start)
            if loss < best_loss:
                best, best_loss = f.copy(), loss
            if abs(losses[-2] - losses[-1]) <= threshold:
                converged = True
                break
    times[-1] = time.perf_counter() - start
    trace = DescentTrace(wall_time_s=tuple(times))
    result = DenoiseResult(
        signal=best,
        iterations=len(losses) - 1,
        trace=np.asarray(losses),
        converged=converged,
    )
    return result, trace
