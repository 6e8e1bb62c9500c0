"""Denoising under additive spectral Gaussian noise.

The estimate is the low-pass filter h(lambda) = 1/(1 + tau*lambda) applied
to the observation, computed by solving (I + tau*L) f = g: exactly by the
2-D DCT on a grid graph, whose Laplacian it diagonalises, and by CG on any
other graph.  The smoothing strength tau = 2*kappa*sigma^2 can be supplied
directly as a tuning knob or estimated from the observed quadratic forms
g'Lg and ||Lg||^2 by the method of moments, read from the edge flows.  The
grid path's DCT is the cached DCT-II matrix
:func:`~graphdenoise.spectral.dct_matrix` that the grid eigenbasis uses,
two matrix products per axis at O(hw(h + w)); the CG path poses a*I + b*L
on the Laplacian's own :class:`~graphdenoise.graphs.CsrMatrix` entries.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DegenerateSignalError, InvalidArgumentError, overflow_guard
from .graphs import CsrMatrix, Graph, as_signal, check_kappa, check_tol, pow2_exponent
from .result import DenoiseResult
from .solvers import cg_solve
from .spectral import dct_matrix, grid_eigenvalues

__all__ = [
    "denoise_gaussian",
    "estimate_tau",
]


def denoise_gaussian(
    g_signal,
    graph: Graph,
    tau: float,
    tol: float = 1e-10,
) -> DenoiseResult:
    """Filter with 1/(1 + tau*lambda): the solution of (I + tau*L) f = g.

    The filter keeps the mean m of g, so the system is posed once, for
    every tau and graph, as f = m + u with (a*I + b*L) u = a*(g - m),
    a = min(1, 1/tau) and b = min(1, tau): no coefficient exceeds 1, and on
    mean-free signals the condition number does not grow with tau.  A grid
    graph's solve is exact, by the 2-D DCT, with no iterations; any other
    is :func:`cg_solve`, to the relative residual ``tol``.  ``tau=0``
    returns the observation, an infinite tau the mean.  The solve runs on g
    scaled by :func:`pow2_exponent`, so only an estimate past the float
    range is a :class:`NumericalFailureError`.
    """
    g = as_signal(g_signal, graph.n)
    if tau < 0 or math.isnan(tau):
        raise InvalidArgumentError("tau must be nonnegative")
    check_tol(tol)  # also where the grid path or tau = 0 runs no CG
    if tau == 0.0:
        return DenoiseResult(signal=g.copy(), iterations=0)
    exp = pow2_exponent(g)
    g = np.ldexp(g, -exp)
    mean = g.mean()
    with overflow_guard("Gaussian filter"):
        if math.isinf(tau):
            return DenoiseResult(signal=np.full(graph.n, np.ldexp(mean, exp)), iterations=0)
        a, b = check_kappa(tau)
        if graph.grid_shape is not None:
            u = _grid_solve(g - mean, graph.grid_shape, a, b)
            return DenoiseResult(signal=np.ldexp(mean + u, exp), iterations=0)
        lap = graph.laplacian
        data = b * lap.data
        data[lap.indices == lap.rows] += a
        fit = cg_solve(CsrMatrix(lap.indptr, lap.indices, data), g - mean, tol=tol)
        return dataclasses.replace(fit, signal=np.ldexp(mean + a * fit.signal, exp))


def _grid_solve(d: np.ndarray, shape: tuple[int, int], a: float, b: float):
    """a*(a*I + b*L)^-1 d on an h x w grid: the DCT-II matrices U_h and U_w
    diagonalise its Laplacian, with :func:`grid_eigenvalues` as the
    spectrum, so the solve is U_h (gain * (U_h' D U_w)) U_w' with the gain
    a/(a + b*lambda) <= 1; the columns' signs cancel.  The transforms are
    orthogonal, so a d below 2 in magnitude cannot overflow them."""
    h, w = shape
    rows, cols = dct_matrix(h), dct_matrix(w)
    gain = a / (a + b * grid_eigenvalues(h, w))
    return (rows @ (gain * (rows.T @ d.reshape(h, w) @ cols)) @ cols.T).ravel()


def estimate_tau(signals, graph: Graph) -> float:
    """Method-of-moments estimate of tau = 2*kappa*sigma^2.

    Accepts one length-n signal or a (k, n) matrix with one signal per row
    (independently generated signals).  A square (n, n) matrix is read as
    n rows; an (n, k) column matrix with k != n is rejected.  The two
    quadratic-form targets g'Lg and ||Lg||^2 are averaged over the k
    signals, so the estimate is consistent as k grows, and (sigma^2,
    1/(2*kappa)) is fitted to them over the nonnegative quadrant: the
    exact 2x2 solve when both are nonnegative, the nearer boundary ray
    otherwise.  g'Lg is read as the edge energy sum w(a,b) (g(a) - g(b))^2,
    so it is never negative, and Lg by summing the edge flows
    w(a,b) (g(a) - g(b)) at their endpoints.  The estimate is scale-free:
    invariant under g -> s*g, and divided by s under w -> s*w for a power
    of two s.  Raises :class:`DegenerateSignalError` when every signal is
    constant.
    """
    given = np.asarray(signals, dtype=np.float64)
    arr = given[None, :] if given.ndim == 1 else given
    if arr.ndim != 2 or arr.shape[1] != graph.n:
        raise InvalidArgumentError(
            f"signals must be a length-{graph.n} vector or a (k, {graph.n}) "
            f"row matrix, got shape {given.shape}"
        )
    k = arr.shape[0]
    if k == 0:
        raise InvalidArgumentError("need at least one signal")
    if np.all(arr == arr[:, :1]):  # compared, as a difference may overflow
        raise DegenerateSignalError("all signals constant: moment targets are zero")
    # powers of two scale exactly: g to max |g| in [1/2, 1), and the
    # weights to a largest weight in [1, 2), which keeps unit weights
    arr = np.ldexp(arr, -pow2_exponent(arr))
    shift = pow2_exponent(graph.edge_w) - 1
    a, b, w = graph.edge_a, graph.edge_b, np.ldexp(graph.edge_w, -shift)
    cols = arr.T
    diff = cols[a] - cols[b]
    flow = w[:, None] * diff
    lg = np.zeros_like(cols)
    np.add.at(lg, a, flow)
    np.subtract.at(lg, b, flow)
    m1, m2 = float(np.vdot(flow, diff)) / k, float(np.vdot(lg, lg)) / k
    # m1 >= 0 and m2 >= 0; both may underflow to 0 on variation across a
    # light edge, and then the fit is (0, 0), read as tau = inf below.  The
    # fit is linear in (m1, m2), which a power of two keeps clear of underflow
    e = pow2_exponent(max(m1, m2))
    # the scaled Laplacian's traces: tr(L) the total degree, and tr(L^2)
    # the squared degrees plus each w^2 twice; a light weight may underflow
    # to 0, and unscaled weights keep the graph's cached degrees
    deg = np.bincount(np.r_[a, b], np.r_[w, w], graph.n) if shift else graph.degrees
    tr, tr2 = float(deg.sum()), float(np.dot(deg, deg) + 2.0 * (w**2).sum())
    sigma2, inv2kappa = _moment_fit(math.ldexp(m1, -e), math.ldexp(m2, -e), graph.n, tr, tr2)
    if inv2kappa == 0.0:
        # all observed variation is attributed to noise: smooth to the mean
        return math.inf
    with np.errstate(over="ignore"):
        return float(np.ldexp(sigma2 / inv2kappa, -shift))


def _moment_fit(m1: float, m2: float, n: int, tr: float, tr2: float) -> tuple[float, float]:
    """Nonnegative least-squares fit of the 2x2 moment system.

    Returns (sigma2_hat, inv2kappa_hat) minimizing the residual of

        [tr   n-1] [sigma2    ]   [m1]
        [tr2  tr ] [1/(2kappa)] ~ [m2]

    over the nonnegative quadrant, with tr = tr(L) and tr2 = tr(L^2).  If
    the target lies inside the cone spanned by the columns this is the
    exact solve; otherwise the target is projected onto the nearer
    column's ray.
    """
    if not (np.isfinite(m1) and np.isfinite(m2)):
        raise InvalidArgumentError("moment targets must be finite")
    b = np.array([m1, m2])
    c1 = np.array([tr, tr2])
    c2 = np.array([float(n - 1), tr])
    det = tr * tr - (n - 1) * tr2
    if det != 0.0:
        x1 = (tr * m1 - (n - 1) * m2) / det
        x2 = (tr * m2 - tr2 * m1) / det
        if x1 >= 0.0 and x2 >= 0.0:
            return float(x1), float(x2)
    a1 = max(float(np.dot(c1, b)), 0.0) / float(np.dot(c1, c1))
    a2 = max(float(np.dot(c2, b)), 0.0) / float(np.dot(c2, c2))
    r1 = float(np.linalg.norm(b - a1 * c1))
    r2 = float(np.linalg.norm(b - a2 * c2))
    if r2 <= r1:
        return 0.0, float(a2)
    return float(a1), 0.0
