"""Denoising under additive spectral Gaussian noise.

The estimate is the low-pass filter h(lambda) = 1/(1 + tau*lambda) applied
to the observation, computed by solving (I + tau*L) f = g.  The smoothing
strength tau = 2*kappa*sigma^2 can be supplied directly as a tuning knob or
estimated from the observed quadratic forms g'Lg and ||Lg||^2 by the method
of moments.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateSignalError, InvalidArgumentError
from .graphs import (
    Graph,
    as_signal,
    laplacian_apply,
    laplacian_squared_trace,
    laplacian_trace,
)
from .result import DenoiseResult
from .solvers import cg_solve

__all__ = [
    "denoise_gaussian",
    "estimate_tau",
    "estimate_tau_multi",
    "nonneg_moment_fit",
]


def denoise_gaussian(
    g_signal,
    graph: Graph,
    tau: float,
    tol: float = 1e-10,
) -> DenoiseResult:
    """Solve (I + tau*L) f = g; equivalent to filtering with 1/(1 + tau*lambda).

    The solve preserves the signal mean (the zero-frequency coefficient is
    passed through unchanged).  ``tau=0`` returns the observation; an
    infinite tau returns the constant mean signal.
    """
    g = as_signal(g_signal, graph.n)
    if tau < 0 or math.isnan(tau):
        raise InvalidArgumentError("tau must be nonnegative")
    if tau == 0.0:
        return DenoiseResult(signal=g.copy(), iterations=0)
    if math.isinf(tau):
        mean = np.full(graph.n, g.mean())
        return DenoiseResult(signal=mean, iterations=0)
    matrix = (sp.diags(np.ones(graph.n)) + tau * graph.laplacian).tocsr()
    return cg_solve(matrix, g, tol=tol)


def _moments(g: np.ndarray, graph: Graph) -> tuple[float, float]:
    lg = laplacian_apply(graph, g)
    return float(np.dot(g, lg)), float(np.dot(lg, lg))


def _tau_from_moments(m1: float, m2: float, graph: Graph) -> float:
    sigma2, inv2kappa = nonneg_moment_fit(m1, m2, graph)
    if inv2kappa == 0.0:
        if sigma2 == 0.0:
            warnings.warn(
                "moment fit returned zero for both parameters; "
                "falling back to tau=0 (no smoothing)",
                stacklevel=3,
            )
            return 0.0
        # all observed variation is attributed to noise: smooth to the mean
        return math.inf
    return sigma2 / inv2kappa


def estimate_tau(g_signal, graph: Graph) -> float:
    """Method-of-moments estimate of tau = 2*kappa*sigma^2 from one signal.

    Fits (sigma^2, 1/(2*kappa)) to g'Lg and ||Lg||^2 with
    :func:`nonneg_moment_fit`: the exact 2x2 solve when both are
    nonnegative, the nearer boundary ray otherwise.  This is
    :func:`estimate_tau_multi` of the single signal.
    """
    return estimate_tau_multi(as_signal(g_signal, graph.n), graph)


def estimate_tau_multi(signals, graph: Graph) -> float:
    """Moment estimate pooled over independently generated signals.

    Accepts one length-n signal or a (k, n) matrix with one signal per
    row.  A square (n, n) matrix is read as n rows; an (n, k) column matrix
    with k != n is rejected.  The two quadratic-form targets are averaged
    over the k signals before the backsolve, so the estimate is consistent
    as k grows.  Raises :class:`DegenerateSignalError` when every signal is
    constant.
    """
    arr = np.asarray(signals, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != graph.n:
        raise InvalidArgumentError(
            f"signals must be a length-{graph.n} vector or a (k, {graph.n}) "
            f"row matrix, got shape {arr.shape}"
        )
    k = arr.shape[0]
    if k == 0:
        raise InvalidArgumentError("need at least one signal")
    m1_sum = 0.0
    m2_sum = 0.0
    for row in arr:
        m1, m2 = _moments(row, graph)
        m1_sum += m1
        m2_sum += m2
    m1_bar, m2_bar = m1_sum / k, m2_sum / k
    # rounding can leave ||Lg||^2 nonzero for a constant signal
    if m2_bar == 0.0 or np.all(np.ptp(arr, axis=1) == 0.0):
        raise DegenerateSignalError("all signals constant: moment targets are zero")
    return _tau_from_moments(m1_bar, m2_bar, graph)


def nonneg_moment_fit(m1: float, m2: float, graph: Graph) -> tuple[float, float]:
    """Nonnegative least-squares fit of the 2x2 moment system.

    Returns (sigma2_hat, inv2kappa_hat) minimizing the residual of

        [tr(L)    n-1  ] [sigma2   ]   [m1]
        [tr(L^2)  tr(L)] [1/(2kappa)] ~ [m2]

    over the nonnegative quadrant.  If the target lies inside the cone
    spanned by the columns this is the exact solve; otherwise the target is
    projected onto the nearer column's ray.
    """
    if not (np.isfinite(m1) and np.isfinite(m2)):
        raise InvalidArgumentError("moment targets must be finite")
    n = graph.n
    tr = laplacian_trace(graph)
    tr2 = laplacian_squared_trace(graph)
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
