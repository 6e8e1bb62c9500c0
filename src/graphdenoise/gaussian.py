"""Denoising under additive spectral Gaussian noise.

The estimate is the low-pass filter h(lambda) = 1/(1 + tau*lambda) applied
to the observation, computed by solving (I + tau*L) f = g: exactly by the
2-D DCT on a grid graph, whose Laplacian it diagonalises, and by CG on any
other graph.  The smoothing strength tau = 2*kappa*sigma^2 can be supplied
directly as a tuning knob or estimated from the observed quadratic forms
g'Lg and ||Lg||^2 by the method of moments.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateSignalError, InvalidArgumentError, overflow_guard
from .graphs import (
    Graph,
    as_signal,
    laplacian_squared_trace,
    laplacian_trace,
)
from .result import DenoiseResult
from .solvers import cg_solve
from .spectral import grid_eigenvalues

__all__ = [
    "denoise_gaussian",
    "estimate_tau",
    "nonneg_moment_fit",
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
    is :func:`cg_solve`, which is scale-free, to the relative residual
    ``tol``.  ``tau=0`` returns the observation, an infinite tau the mean;
    a mean or estimate that overflows is a :class:`NumericalFailureError`.
    """
    g = as_signal(g_signal, graph.n)
    if tau < 0 or math.isnan(tau):
        raise InvalidArgumentError("tau must be nonnegative")
    if tau == 0.0:
        return DenoiseResult(signal=g.copy(), iterations=0)
    if not np.all(np.isfinite(g)):
        raise InvalidArgumentError("the signal must be finite")
    with overflow_guard("Gaussian filter"):
        mean = g.mean()
        if math.isinf(tau):
            return DenoiseResult(signal=np.full(graph.n, mean), iterations=0)
        a, b = min(1.0, 1.0 / tau), min(1.0, tau)
        if graph.grid_shape is not None:
            u = _grid_solve(g - mean, graph.grid_shape, a, b)
            return DenoiseResult(signal=mean + u, iterations=0)
        system = (sp.diags(np.full(graph.n, a)) + b * graph.laplacian).tocsr()
        fit = cg_solve(system, g - mean, tol=tol)
        return dataclasses.replace(fit, signal=mean + a * fit.signal)


def _grid_solve(d: np.ndarray, shape: tuple[int, int], a: float, b: float):
    """a*(a*I + b*L)^-1 d on an h x w grid: the orthonormal 2-D DCT-II
    diagonalises its Laplacian, with :func:`grid_eigenvalues` as the
    spectrum, so the solve is the gain a/(a + b*lambda) <= 1."""
    # imported here: scipy.fft is slow to load and only grid solves use it
    from scipy.fft import dctn, idctn

    h, w = shape
    gain = a / (a + b * grid_eigenvalues(h, w))
    u = idctn(gain * dctn(d.reshape(h, w), norm="ortho"), norm="ortho").ravel()
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("grid DCT solve overflowed")
    return u


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


def estimate_tau(signals, graph: Graph) -> float:
    """Method-of-moments estimate of tau = 2*kappa*sigma^2.

    Accepts one length-n signal or a (k, n) matrix with one signal per row
    (independently generated signals).  A square (n, n) matrix is read as
    n rows; an (n, k) column matrix with k != n is rejected.  The two
    quadratic-form targets g'Lg and ||Lg||^2 are averaged over the k
    signals, so the estimate is consistent as k grows, and (sigma^2,
    1/(2*kappa)) is fitted to them with :func:`nonneg_moment_fit`: the
    exact 2x2 solve when both are nonnegative, the nearer boundary ray
    otherwise; it is scale-free.  Raises :class:`DegenerateSignalError`
    when every signal is constant.
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
    # tau is invariant under g -> s*g, and a power of two scales exactly
    arr = np.ldexp(arr, -np.frexp(np.max(np.abs(arr)))[1])
    lg = graph.laplacian @ arr.T
    m1_bar, m2_bar = float(np.vdot(arr.T, lg)) / k, float(np.vdot(lg, lg)) / k
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
