"""Comparison denoisers: neighbor averaging, lazy diffusion, band limits,
and singular-value soft-thresholding for grid signals."""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .graphs import Graph, as_signal
from .spectral import SpectralBasis, apply_filter

__all__ = [
    "local_average",
    "magic_filter",
    "band_filter",
    "nuclear_norm_denoise",
]


def _diffuse(g_signal, graph: Graph, t: int, rate: float) -> np.ndarray:
    """t steps of the random-walk diffusion f <- f - rate * D^-1 L f."""
    if t < 0:
        raise InvalidArgumentError("t must be nonnegative")
    f = as_signal(g_signal, graph.n).copy()
    for _ in range(t):
        f = f - rate * (graph.laplacian @ f) / graph.degrees
    return f


def local_average(g_signal, graph: Graph, t: int) -> np.ndarray:
    """Repeatedly replace each value by the weighted average of its neighbors."""
    return _diffuse(g_signal, graph, t, 1.0)


def magic_filter(g_signal, graph: Graph, t: int) -> np.ndarray:
    """t powers of the lazy diffusion operator (I + D^-1 A) / 2.

    On the random-walk-normalized spectrum this realizes the response
    (1 - lambda/2)^t; the combinatorial Laplacian's spectrum is not confined
    to [0, 2], so the filter is defined through the walk operator instead.
    """
    return _diffuse(g_signal, graph, t, 0.5)


def band_filter(g_signal, basis: SpectralBasis, k: int, keep: str = "low") -> np.ndarray:
    """Keep exactly the k lowest (or highest) frequency coefficients: the
    0/1 response of :func:`apply_filter` over that band."""
    if keep not in ("low", "high"):
        raise InvalidArgumentError("keep must be 'low' or 'high'")
    if not 0 <= k <= basis.n:
        raise InvalidArgumentError(f"k must be in [0, {basis.n}]")
    response = np.zeros(basis.n)
    if keep == "low":
        response[:k] = 1.0
    else:
        response[basis.n - k :] = 1.0
    return apply_filter(basis, response, g_signal)


def nuclear_norm_denoise(g_signal, graph: Graph, tau: float) -> np.ndarray:
    """Singular-value soft-thresholding of the signal viewed as a matrix.

    The signal on a grid graph is read row by row as a height-by-width
    matrix.  Solves argmin_f 0.5 ||f - g||^2 + tau ||f||_* by shrinking
    every singular value to max(sigma_i - tau, 0).
    """
    if graph.grid_shape is None:
        raise InvalidArgumentError("nuclear_norm_denoise needs a grid graph")
    if not tau >= 0:
        raise InvalidArgumentError("tau must be nonnegative")
    mat = as_signal(g_signal, graph.n).reshape(graph.grid_shape)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return ((u * s) @ vt).ravel()
