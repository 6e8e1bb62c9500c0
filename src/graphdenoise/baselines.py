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


def local_average(g_signal, graph: Graph, t: int) -> np.ndarray:
    """Repeatedly replace each value by the weighted average of its neighbors."""
    if t < 0:
        raise InvalidArgumentError("t must be nonnegative")
    f = as_signal(g_signal, graph.n).copy()
    for _ in range(t):
        f = (graph.csr_adjacency @ f) / graph.degrees
    return f


def magic_filter(g_signal, graph: Graph, t: int) -> np.ndarray:
    """t powers of the lazy diffusion operator (I + D^-1 A) / 2.

    On the random-walk-normalized spectrum this realizes the response
    (1 - lambda/2)^t; the combinatorial Laplacian's spectrum is not confined
    to [0, 2], so the filter is defined through the walk operator instead.
    """
    if t < 0:
        raise InvalidArgumentError("t must be nonnegative")
    f = as_signal(g_signal, graph.n).copy()
    for _ in range(t):
        f = (f + (graph.csr_adjacency @ f) / graph.degrees) / 2.0
    return f


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


def nuclear_norm_denoise(g_signal, height: int, width: int, tau: float) -> np.ndarray:
    """Singular-value soft-thresholding of the signal viewed as a matrix.

    The grid signal is read row by row as a height-by-width matrix.  Solves
    argmin_f 0.5 ||f - g||^2 + tau ||f||_* by shrinking every singular
    value to max(sigma_i - tau, 0).
    """
    if height < 1 or width < 1:
        raise InvalidArgumentError("grid shape must be positive")
    if tau < 0:
        raise InvalidArgumentError("tau must be nonnegative")
    mat = as_signal(g_signal, height * width).reshape(height, width)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return ((u * s) @ vt).ravel()
