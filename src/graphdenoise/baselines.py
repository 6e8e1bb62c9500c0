"""Comparison denoisers: neighbor averaging, lazy diffusion, band limits,
and singular-value soft-thresholding for grid signals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .graphs import Graph, as_signal
from .spectral import SpectralBasis, gft, igft

__all__ = [
    "GridShape",
    "local_average",
    "magic_filter",
    "band_filter",
    "nuclear_norm_denoise",
]


@dataclass(frozen=True)
class GridShape:
    """Lets a grid-graph signal be viewed as a height-by-width matrix."""

    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise InvalidArgumentError("grid shape must be positive")

    @property
    def n(self) -> int:
        return self.height * self.width


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
    """Keep exactly the k lowest (or highest) frequency coefficients."""
    if keep not in ("low", "high"):
        raise InvalidArgumentError("keep must be 'low' or 'high'")
    if not 0 <= k <= basis.n:
        raise InvalidArgumentError(f"k must be in [0, {basis.n}]")
    coeffs = gft(basis, g_signal)
    out = np.zeros_like(coeffs)
    if keep == "low":
        out[:k] = coeffs[:k]
    elif k > 0:
        out[-k:] = coeffs[-k:]
    return igft(basis, out)


def nuclear_norm_denoise(g_signal, shape: GridShape, tau: float) -> np.ndarray:
    """Singular-value soft-thresholding of the signal viewed as a matrix.

    Solves argmin_f 0.5 ||f - g||^2 + tau ||f||_* by shrinking every
    singular value to max(sigma_i - tau, 0).
    """
    if tau < 0:
        raise InvalidArgumentError("tau must be nonnegative")
    mat = as_signal(g_signal, shape.n).reshape(shape.height, shape.width)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return ((u * s) @ vt).ravel()
