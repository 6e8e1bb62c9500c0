"""Weighted undirected graphs and their sparse operators.

Every denoiser in this package consumes an immutable :class:`Graph`.  The
graph stores a canonical edge list (tail < head, strictly positive weights)
and lazily exposes CSR views of the adjacency and Laplacian matrices and a
CSC view of the incidence matrix, whose column restrictions are the sparse
regression designs.  All operators are applied through sparse
matrix-vector products; dense matrices appear only in test oracles and the
spectral reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import GraphDisconnectedError, InvalidArgumentError

__all__ = [
    "Graph",
    "build_grid_graph",
    "build_knn_graph",
    "dirichlet_energy",
    "laplacian_trace",
    "laplacian_squared_trace",
    "restrict_laplacian",
    "incidence_columns",
]


def as_signal(f, n: int) -> np.ndarray:
    """Validate and convert a vertex signal to a float64 vector of length n."""
    arr = np.asarray(f, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise InvalidArgumentError(
            f"expected a length-{n} signal, got shape {arr.shape}"
        )
    return arr


def as_mask(s, n: int) -> np.ndarray:
    """Validate a vertex set: a length-n boolean mask over the vertices.

    Integer arrays are rejected rather than read as indices or as 0/1 flags.
    """
    arr = np.asarray(s)
    if arr.dtype != np.bool_ or arr.shape != (n,):
        raise InvalidArgumentError(
            f"expected a length-{n} boolean vertex mask, got {arr.dtype} "
            f"array of shape {arr.shape}"
        )
    return arr


def as_seed(seed):
    """Validate a random seed: None or a nonnegative integer."""
    if seed is not None and not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InvalidArgumentError(
            f"seed must be a nonnegative integer, got {seed!r}"
        )
    return seed


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted undirected connected graph.

    ``edge_a < edge_b`` for every stored edge; this fixed orientation is
    also used by the incidence matrix (+sqrt(w) at the tail, -sqrt(w) at the
    head).  Construction validates weights, simplicity and connectivity.
    ``grid_shape`` is (height, width) from :func:`build_grid_graph`, else None.
    Graphs compare and hash by identity.
    """

    n: int
    edge_a: np.ndarray
    edge_b: np.ndarray
    edge_w: np.ndarray
    grid_shape: tuple[int, int] | None = None

    @classmethod
    def from_edges(cls, n: int, a, b, w) -> "Graph":
        """Graph on n vertices with edges (a[i], b[i]) of weight w[i].

        ``a`` and ``b`` are equal-length 1-D integer arrays of vertex ids and
        ``w`` the matching weights; edges may come in either orientation
        and in any order.
        """
        if n < 1:
            raise InvalidArgumentError("graph needs at least one vertex")
        a, b, w = np.asarray(a), np.asarray(b), np.asarray(w, dtype=np.float64)
        if a.ndim != 1 or a.shape != b.shape or a.shape != w.shape:
            raise InvalidArgumentError(
                "edge arrays must be 1-D and of equal length, got shapes "
                f"{a.shape}, {b.shape} and {w.shape}"
            )
        if a.size == 0:
            raise InvalidArgumentError("graph needs at least one edge")
        if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
            raise InvalidArgumentError("edge endpoints must be integer vertex ids")
        a, b = a.astype(np.int64), b.astype(np.int64)
        if a.min() < 0 or b.min() < 0 or a.max() >= n or b.max() >= n:
            raise InvalidArgumentError("edge endpoint out of range")
        if np.any(a == b):
            raise InvalidArgumentError("self-loops are not allowed")
        if np.any(~np.isfinite(w)) or np.any(w <= 0):
            raise InvalidArgumentError("edge weights must be finite and positive")
        # canonical orientation a < b, lexicographic edge order
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        if lo.size > 1:
            dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
            if np.any(dup):
                k = int(np.flatnonzero(dup)[0])
                raise InvalidArgumentError(
                    f"duplicate edge ({lo[k]}, {hi[k]})"
                )
        g = cls(n=n, edge_a=lo, edge_b=hi, edge_w=w)
        ncomp, labels = connected_components(g.csr_adjacency, directed=False)
        if ncomp != 1:
            comps = [np.flatnonzero(labels == c).tolist() for c in range(ncomp)]
            raise GraphDisconnectedError(
                f"graph has {ncomp} connected components", components=comps
            )
        return g

    @property
    def m(self) -> int:
        return int(self.edge_w.size)

    @cached_property
    def csr_adjacency(self) -> sp.csr_matrix:
        rows = np.concatenate([self.edge_a, self.edge_b])
        cols = np.concatenate([self.edge_b, self.edge_a])
        data = np.concatenate([self.edge_w, self.edge_w])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.asarray(self.csr_adjacency.sum(axis=1)).ravel()

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        lap = sp.diags(self.degrees, format="csr") - self.csr_adjacency
        return lap.tocsr()

    @cached_property
    def incidence(self) -> sp.csc_matrix:
        """m-by-n oriented incidence matrix with +sqrt(w) at a, -sqrt(w) at b."""
        sw = np.sqrt(self.edge_w)
        rows = np.repeat(np.arange(self.m, dtype=np.int64), 2)
        cols = np.stack([self.edge_a, self.edge_b], axis=1).ravel()
        data = np.stack([sw, -sw], axis=1).ravel()
        return sp.csc_matrix((data, (rows, cols)), shape=(self.m, self.n))


def build_grid_graph(height: int, width: int) -> Graph:
    """4-neighbor grid with unit weights; vertex id = row * width + col."""
    if height < 1 or width < 1:
        raise InvalidArgumentError("grid dimensions must be positive")
    if height * width < 2:
        raise InvalidArgumentError("grid needs at least two vertices")
    ids = np.arange(height * width, dtype=np.int64).reshape(height, width)
    a = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    b = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    # canonical edge order, and a grid is connected: from_edges would pass it
    order = np.lexsort((b, a))
    return Graph(height * width, a[order], b[order], np.ones(a.size), (height, width))


def _nearest(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's k nearest other points, ordered by (distance, index).

    Candidates come from a KD-tree; their distances are recomputed by
    summing squared coordinate differences in coordinate order, which is
    bitwise the Euclidean distance of ``scipy.spatial.distance.cdist``.
    A row whose k-th distance is within rounding of its farthest candidate
    may have tied points the tree left out, so its query is widened until
    the farthest candidate is strictly farther (or every point is a
    candidate).  Returns the (n, k) neighbor ids and distances.
    """
    # imported here: scipy.spatial is slow to load and only k-NN builds use it
    from scipy.spatial import cKDTree

    n = pts.shape[0]
    tree = cKDTree(pts)
    nbrs = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    rows = np.arange(n)
    q = k + 2
    while rows.size:
        q = min(q, n)
        _, cand = tree.query(pts[rows], k=q)
        acc = np.zeros(cand.shape)
        for j in range(pts.shape[1]):
            acc += (pts[rows, j][:, None] - pts[cand, j]) ** 2
        d = np.sqrt(acc)
        d[cand == rows[:, None]] = np.inf  # a point is not its own neighbor
        order = np.lexsort((cand, d), axis=-1)
        cand = np.take_along_axis(cand, order, axis=-1)
        d = np.take_along_axis(d, order, axis=-1)
        # the tree's own distances are within a few ulp of these, so a
        # point it left out is at least (1 - 1e-12) times the farthest
        # finite candidate away
        far = np.where(np.isfinite(d[:, -1]), d[:, -1], d[:, -2])
        done = (far > d[:, k - 1] * (1.0 + 1e-12)) | (q == n)
        nbrs[rows[done]] = cand[done, :k]
        dist[rows[done]] = d[done, :k]
        rows = rows[~done]
        q *= 2
    return nbrs, dist


def build_knn_graph(points, k: int) -> Graph:
    """Symmetrized k-nearest-neighbor graph with an adaptive Gaussian kernel.

    The affinity between a and b is exp(-d(a,b)^2 / (sigma_a * sigma_b)),
    where sigma_a is the distance from a to its k-th nearest neighbor, and
    the directed k-NN affinities are symmetrized as (W + W^T) / 2.
    Coincident points have affinity exp(0) = 1.  Distance ties are broken
    by vertex index.  Neighbors come from a KD-tree, so the build costs
    about O(n k log n) time and O(n k) memory.  Raises
    :class:`~graphdenoise.errors.GraphDisconnectedError` (naming the
    components) if the symmetrized graph is disconnected.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise InvalidArgumentError("points must be an n-by-d matrix")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("points must be finite")
    n = pts.shape[0]
    if k < 1:
        raise InvalidArgumentError("k must be positive")
    if k >= n:
        raise InvalidArgumentError(f"k={k} requires at least k+1={k + 1} points")
    nbrs, dist = _nearest(pts, k)
    sigma = dist[:, -1]

    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = nbrs.ravel()
    d2 = dist.ravel() ** 2
    # sigma is 0 for a point with k coincident neighbors: its pairs at
    # distance 0 get exp(0) = 1, a pair at a positive distance exp(-inf) = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        aff = np.exp(-d2 / (sigma[rows] * sigma[cols]))
    aff[d2 == 0.0] = 1.0
    w_dir = sp.csr_matrix((aff, (rows, cols)), shape=(n, n))
    w_sym = (w_dir + w_dir.T) / 2.0

    coo = sp.triu(w_sym, k=1).tocoo()
    # drop affinities that underflowed to zero; the globally closest pair
    # keeps at least exp(-1) (1 at distance 0), so an edge always remains
    keep = coo.data > 0.0
    return Graph.from_edges(n, coo.row[keep], coo.col[keep], coo.data[keep])


def dirichlet_energy(g: Graph, f) -> float:
    """Smoothness energy sum_(a,b) w(a,b) (f(a) - f(b))^2."""
    f = as_signal(f, g.n)
    diffs = f[g.edge_a] - f[g.edge_b]
    return float(np.dot(g.edge_w * diffs, diffs))


def laplacian_trace(g: Graph) -> float:
    """Trace of L: the total weighted degree."""
    return float(g.degrees.sum())


def laplacian_squared_trace(g: Graph) -> float:
    """Trace of L^2: sum of deg(a)^2 plus, per vertex, its incident w(a,b)^2."""
    w2 = g.edge_w**2
    return float(np.dot(g.degrees, g.degrees) + 2.0 * w2.sum())


def restrict_laplacian(g: Graph, rows, cols) -> sp.csr_matrix:
    """The submatrix L(rows, cols) of two vertex masks, in vertex order."""
    r = np.flatnonzero(as_mask(rows, g.n))
    c = np.flatnonzero(as_mask(cols, g.n))
    return g.laplacian[r][:, c].tocsr()


def incidence_columns(g: Graph, cols) -> sp.csc_matrix:
    """The column restriction B(:, cols) of a vertex mask, in vertex order."""
    return g.incidence[:, np.flatnonzero(as_mask(cols, g.n))]
