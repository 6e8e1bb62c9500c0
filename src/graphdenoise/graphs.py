"""Weighted undirected graphs and their sparse operators.

Every denoiser in this package consumes an immutable :class:`Graph`.  The
graph stores a canonical edge list (tail < head, strictly positive weights)
and its weighted degrees, and lazily assembles its one sparse matrix, the
Laplacian L = D - A, as the package's own :class:`CsrMatrix`.  Everything
here runs on numpy alone: grids, k-NN graphs (brute-force distances by
BLAS, certified against rounding) and edge lists, their connectivity check
on the edge arrays, the Laplacian, its products and its principal
submatrices.  A grid's Laplacian multiplies by five shifted slices of the
(height, width) array; every other graph's, and every principal
submatrix, multiplies by its CSR arrays.  The two products agree bitwise.
Dense matrices appear only in test oracles and the spectral reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphDisconnectedError, InvalidArgumentError

__all__ = [
    "CsrMatrix",
    "Graph",
    "build_grid_graph",
    "build_knn_graph",
    "dirichlet_energy",
    "dirichlet_system",
]


def as_signal(f, n: int) -> np.ndarray:
    """The one check on each vector the package is handed (a vertex signal,
    right-hand side, linear term or coefficients): ``f`` as a finite float64
    vector of length n, else an InvalidArgumentError naming the first
    non-finite entry's index."""
    arr = np.asarray(f, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise InvalidArgumentError(
            f"expected a length-{n} signal, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        i = int(np.argmin(np.isfinite(arr)))
        raise InvalidArgumentError(f"signal value {arr[i]} at index {i} is not finite")
    return arr


def pow2_exponent(x) -> int:
    """The e that brings max|x| into [1/2, 1), 0 for a zero or empty x: x * 2^-e
    is exact, so a solve linear in x runs on it and scales back by 2^e."""
    return int(np.frexp(np.max(np.abs(x), initial=0.0))[1])


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


def check_kappa(kappa: float) -> tuple[float, float]:
    """Validate a prior weight w (kappa or tau) and return (min(1, 1/w), min(1, w)):
    a*x + b*y = (x + w*y) / max(1, w) poses a sum with no coefficient above 1."""
    if not 0 < kappa < np.inf:
        raise InvalidArgumentError(f"kappa must be finite and positive, got {kappa}")
    return min(1.0, 1.0 / kappa), min(1.0, kappa)


def check_tol(tol: float) -> float:
    """Validate a solver's stopping tolerance: finite and positive, as a NaN
    or negative one would run the solver to its cap and an infinite one stop
    it after one step."""
    if not 0 < tol < np.inf:
        raise InvalidArgumentError(f"tol must be finite and positive, got {tol}")
    return tol


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Square sparse matrix in compressed sparse row form.

    Row i holds the values ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, which are sorted and distinct.
    ``M @ x``, x a vector, is one ``np.bincount`` over the entries in that
    order, so it sums each row from left to right, as scipy's CSR product
    does, and the two agree bitwise.  Like scipy's, the product raises no
    floating-point error of its own: an overflow shows as inf or nan in its
    result.  A grid's Laplacian is the subclass :class:`_GridLaplacian`,
    whose product forms the same sums from shifted slices.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_triplets(cls, n: int, rows, cols, data) -> "CsrMatrix":
        """The n x n matrix with value data[i] at (rows[i], cols[i]); the
        positions must be distinct."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        data = np.asarray(data, dtype=np.float64)[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr, cols, data)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.indptr.size - 1
        return n, n

    @cached_property
    def rows(self) -> np.ndarray:
        """Each stored entry's row."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x) -> np.ndarray:
        with np.errstate(all="ignore"):
            terms = self.data * x[self.indices]
        return np.bincount(self.rows, terms, self.shape[0])

    def diagonal(self) -> np.ndarray:
        out = np.zeros(self.shape[0])
        on = self.indices == self.rows
        out[self.rows[on]] = self.data[on]
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.indices] = self.data
        return out

    def principal(self, u) -> "CsrMatrix":
        """The principal submatrix M(u, u) of sorted distinct indices u,
        cut in one pass over the rows of u."""
        u = np.asarray(u, dtype=np.int64)
        start = self.indptr[u]
        length = self.indptr[u + 1] - start
        ends = np.cumsum(length)
        pos = np.arange(int(length.sum())) + np.repeat(start - ends + length, length)
        slot = np.full(self.shape[0], -1)
        slot[u] = np.arange(u.size)
        cols = slot[self.indices[pos]]
        keep = cols >= 0
        kept = np.concatenate([[0], np.cumsum(keep)])
        return CsrMatrix(kept[np.concatenate([[0], ends])], cols[keep], self.data[pos[keep]])


@dataclass(frozen=True, eq=False)
class _GridLaplacian(CsrMatrix):
    """The Laplacian of a unit-weight four-neighbour grid, whose product is
    five shifted slices of the (height, width) array.

    Row (r, c) of the CSR arrays holds -1 at the neighbours above and to
    the left, the degree on the diagonal, then -1 at the neighbours to the
    right and below, in that column order.  The slices take the same terms
    in the same order, starting from zero, as the CSR product sums each
    row, so the two agree bitwise, NaN and inf included.  Every term is
    subtracted, the diagonal one as -deg * x: where both operands are NaN,
    a subtraction keeps the first, as the CSR sum does, but numpy's vector
    addition may keep the second in the tail of its loop.  ``principal``
    returns a plain :class:`CsrMatrix`: a restriction is no grid.
    """

    # minus the degrees, as a (height, width) array
    minus_degrees: np.ndarray

    def __matmul__(self, x) -> np.ndarray:
        minus_deg = self.minus_degrees
        xs = x.reshape(minus_deg.shape)
        out = np.zeros(minus_deg.shape)
        with np.errstate(all="ignore"):
            out[1:, :] -= xs[:-1, :]
            out[:, 1:] -= xs[:, :-1]
            out -= minus_deg * xs
            out[:, :-1] -= xs[:, 1:]
            out[:-1, :] -= xs[1:, :]
        return out.ravel()


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted undirected connected graph.

    ``edge_a < edge_b`` for every stored edge, in lexicographic order.
    Construction validates every graph: integer endpoints with
    0 <= edge_a < edge_b < n, the (edge_a, edge_b) pairs strictly
    increasing, so none repeats, finite positive weights, finite weighted
    degrees and connectivity.
    ``grid_shape`` is (height, width) from :func:`build_grid_graph`, else None.
    It means the unit-weight four-neighbour grid of that shape, vertex id =
    row * width + col, and three places rely on it: the DCT solve of the
    Gaussian filter, the closed-form spectral basis and the slice product
    of the Laplacian, so construction refuses a grid shape the edges do not
    match; the grid's edges need no other check.
    Graphs compare and hash by identity.
    """

    n: int
    edge_a: np.ndarray
    edge_b: np.ndarray
    edge_w: np.ndarray
    grid_shape: tuple[int, int] | None = None

    def __post_init__(self):
        if self.grid_shape is not None:
            h, w = self.grid_shape
            if min(h, w) >= 1 and self.n == h * w:
                a, b = _grid_edges(h, w)
                edges = (self.edge_a, self.edge_b, self.edge_w)
                if all(map(np.array_equal, edges, (a, b, np.ones(a.size)))):
                    return
            raise InvalidArgumentError(f"the edges are not the unit-weight {h}x{w} grid's")
        n, a, b, w = self.n, self.edge_a, self.edge_b, self.edge_w
        if n < 1:
            raise InvalidArgumentError("graph needs at least one vertex")
        _check_edge_arrays(a, b, w)
        if a.min() < 0 or b.max() >= n:
            raise InvalidArgumentError("edge endpoint out of range")
        if np.any(a >= b):
            if np.any(a == b):
                raise InvalidArgumentError("self-loops are not allowed")
            raise InvalidArgumentError("edges must be stored with edge_a < edge_b")
        if w.dtype.kind not in "fiu" or np.any(~np.isfinite(w)) or np.any(w <= 0):
            raise InvalidArgumentError("edge weights must be finite and positive")
        if not np.isfinite(self.degrees).all():
            k = int(np.argmin(np.isfinite(self.degrees)))
            raise InvalidArgumentError(f"vertex {k}'s weighted degree overflows")
        step = np.diff(a * np.int64(n) + b)
        if np.any(step <= 0):
            k = int(np.flatnonzero(step <= 0)[0])
            if step[k] == 0:
                raise InvalidArgumentError(f"duplicate edge ({a[k]}, {b[k]})")
            raise InvalidArgumentError("edges must be in lexicographic order")
        labels = _component_labels(n, a, b)
        roots = np.flatnonzero(labels == np.arange(n))
        if roots.size != 1:
            # components in order of their least vertex, each one ascending
            order = np.argsort(labels, kind="stable")
            comps = np.split(order, np.searchsorted(labels[order], roots[1:]))
            raise GraphDisconnectedError(
                f"graph has {roots.size} connected components",
                components=[c.tolist() for c in comps],
            )

    @classmethod
    def from_edges(cls, n: int, a, b, w) -> "Graph":
        """Graph on n vertices with edges (a[i], b[i]) of weight w[i].

        ``a`` and ``b`` are equal-length 1-D integer arrays of vertex ids and
        ``w`` the matching weights; edges may come in either orientation
        and in any order.  Each edge is stored as (min, max), the edges in
        lexicographic order, and the constructor validates the result.
        """
        a, b, w = np.asarray(a), np.asarray(b), np.asarray(w, dtype=np.float64)
        _check_edge_arrays(a, b, w)
        a, b = a.astype(np.int64), b.astype(np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        order = np.lexsort((hi, lo))
        return cls(n=n, edge_a=lo[order], edge_b=hi[order], edge_w=w[order])

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted degrees: each vertex's sum of incident edge weights."""
        ends = np.concatenate([self.edge_a, self.edge_b])
        return np.bincount(ends, np.concatenate([self.edge_w, self.edge_w]), self.n)

    @cached_property
    def laplacian(self) -> CsrMatrix:
        """L = D - A, from the triplets (a, b, -w), (b, a, -w) and (i, i, deg_i).

        On a grid it multiplies by shifted slices (:class:`_GridLaplacian`),
        on every other graph by its CSR arrays; the arrays are the same."""
        diag = np.arange(self.n)
        rows = np.concatenate([self.edge_a, self.edge_b, diag])
        cols = np.concatenate([self.edge_b, self.edge_a, diag])
        data = np.concatenate([-self.edge_w, -self.edge_w, self.degrees])
        lap = CsrMatrix.from_triplets(self.n, rows, cols, data)
        if self.grid_shape is None:
            return lap
        return _GridLaplacian(
            lap.indptr, lap.indices, lap.data, -self.degrees.reshape(self.grid_shape)
        )


def build_grid_graph(height: int, width: int) -> Graph:
    """4-neighbor grid with unit weights; vertex id = row * width + col."""
    if height < 1 or width < 1:
        raise InvalidArgumentError("grid dimensions must be positive")
    if height * width < 2:
        raise InvalidArgumentError("grid needs at least two vertices")
    try:
        a, b = _grid_edges(height, width)
    except (ValueError, MemoryError):
        raise InvalidArgumentError(
            f"grid {height}x{width} has more vertices than can be allocated"
        ) from None
    # the grid check stands for the others: a grid is simple and connected
    return Graph(height * width, a, b, np.ones(a.size), (height, width))


def _check_edge_arrays(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> None:
    """Edge arrays must be 1-D, nonempty and of equal length, with integer
    endpoints."""
    if a.ndim != 1 or a.shape != b.shape or a.shape != w.shape:
        raise InvalidArgumentError(
            "edge arrays must be 1-D and of equal length, got shapes "
            f"{a.shape}, {b.shape} and {w.shape}"
        )
    if a.size == 0:
        raise InvalidArgumentError("graph needs at least one edge")
    if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise InvalidArgumentError("edge endpoints must be integer vertex ids")


def _grid_edges(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid's edges (a, b): each vertex in turn, to its right, then below."""
    ids = np.arange(height * width, dtype=np.int64).reshape(height, width, 1)
    keep = np.zeros((height, width, 2), dtype=bool)
    keep[:, :-1, 0] = True
    keep[:-1, :, 1] = True
    return np.broadcast_to(ids, keep.shape)[keep], (ids + [1, width])[keep]


def _component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each vertex's least connected vertex, for the edges (a[i], b[i]).

    Shiloach & Vishkin's hook-and-jump on the edge arrays: each label hooks
    to the least label across its edges, then pointer jumping points every
    vertex at the root of its tree.  Labels only decrease, so the hooks
    form a forest, and the rounds end when no edge joins two labels.
    """
    labels = np.arange(n)
    while a.size:
        la, lb = labels[a], labels[b]
        hooked = labels.copy()
        np.minimum.at(hooked, la, lb)
        np.minimum.at(hooked, lb, la)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        labels = hooked
        # an edge inside one tree stays inside it
        cross = labels[a] != labels[b]
        a, b = a[cross], b[cross]
    return labels


# The bytes the temporaries of one block of k-NN work may take
_BLOCK_BYTES = 4 << 20


def _row_blocks(rows: np.ndarray, width: int):
    """``rows`` in slices whose exact recompute against ``width`` candidates
    each, about six arrays of that shape, fits ``_BLOCK_BYTES``."""
    step = max(1, _BLOCK_BYTES // (48 * width))
    for lo in range(0, rows.size, step):
        yield rows[lo:lo + step]


def _exact_nearest(pts: np.ndarray, rows: np.ndarray, cand: np.ndarray, k: int):
    """The k nearest of each row's candidates ``cand[i]``, ordered by
    (distance, index), with the k-th one's squared distance.

    Squared coordinate differences are summed in coordinate order, which
    is bitwise the Euclidean distance of SciPy's ``cdist``.  A row is not
    its own neighbor.
    """
    acc = np.zeros(cand.shape)
    for j in range(pts.shape[1]):
        diff = pts[rows, j][:, None] - pts[cand, j]
        diff *= diff
        acc += diff
    acc[cand == rows[:, None]] = np.inf
    dist = np.sqrt(acc)
    order = np.lexsort((cand, dist), axis=-1)[:, :k]
    cand, dist, acc = (np.take_along_axis(x, order, axis=-1) for x in (cand, dist, acc))
    return cand, dist, acc[:, -1]


def _candidates(c: np.ndarray, sq: np.ndarray, m: int):
    """Each row's m smallest e_ij = sq_i + sq_j - 2 c_i.c_j over j != i, by
    BLAS, and the next smallest e, its cut-off.

    The rows go in blocks of at least max(32, d), so that the product
    reads c once per that many rows, or more where whole rows fit; the
    columns go in tiles that keep a block's e and its ``argpartition``,
    about 24 bytes an entry, under ``_BLOCK_BYTES``.  Each tile keeps its
    m + 1 smallest, which hold the row's m + 1 smallest overall.
    """
    n, d = c.shape
    height = min(n, max(32, d, _BLOCK_BYTES // (24 * n)))
    width = max(m + 1, _BLOCK_BYTES // (24 * height))
    cand = np.empty((n, m), dtype=np.int64)
    cut = np.empty(n)
    # every tile's e goes in one buffer: a fresh array per tile would
    # fault its pages in again each time the allocator returns them
    buf = np.empty(height * width)
    for r0 in range(0, n, height):
        r1 = min(r0 + height, n)
        lhs = -2.0 * c[r0:r1]
        kept_e, kept_id = [], []
        for c0 in range(0, n, width):
            c1 = min(c0 + width, n)
            e = buf[:(r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
            np.matmul(lhs, c[c0:c1].T, out=e)
            e += sq[c0:c1]
            e += sq[r0:r1, None]
            own = np.arange(max(r0, c0), min(r1, c1))
            e[own - r0, own - c0] = np.inf
            if c1 - c0 > m + 1:
                part = np.argpartition(e, m, axis=-1)[:, :m + 1]
                e, ids = np.take_along_axis(e, part, axis=-1), part + c0
            else:
                e, ids = e.copy(), np.broadcast_to(np.arange(c0, c1), e.shape)
            kept_e.append(e)
            kept_id.append(ids)
        e, ids = np.hstack(kept_e), np.hstack(kept_id)
        part = np.argpartition(e, m, axis=-1)
        cand[r0:r1] = np.take_along_axis(ids, part[:, :m], axis=-1)
        cut[r0:r1] = np.take_along_axis(e, part[:, m:m + 1], axis=-1)[:, 0]
    return cand, cut


def _nearest(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's k nearest other points, ordered by (distance, index).

    ``pts`` has its largest magnitude in [1/2, 1), so no sum below can
    overflow.  Returns the (n, k) neighbor ids and distances.

    Candidates.  BLAS gives every squared distance e_ij = |c_i|^2 +
    |c_j|^2 - 2 c_i.c_j on the centred points c, and ``argpartition`` the
    m = min(2k + 2, n - 1) smallest in each row (see :func:`_candidates`).
    The next smallest e is the row's cut-off.  The candidates' distances
    are recomputed exactly, as :func:`_exact_nearest` does.

    Certification.  Let D_ij be the true squared distance, r_ij its exact
    recompute, u = 2^-53 and s_i = |c_i|^2 + max_j |c_j|^2.  By the
    inner-product bound of Higham (2002, §3.1), to first order in u:
    centring rounds each coordinate once, which moves D by at most
    4u s_i; the two norms and the cross product err by d u each on sums
    bounded by s_i, and the two additions by 4u s_i, so
    |e - D| <= (2d + 8) u s_i; the recompute is a difference, a square
    and d - 1 additions, so |r - D| <= (d + 2) u D <= 2(d + 2) u s_i.
    A difference or a sum that underflows is exact, and a square or a
    product that does errs by less than 2^-1075, at most 5d of them.  So
    b_i = 8(d + 3) u s_i + d 2^-1018 bounds |e - D| + |r - D| more than
    twice over; the room covers the second-order terms, the rounding of
    b_i and of the test, the gap the square root needs to keep two
    squared distances apart, and a BLAS that flushes subnormal products
    to zero.  So a point j with e_ij > r_k + 2 b_i, r_k the row's k-th
    r, is strictly farther than its k-th neighbor, and a row whose
    cut-off exceeds r_k + 2 b_i has its k nearest among its candidates.

    Fallback.  Any other row, such as one with ties across the cut-off,
    gets e_ij against all points again, and the points with e_ij <= r_k
    + 2 b_i are recomputed exactly, as above.  Every point among the
    row's true k nearest is no farther than its k-th candidate neighbor:
    its distance is at most sqrt(r_k), so its r is at most r_k (1 + 5u),
    and so its e at most r_k + b_i.  The recomputed set therefore holds
    the true k nearest, and the (distance, index) order picks them
    bitwise as a recompute against all points would.

    The work is O(n^2 d) for the products and O(n^2) for the partitions;
    each block's temporaries stay under ``_BLOCK_BYTES``.
    """
    n, d = pts.shape
    m = min(2 * k + 2, n - 1)
    c = pts - pts.mean(axis=0)
    sq = np.einsum("ij,ij->i", c, c)
    cand, cut = _candidates(c, sq, m)
    bound = 8 * (d + 3) * 2.0**-53 * (sq + sq.max()) + d * 2.0**-1018
    nbrs = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    reach = np.empty(n)
    for rows in _row_blocks(np.arange(n), m):
        nbrs[rows], dist[rows], kth = _exact_nearest(pts, rows, cand[rows], k)
        reach[rows] = kth + 2.0 * bound[rows]
    for rows in _row_blocks(np.flatnonzero(~(reach < cut)), n):
        nbrs[rows], dist[rows] = _fallback_nearest(pts, c, sq, rows, reach[rows], k)
    return nbrs, dist


def _fallback_nearest(pts, c, sq, rows: np.ndarray, reach: np.ndarray, k: int):
    """The k nearest of ``rows`` over all points, ordered by (distance,
    index): each row's e_ij against every point by BLAS, then the exact
    recompute of the points with e_ij <= reach_i (see :func:`_nearest`)."""
    e = -2.0 * c[rows] @ c.T
    e += sq
    e += sq[rows, None]
    e[np.arange(rows.size), rows] = np.inf
    at, near = np.nonzero(e <= reach[:, None])
    # each row's points, padded with the row itself, which is no neighbor
    count = np.bincount(at, minlength=rows.size)
    cand = np.repeat(rows[:, None], count.max(), axis=1)
    cand[at, np.arange(at.size) - np.repeat(np.cumsum(count) - count, count)] = near
    return _exact_nearest(pts, rows, cand, k)[:2]


def build_knn_graph(points, k: int) -> Graph:
    """Symmetrized k-nearest-neighbor graph with an adaptive Gaussian kernel.

    The affinity between a and b is exp(-d(a,b)^2 / (sigma_a * sigma_b)),
    where sigma_a is the distance from a to its k-th nearest neighbor, and
    the directed k-NN affinities are symmetrized as (W + W^T) / 2.
    Coincident points have affinity exp(0) = 1.  Distance ties are broken
    by vertex index.  The kernel does not change when the points are
    scaled, and neither does the graph: the points are scaled by one power
    of two to a largest magnitude in [1/2, 1) before any arithmetic, so
    no distance overflows.  Neighbors come from brute-force distances (see
    :func:`_nearest`): O(n^2 d) time and O(n k) memory beyond a few MiB of
    blocks.  Raises :class:`~graphdenoise.errors.GraphDisconnectedError`
    (naming the components) if the symmetrized graph is disconnected.
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
    pts = np.ldexp(pts, -pow2_exponent(pts))
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
    # (W + W^T) / 2 on the edge arrays, summed per unordered pair lo * n + hi
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    keys, pair = np.unique(lo * n + hi, return_inverse=True)
    w_sym = np.bincount(pair, aff) / 2.0
    # drop affinities that underflowed to zero; the globally closest pair
    # keeps at least exp(-1) (1 at distance 0), so an edge always remains
    keep = w_sym > 0.0
    return Graph.from_edges(n, keys[keep] // n, keys[keep] % n, w_sym[keep])


def dirichlet_energy(g: Graph, f) -> float:
    """Smoothness energy sum_(a,b) w(a,b) (f(a) - f(b))^2."""
    f = as_signal(f, g.n)
    diffs = f[g.edge_a] - f[g.edge_b]
    return float(np.dot(g.edge_w * diffs, diffs))


def dirichlet_system(g: Graph, f, unknown):
    """The energy of f + x, x a deviation on the vertex mask U, as
    x'L(U, U)x - 2c'x + const: returns L(U, U), c = -(L f)(U) and energy(x),
    the energy of f + x over the edges with an endpoint in U, the only ones
    read.  L f sums their flows w(a,b) (f(a) - f(b)), which overflow only
    where a flow does; a non-finite c raises ``FloatingPointError``, so run
    it under :func:`~graphdenoise.errors.overflow_guard`."""
    f = as_signal(f, g.n)
    unknown = as_mask(unknown, g.n)
    near = unknown[g.edge_a] | unknown[g.edge_b]
    a, b, w = g.edge_a[near], g.edge_b[near], g.edge_w[near]
    flow = w * (f[a] - f[b])
    linear = -(np.bincount(a, flow, g.n) - np.bincount(b, flow, g.n))[unknown]
    if not np.all(np.isfinite(linear)):
        raise FloatingPointError("overflow in L f")
    slot = np.where(unknown, np.cumsum(unknown) - 1, -1)  # -1: x's appended 0

    def energy(x):
        padded = np.append(x, 0.0)
        diffs = (f[a] + padded[slot[a]]) - (f[b] + padded[slot[b]])
        return float(np.dot(w * diffs, diffs))

    return g.laplacian.principal(np.flatnonzero(unknown)), linear, energy
