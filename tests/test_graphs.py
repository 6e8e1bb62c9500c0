import collections
import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from graphdenoise import (
    CsrMatrix,
    Graph,
    GraphDisconnectedError,
    InvalidArgumentError,
    build_grid_graph,
    build_knn_graph,
    dirichlet_energy,
    dirichlet_system,
    laplacian_squared_trace,
    laplacian_trace,
    restrict_laplacian,
)
from graphdenoise import graphs
from graphdenoise.graphs import as_mask

from conftest import (
    as_scipy,
    dense_incidence,
    dense_laplacian,
    random_connected_graph,
    union_find_components,
    vertex_mask,
)


class TestConstruction:
    def test_graphs_compare_and_hash_by_identity(self):
        g, twin = build_grid_graph(2, 2), build_grid_graph(2, 2)
        assert g == g and g != twin
        cache = {g: "g"}
        assert cache[g] == "g" and twin not in cache

    def test_smallest_grid_is_a_single_edge(self):
        g = build_grid_graph(1, 2)
        assert g.n == 2 and g.edge_w.size == 1
        assert g.edge_w[0] == 1.0

    def test_2x2_grid_enumerated_by_hand(self):
        # vertices 0 1 / 2 3; edges (0,1),(0,2),(1,3),(2,3)
        g = build_grid_graph(2, 2)
        assert g.n == 4 and g.edge_w.size == 4
        got = set(zip(g.edge_a.tolist(), g.edge_b.tolist()))
        assert got == {(0, 1), (0, 2), (1, 3), (2, 3)}
        assert np.all(g.degrees == 2.0)

    def test_32x32_grid_edge_count(self):
        g = build_grid_graph(32, 32)
        assert g.n == 1024
        assert g.edge_w.size == 2 * 32 * 31  # 1984

    @pytest.mark.parametrize("height,width", [(1, 2), (1, 9), (9, 1), (7, 5), (256, 256)])
    def test_grid_matches_index_arithmetic(self, height, width):
        """Edges (v, v+1) within rows and (v, v+width) across them, in
        lexicographic order, all of unit weight."""
        v = np.arange(height * width)
        right = v[v % width != width - 1]
        down = v[v < (height - 1) * width]
        a = np.concatenate([right, down])
        b = np.concatenate([right + 1, down + width])
        order = np.lexsort((b, a))
        g = build_grid_graph(height, width)
        assert g.edge_a.dtype == np.int64 and g.edge_b.dtype == np.int64
        assert np.array_equal(g.edge_a, a[order])
        assert np.array_equal(g.edge_b, b[order])
        assert np.array_equal(g.edge_w, np.ones(a.size))

    def test_only_grid_builds_carry_a_grid_shape(self, rng):
        """A grid knows its (height, width); a graph from an edge list does
        not, even when the edges are exactly a grid's, nor does a k-NN graph."""
        grid = build_grid_graph(3, 4)
        assert grid.grid_shape == (3, 4)
        assert build_grid_graph(4, 3).grid_shape == (4, 3)
        same = Graph.from_edges(grid.n, grid.edge_a, grid.edge_b, grid.edge_w)
        assert np.array_equal(same.laplacian.toarray(), grid.laplacian.toarray())
        assert same.grid_shape is None
        assert build_knn_graph(rng.normal(size=(20, 2)), 5).grid_shape is None

    @pytest.mark.parametrize(
        "edges",
        [
            # the 3x3 grid's edges at weight 2: its slices multiplied by 1, its CSR by 2
            lambda g: (9, g.edge_a, g.edge_b, 2 * g.edge_w, (3, 3)),
            # a 4-vertex path is no 2x2 grid
            lambda g: (4, np.array([0, 1, 2]), np.array([1, 2, 3]), np.ones(3), (2, 2)),
            # the 3x3 grid's edges and vertex count, read as a 1x9 or a 9x1 grid
            lambda g: (9, g.edge_a, g.edge_b, g.edge_w, (1, 9)),
            lambda g: (9, g.edge_a, g.edge_b, g.edge_w, (9, 1)),
            # one edge short of the grid, and n not height * width
            lambda g: (9, g.edge_a[1:], g.edge_b[1:], g.edge_w[1:], (3, 3)),
            lambda g: (10, g.edge_a, g.edge_b, g.edge_w, (3, 3)),
            lambda g: (9, g.edge_a, g.edge_b, g.edge_w, (-3, -3)),
        ],
        ids=["weight-2", "path", "1x9", "9x1", "edge-short", "n", "negative"],
    )
    def test_grid_shape_must_match_the_edges(self, edges):
        """Three solves trust a grid shape to mean the unit-weight grid, so
        a Graph whose edges are not that grid's cannot carry one."""
        g = build_grid_graph(3, 3)
        with pytest.raises(InvalidArgumentError, match="grid"):
            Graph(*edges(g))
        assert Graph(9, g.edge_a, g.edge_b, g.edge_w, (3, 3)).grid_shape == (3, 3)

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_grid_graph(0, 5)
        with pytest.raises(InvalidArgumentError):
            build_grid_graph(1, 1)

    def test_duplicate_edges_and_self_loops_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Graph.from_edges(3, [0, 1, 1], [1, 0, 2], [1.0, 2.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            Graph.from_edges(3, [0, 1], [0, 2], [1.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            Graph.from_edges(3, [0, 1], [1, 2], [-1.0, 1.0])

    def test_vertex_count_and_ids_validated(self):
        with pytest.raises(InvalidArgumentError, match="at least one vertex"):
            Graph.from_edges(0, [0], [1], [1.0])
        for a, b in (([0, 3], [1, 2]), ([0, 1], [-1, 2])):
            with pytest.raises(InvalidArgumentError, match="edge endpoint out of range"):
                Graph.from_edges(3, a, b, [1.0, 1.0])

    def test_edge_arrays_validated(self):
        ones = [1.0, 1.0]
        for a, b, w in [
            ([0, 1.7], [1, 2], ones),  # fractional id, not truncated
            (np.array([0.0, 1.0]), [1, 2], ones),  # float ids
            ([0, 1], [1, 2], [1.0]),  # length mismatch
            ([0, 1, 0], [1, 2], [1.0, 1.0, 1.0]),
            ([[0, 1]], [[1, 2]], [ones]),  # 2-D
            ([], [], []),  # no edges
        ]:
            with pytest.raises(InvalidArgumentError):
                Graph.from_edges(3, a, b, w)
        g = Graph.from_edges(3, np.array([2, 0], dtype=np.int32), [1, 1], ones)
        assert g.edge_a.tolist() == [0, 1] and g.edge_b.tolist() == [1, 2]

    @pytest.mark.parametrize(
        "n,a,b,w,error,message",
        [
            # an edge stored as (1, 0), a negative weight and vertex 3 isolated
            (4, [1, 0], [0, 2], [-1.0, 1.0], InvalidArgumentError, "edge_a < edge_b"),
            (3, [0, 1], [1, 2], [1.0, -1.0], InvalidArgumentError, "finite and positive"),
            (3, [0, 1], [1, 2], [1.0, np.nan], InvalidArgumentError, "finite and positive"),
            (3, [0, 1], [1, 2], [1.0, np.inf], InvalidArgumentError, "finite and positive"),
            (3, [0, 1], [1, 3], [1.0, 1.0], InvalidArgumentError, "out of range"),
            (3, [-1, 0], [0, 1], [1.0, 1.0], InvalidArgumentError, "out of range"),
            (3, [0, 1], [1, 1], [1.0, 1.0], InvalidArgumentError, "self-loops"),
            (3, [1, 0], [2, 1], [1.0, 1.0], InvalidArgumentError, "lexicographic order"),
            (3, [0, 0, 1], [1, 1, 2], [1.0, 1.0, 1.0], InvalidArgumentError,
             "duplicate edge (0, 1)"),
            (4, [0, 2], [1, 3], [1.0, 1.0], GraphDisconnectedError, "2 connected components"),
            (3, [0.0, 1.0], [1, 2], [1.0, 1.0], InvalidArgumentError, "integer vertex ids"),
            (3, [0, 1], [1], [1.0, 1.0], InvalidArgumentError, "equal length"),
            (3, [], [], [], InvalidArgumentError, "at least one edge"),
            (0, [0], [1], [1.0], InvalidArgumentError, "at least one vertex"),
        ],
        ids=[
            "reversed", "negative-weight", "nan-weight", "inf-weight", "past-n",
            "negative-id", "self-loop", "unsorted", "duplicate", "disconnected",
            "float-ids", "lengths", "no-edges", "no-vertices",
        ],
    )
    def test_constructor_validates_every_graph(self, n, a, b, w, error, message):
        """Every Graph is checked when it is built, not only those that come
        through from_edges."""
        with pytest.raises(error, match=re.escape(message)):
            Graph(n, np.array(a), np.array(b), np.array(w, dtype=np.float64))

    def test_constructor_refuses_non_numeric_weights(self):
        with pytest.raises(InvalidArgumentError, match="finite and positive"):
            Graph(3, np.array([0, 1]), np.array([1, 2]), np.array(["1", "2"]))

    def test_connectivity_is_checked_once(self, rng):
        """from_edges only coerces, orients and sorts, so the constructor's
        pass over the edges runs once on the from_edges and k-NN paths; a
        grid passes its grid check alone."""
        labels = mock.Mock(wraps=graphs._component_labels)
        with mock.patch.object(graphs, "_component_labels", labels):
            Graph.from_edges(3, [1, 0], [2, 1], [1.0, 1.0])
            assert labels.call_count == 1
            build_knn_graph(rng.normal(size=(30, 2)), 4)
            assert labels.call_count == 2
            build_grid_graph(5, 6)
            assert labels.call_count == 2

    def test_disconnected_rejected_with_components(self):
        with pytest.raises(GraphDisconnectedError) as err:
            Graph.from_edges(4, [0, 2], [1, 3], [1.0, 1.0])
        comps = {frozenset(c) for c in err.value.components}
        assert comps == {frozenset({0, 1}), frozenset({2, 3})}

    def test_connectivity_check_agrees_with_union_find(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, 2 * n))
            pairs = set()
            while len(pairs) < k:
                u, v = sorted(int(x) for x in rng.integers(0, n, 2))
                if u != v:
                    pairs.add((u, v))
            a, b = zip(*pairs)
            ncomp = union_find_components(n, pairs)
            if ncomp == 1:
                Graph.from_edges(n, a, b, np.ones(len(a)))
            else:
                with pytest.raises(GraphDisconnectedError) as err:
                    Graph.from_edges(n, a, b, np.ones(len(a)))
                assert len(err.value.components) == ncomp


def bfs_labels(n, a, b):
    """Each vertex's least connected vertex, by breadth-first search."""
    adj = [[] for _ in range(n)]
    for u, v in zip(a.tolist(), b.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    labels = [-1] * n
    for root in range(n):
        if labels[root] < 0:
            labels[root] = root
            queue = collections.deque([root])
            while queue:
                for v in adj[queue.popleft()]:
                    if labels[v] < 0:
                        labels[v] = root
                        queue.append(v)
    return np.array(labels)


class TestConnectivity:
    def test_labels_match_breadth_first_search_on_random_graphs(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 200))
            m = int(rng.integers(0, 2 * n))
            a, b = rng.integers(0, n, m), rng.integers(0, n, m)
            labels = graphs._component_labels(n, a, b)
            assert np.array_equal(labels, bfs_labels(n, a, b))

    @pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
    def test_labels_on_a_long_path(self, order):
        n = 10**5
        perm = {
            "sorted": np.arange(n),
            "reversed": np.arange(n)[::-1],
            "shuffled": np.random.default_rng(7).permutation(n),
        }[order]
        # the path visits the vertices in perm's order, edges in a second order
        a, b = perm[:-1], perm[1:]
        edges = np.random.default_rng(8).permutation(n - 1)
        labels = graphs._component_labels(n, a[edges], b[edges])
        assert np.array_equal(labels, np.zeros(n, dtype=labels.dtype))
        # cut the path in the middle: two components, each labelled by its least vertex
        keep = np.arange(n - 1) != n // 2
        labels = graphs._component_labels(n, a[keep], b[keep])
        assert np.array_equal(labels, bfs_labels(n, a[keep], b[keep]))

    def test_components_listed_in_csgraph_order(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 60))
            pairs = {tuple(sorted(p)) for p in rng.integers(0, n, (n // 2 + 1, 2)).tolist()}
            a, b = np.array([p for p in pairs if p[0] != p[1]] or [(0, 1)]).T
            adj = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(n, n))
            ncomp, labels = connected_components(adj, directed=False)
            if ncomp == 1:
                continue
            with pytest.raises(GraphDisconnectedError, match=f"has {ncomp} connected") as err:
                Graph.from_edges(n, a, b, np.ones(a.size))
            assert err.value.components == [
                np.flatnonzero(labels == c).tolist() for c in range(ncomp)
            ]


def knn_directed(points, k):
    """Brute-force directed k-NN affinities from the full distance matrix.

    Neighbors by a stable sort of each row of cdist (ties by index),
    affinity exp(-d^2 / (sigma_a sigma_b)) with 1 at d = 0.  Returns the
    (row, col, affinity) triplets of W.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    dist = cdist(pts, pts)
    np.fill_diagonal(dist, np.inf)
    nbrs = np.argsort(dist, axis=1, kind="stable")[:, :k]
    sigma = dist[np.arange(n), nbrs[:, -1]]
    rows = np.repeat(np.arange(n), k)
    cols = nbrs.ravel()
    d = dist[rows, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        aff = np.where(d == 0.0, 1.0, np.exp(-(d**2) / (sigma[rows] * sigma[cols])))
    return rows, cols, aff


def knn_reference(points, k):
    """The k-NN graph's edges: :func:`knn_directed` symmetrized densely as
    (W + W^T) / 2, zero affinities dropped."""
    n = len(points)
    rows, cols, aff = knn_directed(points, k)
    w = np.zeros((n, n))
    w[rows, cols] = aff
    sym = (w + w.T) / 2.0
    a, b = np.nonzero(np.triu(sym, k=1))
    return a, b, sym[a, b]


class TestKnn:
    @pytest.mark.parametrize(
        "case, k",
        [("random", 3), ("random", 5), ("random", 12), ("lattice", 3),
         ("lattice", 5), ("lattice", 10), ("duplicates", 5), ("duplicates", 8)],
    )
    def test_matches_brute_force_distance_matrix_bitwise(self, case, k):
        rng = np.random.default_rng(k)
        if case == "random":
            pts = rng.normal(size=(400, 4)) * rng.uniform(0.1, 10.0, size=4)
        elif case == "lattice":
            # integer points: many neighbors at exactly the k-th distance
            pts = np.array([(r, c) for r in range(15) for c in range(15)], float)
        else:
            # every point three times, plus exact lattice ties between them
            base = rng.integers(0, 6, size=(60, 2)).astype(float)
            pts = rng.permutation(np.repeat(np.unique(base, axis=0), 3, axis=0))
        g = build_knn_graph(pts, k)
        a, b, w = knn_reference(pts, k)
        assert np.array_equal(g.edge_a, a)
        assert np.array_equal(g.edge_b, b)
        assert np.array_equal(g.edge_w, w)

    def test_coincident_points_have_unit_affinity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # sigma = 0 for every point: each pair is coincident
            g = build_knn_graph(np.zeros((4, 2)), 3)
            assert g.edge_w.size == 6 and np.all(g.edge_w == 1.0)
            g = build_knn_graph([[0.0], [0.0], [1.0], [3.0]], 2)
        got = {(a, b): w for a, b, w in zip(g.edge_a, g.edge_b, g.edge_w)}
        assert got[(0, 1)] == 1.0

    def test_coincident_cluster_disconnection_names_components(self):
        # points 0-2 coincide, so their kernel width is 0 and point 3's
        # affinity to them is exp(-inf) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphDisconnectedError) as err:
                build_knn_graph([[0.0], [0.0], [0.0], [1.0]], 2)
        assert {frozenset(c) for c in err.value.components} == {
            frozenset({0, 1, 2}),
            frozenset({3}),
        }

    def test_three_collinear_equidistant_points(self):
        # kernel with k=1: sigma_a = 1 for all, so each directed weight is
        # exp(-1); symmetrizing halves the single-direction end pairs
        pts = np.array([[0.0], [1.0], [2.0]])
        g = build_knn_graph(pts, 1)
        assert g.n == 3 and g.edge_w.size == 2
        w = np.exp(-1.0)
        # middle point ties to index 0; both end points pick the middle
        expect = {(0, 1): w, (1, 2): w / 2.0}
        got = {(a, b): w_ for a, b, w_ in zip(g.edge_a, g.edge_b, g.edge_w)}
        assert set(got) == set(expect)
        for key in expect:
            assert got[key] == pytest.approx(expect[key], rel=1e-12)

    def test_k_equals_n_minus_1_gives_complete_graph(self, rng):
        pts = rng.normal(size=(7, 3))
        g = build_knn_graph(pts, 6)
        assert g.edge_w.size == 7 * 6 // 2

    def test_two_far_pairs_disconnected(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.1], [50.0, 0.0], [50.0, 0.1]])
        with pytest.raises(GraphDisconnectedError) as err:
            build_knn_graph(pts, 1)
        assert {frozenset(c) for c in err.value.components} == {
            frozenset({0, 1}),
            frozenset({2, 3}),
        }

    def test_k_out_of_range(self, rng):
        pts = rng.normal(size=(5, 2))
        with pytest.raises(InvalidArgumentError):
            build_knn_graph(pts, 5)
        for k in (0, -1):
            with pytest.raises(InvalidArgumentError, match="k must be positive"):
                build_knn_graph(pts, k)

    def test_points_must_be_a_matrix(self, rng):
        with pytest.raises(InvalidArgumentError, match="n-by-d"):
            build_knn_graph(rng.normal(size=5), 2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_points_rejected(self, rng, bad):
        pts = rng.normal(size=(6, 2))
        pts[3, 1] = bad
        with pytest.raises(InvalidArgumentError, match="points must be finite"):
            build_knn_graph(pts, 2)

    def test_weights_in_unit_interval(self, rng):
        pts = rng.normal(size=(40, 2))
        g = build_knn_graph(pts, 4)
        assert np.all(g.edge_w > 0) and np.all(g.edge_w <= 1.0)

    @pytest.mark.parametrize("e", [-1000, -300, 0, 300, 900])
    def test_scaling_by_a_power_of_two_is_bitwise(self, e):
        """The kernel does not see the points' scale, and neither does the
        graph: no squared distance underflows or overflows."""
        rng = np.random.default_rng(3)
        # magnitudes in [1/2, 8) or exactly 0, so 2^e x stays a normal number
        pts = rng.choice([-1.0, 1.0], (300, 3)) * rng.uniform(0.5, 8.0, (300, 3))
        pts[rng.uniform(size=pts.shape) < 0.1] = 0.0
        pts[100:130] = pts[:30]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = build_knn_graph(np.ldexp(pts, e), 6)
        want = build_knn_graph(pts, 6)
        for x, y in ((got.edge_a, want.edge_a), (got.edge_b, want.edge_b),
                     (got.edge_w, want.edge_w)):
            assert x.tobytes() == y.tobytes()

    def test_tiny_points_give_the_path(self):
        """At 2^-1000 the squared distances underflow unless the points are
        scaled first; the graph is then a star on vertex 0."""
        g = build_knn_graph(np.ldexp([[1.0], [2.0], [3.0], [4.0]], -1000), 1)
        assert list(zip(g.edge_a, g.edge_b)) == [(0, 1), (1, 2), (2, 3)]
        w = np.exp(-1.0)
        # ends: one direction only; middle pair (1, 2): 1 -> 0 wins its tie
        assert g.edge_w.tolist() == [w, w / 2.0, w / 2.0]

    @pytest.mark.parametrize("block_bytes", [1, 3000, 40000])
    def test_small_blocks_give_the_same_graph(self, block_bytes):
        """Blocks as small as one row and m + 1 candidate columns tile the
        distances without changing the graph."""
        rng = np.random.default_rng(11)
        # each point three times: ties at the k-th distance past the candidates
        lattice = np.repeat([(r, c) for r in range(6) for c in range(6)], 3, axis=0)
        for pts, k in ((rng.normal(size=(150, 3)), 4), (lattice.astype(float), 5)):
            with mock.patch.object(graphs, "_BLOCK_BYTES", block_bytes):
                g = build_knn_graph(pts, k)
            a, b, w = knn_reference(pts, k)
            assert np.array_equal(g.edge_a, a) and np.array_equal(g.edge_b, b)
            assert g.edge_w.tobytes() == w.tobytes()

    def test_same_graph_at_one_and_two_blas_threads(self, tmp_path):
        """Candidates come from BLAS, whose sums may change with its thread
        count; the certified neighbors, and so the graph, do not."""
        rng = np.random.default_rng(5)
        pts = rng.poisson(3.0, (1500, 40)).astype(float)
        pts[rng.uniform(size=pts.shape) < 0.6] = 0.0
        pts[:60] = pts[60:120]
        np.save(tmp_path / "pts.npy", pts)
        code = (
            "import hashlib, sys, numpy as np\n"
            "from graphdenoise import build_knn_graph\n"
            "g = build_knn_graph(np.load(sys.argv[1]), 10)\n"
            "print(hashlib.sha256(g.edge_a.tobytes() + g.edge_b.tobytes()"
            " + g.edge_w.tobytes()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", code, str(tmp_path / "pts.npy")],
                env=env, capture_output=True, text=True, check=True,
            )
            digests.append(done.stdout.strip())
        g = build_knn_graph(pts, 10)
        here = hashlib.sha256(g.edge_a.tobytes() + g.edge_b.tobytes() + g.edge_w.tobytes())
        assert digests == [here.hexdigest()] * 2


@st.composite
def _knn_inputs(draw):
    """Points with distance ties (small integer lattices), repeated rows, large
    offsets and subnormal coordinates, and a neighbor count k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(3, 40)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        pts = rng.integers(0, draw(st.integers(1, 4)), (n, d)).astype(float)
    else:
        pts = rng.normal(size=(n, d))
    if draw(st.booleans()):
        pts = pts[rng.integers(0, max(1, n // 3), n)]
    pts = np.ldexp(pts + draw(st.sampled_from([0.0, 1e6, -(2.0**40)])),
                   draw(st.sampled_from([0, -1060, -700, 900])))
    return pts, draw(st.integers(1, min(n - 1, 8)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_knn_inputs())
def _knn_matches_reference(case):
    pts, k = case
    # the reference sees the points as the build does, scaled by a power of two
    scaled = np.ldexp(pts, -np.frexp(np.abs(pts).max())[1])
    a, b, w = knn_reference(scaled, k)
    labels = bfs_labels(len(pts), a, b)
    comps = [np.flatnonzero(labels == r).tolist() for r in np.unique(labels)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            g = build_knn_graph(pts, k)
        except GraphDisconnectedError as err:
            assert err.components == comps and len(comps) > 1
            return
    assert len(comps) == 1
    assert np.array_equal(g.edge_a, a) and np.array_equal(g.edge_b, b)
    assert g.edge_w.tobytes() == w.tobytes()


@pytest.fixture
def fallback_rows(monkeypatch):
    """The rows that the k-NN search's fallback recomputes; each call's
    neighbors and distances are checked to be bitwise those of an exact
    recompute against all points."""
    reached = []
    fallback = graphs._fallback_nearest

    def checked(pts, c, sq, rows, reach, k):
        got = fallback(pts, c, sq, rows, reach, k)
        every = np.broadcast_to(np.arange(len(pts)), (rows.size, len(pts)))
        want = graphs._exact_nearest(pts, rows, every, k)[:2]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        reached.extend(rows.tolist())
        return got

    monkeypatch.setattr(graphs, "_fallback_nearest", checked)
    return reached


def test_knn_matches_the_brute_force_reference_and_reaches_the_fallback(fallback_rows):
    """Bitwise the brute-force graph on ties, repeated rows, large offsets and
    tiny points; some rows fall back, and get bitwise the neighbors of a
    recompute against all points."""
    _knn_matches_reference()
    assert fallback_rows


@pytest.mark.parametrize("case", ["tripled-lattice", "rounded", "repeated"])
def test_fallback_recomputes_the_neighbors_of_all_points(fallback_rows, case):
    """The fallback recomputes exactly only the points near each row's k-th
    candidate distance, and matches the recompute against all points
    bitwise: on a 6 x 6 lattice with each point three times, on points
    rounded to one decimal with some repeated, and on 100 points in 8-D
    each repeated 30 times, where every row falls back."""
    rng = np.random.default_rng(0)
    if case == "tripled-lattice":
        pts = np.repeat([(r, c) for r in range(6) for c in range(6)], 3, axis=0)
        k = 5
    elif case == "rounded":
        tied = np.round(rng.uniform(size=(150, 3)), 1)
        pts, k = np.concatenate([tied, tied[:20]]), 6
    else:
        pts, k = np.repeat(rng.uniform(size=(100, 8)), 30, axis=0), 10
    pts = np.asarray(pts, dtype=np.float64)
    graphs._nearest(np.ldexp(pts, -np.frexp(np.abs(pts).max())[1]), k)
    assert fallback_rows
    if case == "repeated":
        assert sorted(fallback_rows) == list(range(len(pts)))


class TestOperators:
    def test_constant_signal_in_null_space(self, p3):
        assert np.allclose(p3.laplacian @ np.full(3, 2.5), 0.0)
        assert dirichlet_energy(p3, np.full(3, 2.5)) == 0.0

    def test_p3_hand_values(self, p3):
        f = np.array([1.0, 0.0, 0.0])
        assert np.allclose(p3.laplacian @ f, [1.0, -1.0, 0.0])
        assert dirichlet_energy(p3, f) == pytest.approx(1.0)

    def test_eigenvector_reproduction(self, rng):
        g = random_connected_graph(12, 6, rng)
        lam, psi = np.linalg.eigh(dense_laplacian(g))
        for i in (1, 5, 11):
            got = g.laplacian @ psi[:, i]
            assert np.allclose(got, lam[i] * psi[:, i], atol=1e-10)

    def test_incidence_factorization_on_random_vectors(self, rng):
        g = random_connected_graph(20, 10, rng)
        b = dense_incidence(g)
        for _ in range(5):
            f = rng.normal(size=g.n)
            lhs = b.T @ (b @ f)
            rhs = g.laplacian @ f
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_energy_equals_quadratic_form_and_edge_norm(self, rng):
        g = random_connected_graph(15, 8, rng)
        f = rng.normal(size=g.n)
        e = dirichlet_energy(g, f)
        assert e == pytest.approx(float(f @ (g.laplacian @ f)), rel=1e-12)
        bf = dense_incidence(g) @ f
        assert e == pytest.approx(float(bf @ bf), rel=1e-12)

    def test_length_mismatch_rejected(self, p3):
        with pytest.raises(InvalidArgumentError):
            dirichlet_energy(p3, [1.0, 2.0])


class TestTraces:
    def test_p3_hand_traces(self, p3):
        assert laplacian_trace(p3) == pytest.approx(4.0)
        assert laplacian_squared_trace(p3) == pytest.approx(10.0)

    def test_single_edge(self):
        g = build_grid_graph(1, 2)
        assert laplacian_trace(g) == pytest.approx(2.0)
        assert laplacian_squared_trace(g) == pytest.approx(4.0)

    def test_weight_scaling(self, rng):
        g = random_connected_graph(10, 5, rng)
        c = 3.7
        scaled = Graph.from_edges(g.n, g.edge_a, g.edge_b, c * g.edge_w)
        assert laplacian_trace(scaled) == pytest.approx(c * laplacian_trace(g))
        assert laplacian_squared_trace(scaled) == pytest.approx(
            c**2 * laplacian_squared_trace(g)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_laplacian_is_d_minus_a_and_knn_is_the_sparse_symmetrization(self, seed):
        """Graph.laplacian is the dense D - A of the edge list, and a k-NN
        graph's edges are bitwise a scipy (W + W^T) / 2 of its directed
        affinities, on points with distance ties and coincident points."""
        rng = np.random.default_rng(seed)
        tied = np.round(rng.uniform(size=(150, 3)), 1)
        pts = np.concatenate([tied, tied[:20]])
        knn = build_knn_graph(pts, 6)
        rows, cols, aff = knn_directed(pts, 6)
        w = sp.csr_matrix((aff, (rows, cols)), shape=(pts.shape[0],) * 2)
        ref = sp.triu((w + w.T) / 2.0, k=1).tocoo()
        order = np.lexsort((ref.col, ref.row))
        order = order[ref.data[order] > 0.0]
        assert np.array_equal(knn.edge_a, ref.row[order])
        assert np.array_equal(knn.edge_b, ref.col[order])
        assert np.array_equal(knn.edge_w, ref.data[order])
        for g in (random_connected_graph(60, 90, rng), build_grid_graph(7, 9), knn):
            lap, dense = g.laplacian, dense_laplacian(g)
            # scipy's canonical CSR of D - A: sorted, distinct, no zeros
            ref = sp.csr_matrix(dense)
            assert np.array_equal(lap.indptr, ref.indptr)
            assert np.array_equal(lap.indices, ref.indices)
            assert lap.data.size == g.n + 2 * g.edge_w.size
            np.testing.assert_allclose(lap.toarray(), dense, rtol=1e-14, atol=0)

    def test_traces_match_dense(self, rng):
        g = random_connected_graph(17, 9, rng)
        dl = dense_laplacian(g)
        assert laplacian_trace(g) == pytest.approx(np.trace(dl), rel=1e-12)
        assert laplacian_squared_trace(g) == pytest.approx(
            np.trace(dl @ dl), rel=1e-12
        )


def random_triplets(n: int, rng):
    """A random n x n matrix's triplets (rows, cols, data) at distinct
    positions, in shuffled order."""
    nnz = int(rng.integers(0, n * n // 2 + 2))
    keys = np.unique(rng.integers(0, n * n, nnz))
    rng.shuffle(keys)
    data = rng.normal(size=keys.size) * 10.0 ** rng.integers(-3, 4, keys.size)
    return keys // n, keys % n, data


class TestCsrMatrix:
    """The package's CSR type against scipy's as the oracle."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        rows, cols, data = random_triplets(n, rng)
        # sorted, distinct columns: scipy's canonical form
        oracle = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        dense = oracle.toarray()
        x = rng.normal(size=n) * 10.0 ** rng.integers(-5, 6, n)
        u = np.flatnonzero(rng.uniform(size=n) < rng.uniform())
        whole = CsrMatrix.from_triplets(n, rows, cols, data)
        for m, ref, v in ((whole, oracle, x), (whole.principal(u), oracle[u][:, u], x[u])):
            assert isinstance(m, CsrMatrix) and m.shape == ref.shape
            assert np.array_equal(m.indptr, ref.indptr)
            assert np.array_equal(m.indices, ref.indices)
            assert m.data.tobytes() == ref.data.tobytes()
            assert np.array_equal(m.toarray(), ref.toarray())
            assert np.array_equal(m.diagonal(), ref.diagonal())
            assert (m @ v).tobytes() == (ref @ v).tobytes()
        assert np.array_equal(whole.principal(u).toarray(), dense[np.ix_(u, u)])

    def test_laplacians_multiply_bitwise_as_scipy(self, rng):
        """Graph Laplacians and their restrictions multiply bitwise as
        scipy's CSR copies of them do."""
        pts = rng.uniform(size=(400, 5))
        grids = [build_grid_graph(*shape) for shape in ((20, 30), (1, 7), (7, 1))]
        for g in (*grids, build_knn_graph(pts, 8)):
            for m in (g.laplacian, restrict_laplacian(g, rng.uniform(size=g.n) < 0.4)):
                x = rng.normal(size=m.shape[0])
                ref = as_scipy(m)
                assert (m @ x).tobytes() == (ref @ x).tobytes()

    def test_grid_product_is_bitwise_the_csr_product(self, rng):
        """A grid's Laplacian multiplies by shifted slices; the result is,
        bit for bit, the CSR product of its own arrays, on every kind of
        entry, and raises nothing under any error state."""
        special = np.r_[
            np.copysign(np.nan, [1.0, -1.0]), np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310,
            1e308, -1e308,
        ]
        shapes = [(1, 2), (2, 1), (1, 7), (7, 1), (1, 64), (64, 1), (2, 2), (3, 5),
                  (9, 17), (16, 16), (33, 8), (64, 64)]
        shapes += [tuple(rng.integers(1, 65, 2)) for _ in range(20)]
        for h, w in shapes:
            if h * w < 2:
                continue
            lap = build_grid_graph(h, w).laplacian
            csr = CsrMatrix(lap.indptr, lap.indices, lap.data)
            xs = [rng.normal(size=h * w) * 10.0 ** rng.integers(-300, 300, h * w)
                  for _ in range(4)]
            for x in xs[1:]:
                some = rng.uniform(size=x.size) < rng.uniform()
                x[some] = rng.choice(special, some.sum())
            # NaN of both signs everywhere: every sum keeps its first NaN
            xs.append(np.copysign(np.nan, rng.uniform(-1.0, 1.0, h * w)))
            for x in xs:
                with np.errstate(all="raise"):
                    got = lap @ x
                    want = csr @ x
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (h, w)

    def test_only_a_whole_grid_multiplies_by_slices(self, rng):
        """The slice product belongs to a grid's Laplacian alone: its
        restrictions and every other graph's Laplacian are plain CSR
        matrices, with the same arrays as an edge-list copy of the grid."""
        g = build_grid_graph(6, 5)
        copy = Graph.from_edges(g.n, g.edge_a, g.edge_b, g.edge_w)
        assert copy.grid_shape is None and type(copy.laplacian) is CsrMatrix
        assert isinstance(g.laplacian, CsrMatrix) and type(g.laplacian) is not CsrMatrix
        for name in ("indptr", "indices", "data"):
            assert getattr(g.laplacian, name).tobytes() == getattr(copy.laplacian, name).tobytes()
        for mask in (rng.uniform(size=g.n) < 0.5, np.ones(g.n, dtype=bool)):
            assert type(restrict_laplacian(g, mask)) is CsrMatrix
        x = rng.normal(size=g.n)
        assert (g.laplacian @ x).tobytes() == (copy.laplacian @ x).tobytes()

    def test_product_raises_no_floating_point_error(self):
        """An overflow, or 0 * inf, shows in the result, as scipy's product
        shows it, and raises nothing under any error state."""
        m = Graph.from_edges(3, [0, 1], [1, 2], [1e308, 1.0]).laplacian
        ref = as_scipy(m)
        for x in ([10.0, -10.0, 0.0], [1.0, 1.0, np.inf]):
            x = np.array(x)
            with np.errstate(all="raise"):
                got = m @ x
            with np.errstate(all="ignore"):
                want = ref @ x
            assert not np.all(np.isfinite(got))
            np.testing.assert_array_equal(got, want)


class TestSetsAndRestrictions:
    def test_full_restriction_is_whole_operator(self, p3):
        v = np.ones(3, dtype=bool)
        assert np.allclose(
            restrict_laplacian(p3, v).toarray(), dense_laplacian(p3)
        )

    def test_p3_scalar_restriction(self, p3):
        s = vertex_mask(3, [1])
        assert np.allclose(restrict_laplacian(p3, s).toarray(), [[2.0]])

    def test_p3_adjacency_restriction_apply(self, p3):
        """dirichlet_system's linear term -(L f)(U) with f = 0 on U is the
        harmonic right-hand side A(U, K) f(K)."""
        u = vertex_mask(3, [1])
        f = np.array([1.0, 0.0, 1.0])
        gram, linear, energy = dirichlet_system(p3, f, u)
        assert np.array_equal(gram.toarray(), [[2.0]])
        assert linear == pytest.approx([2.0])
        assert energy(np.array([1.0])) == 0.0
        assert energy(np.array([0.0])) == dirichlet_energy(p3, f)

    def test_restrictions_match_dense_slices(self, rng):
        g = random_connected_graph(14, 7, rng)
        u = vertex_mask(g.n, [0, 3, 5, 9, 13])
        dl = dense_laplacian(g)
        assert np.allclose(restrict_laplacian(g, u).toarray(), dl[np.ix_(u, u)])

    def test_vertex_set_validation(self, p3):
        """Vertex sets are length-n boolean masks; nothing else is read as one."""
        bad = [
            np.array([0, 2]),  # an index array
            np.array([1, 0, 1]),  # 0/1 integers of the right length
            np.ones(2, dtype=bool),  # wrong length
            np.ones(4, dtype=bool),
            np.ones((3, 1), dtype=bool),  # 2-D
            np.ones((1, 3), dtype=bool),
        ]
        for s in bad:
            with pytest.raises(InvalidArgumentError):
                as_mask(s, 3)
            with pytest.raises(InvalidArgumentError):
                restrict_laplacian(p3, s)
        mask = np.array([True, False, True])
        assert as_mask(mask, 3) is mask


class TestStructuralInvariants:
    def test_dense_structure_small_graphs(self, rng):
        """L symmetric PSD with zero row sums and B'B = L for n <= 50."""
        for _ in range(10):
            n = int(rng.integers(2, 50))
            g = random_connected_graph(n, int(rng.integers(0, n)), rng)
            dl = dense_laplacian(g)
            assert np.allclose(dl, dl.T)
            assert np.allclose(dl.sum(axis=1), 0.0, atol=1e-12)
            w = np.linalg.eigvalsh(dl)
            assert w.min() > -1e-10
            db = dense_incidence(g)
            assert np.allclose(db.T @ db, dl, atol=1e-12)
            assert np.allclose(g.laplacian.toarray(), dl)

    def test_laplacian_apply_matches_dense_multiply(self, rng):
        g = random_connected_graph(30, 20, rng)
        dl = dense_laplacian(g)
        for _ in range(100):
            f = rng.normal(size=g.n)
            assert np.allclose(g.laplacian @ f, dl @ f, rtol=1e-12, atol=1e-12)
