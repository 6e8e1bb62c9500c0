import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from graphdenoise import (
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
from graphdenoise.graphs import as_mask

from conftest import (
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
            lap = g.laplacian
            assert lap.has_canonical_format and lap.nnz == g.n + 2 * g.edge_w.size
            np.testing.assert_allclose(lap.toarray(), dense_laplacian(g), rtol=1e-14, atol=0)

    def test_traces_match_dense(self, rng):
        g = random_connected_graph(17, 9, rng)
        dl = dense_laplacian(g)
        assert laplacian_trace(g) == pytest.approx(np.trace(dl), rel=1e-12)
        assert laplacian_squared_trace(g) == pytest.approx(
            np.trace(dl @ dl), rel=1e-12
        )


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
