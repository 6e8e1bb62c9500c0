import numpy as np
import pytest

from graphdenoise import (
    Graph,
    InvalidArgumentError,
    band_filter,
    build_grid_graph,
    build_knn_graph,
    eigendecompose,
    gft,
    local_average,
    magic_filter,
    nuclear_norm_denoise,
)

from conftest import dense_adjacency, random_connected_graph


class TestLocalAverage:
    def test_constant_unchanged(self, p3):
        f = np.full(3, 1.7)
        for t in (0, 1, 5):
            assert np.allclose(local_average(f, p3, t), f)

    def test_p3_one_step_by_hand(self, p3):
        out = local_average(np.array([1.0, 0.0, 0.0]), p3, 1)
        assert np.allclose(out, [0.0, 0.5, 0.0])

    def test_two_steps_compose(self, p3, rng):
        f = rng.normal(size=3)
        once = local_average(local_average(f, p3, 1), p3, 1)
        assert np.allclose(local_average(f, p3, 2), once)

    def test_negative_t_rejected(self, p3):
        with pytest.raises(InvalidArgumentError):
            local_average(np.zeros(3), p3, -1)


class TestMagicFilter:
    def test_t_zero_identity(self, p3, rng):
        f = rng.normal(size=3)
        assert np.array_equal(magic_filter(f, p3, 0), f)

    def test_constant_preserved(self, p3):
        f = np.full(3, -2.0)
        assert np.allclose(magic_filter(f, p3, 7), f)

    def test_p3_matches_dense_lazy_walk(self, p3):
        f = np.array([1.0, 0.0, 0.0])
        da = dense_adjacency(p3)
        walk = (np.eye(3) + da / da.sum(axis=1, keepdims=True)) / 2.0
        assert np.allclose(magic_filter(f, p3, 1), walk @ f, atol=1e-12)

    def test_matches_dense_powers(self, rng):
        g = random_connected_graph(40, 20, rng)
        da = dense_adjacency(g)
        walk = (np.eye(g.n) + da / da.sum(axis=1, keepdims=True)) / 2.0
        f = rng.normal(size=g.n)
        dense = f.copy()
        for t in range(1, 8):
            dense = walk @ dense
            assert np.allclose(magic_filter(f, g, t), dense, atol=1e-8)

    def test_sup_norm_nonexpansive(self, rng):
        g = random_connected_graph(25, 10, rng)
        f = rng.normal(size=g.n)
        for t in (1, 3, 9):
            assert np.max(np.abs(magic_filter(f, g, t))) <= np.max(np.abs(f)) + 1e-12


class TestBandFilter:
    def test_keep_all_is_identity(self, rng):
        g = random_connected_graph(12, 6, rng)
        basis = eigendecompose(g)
        f = rng.normal(size=g.n)
        assert np.allclose(band_filter(f, basis, g.n, "low"), f, atol=1e-10)

    def test_keep_one_low_is_mean(self, rng):
        g = random_connected_graph(10, 5, rng)
        basis = eigendecompose(g)
        f = rng.normal(size=g.n)
        assert np.allclose(band_filter(f, basis, 1, "low"), f.mean(), atol=1e-10)

    def test_complementary_bands_sum_to_identity(self, rng):
        g = random_connected_graph(14, 7, rng)
        basis = eigendecompose(g)
        f = rng.normal(size=g.n)
        k = 5
        lo = band_filter(f, basis, k, "low")
        hi = band_filter(f, basis, g.n - k, "high")
        assert np.allclose(lo + hi, f, atol=1e-10)

    def test_idempotent_orthogonal_projection(self, rng):
        g = random_connected_graph(11, 5, rng)
        basis = eigendecompose(g)
        f = rng.normal(size=g.n)
        h = rng.normal(size=g.n)
        for keep in ("low", "high"):
            once = band_filter(f, basis, 4, keep)
            assert np.allclose(band_filter(once, basis, 4, keep), once, atol=1e-10)
            # self-adjoint: <Pf, h> = <f, Ph>
            assert float(once @ h) == pytest.approx(
                float(f @ band_filter(h, basis, 4, keep)), abs=1e-8
            )

    def test_validation(self, rng):
        g = random_connected_graph(6, 2, rng)
        basis = eigendecompose(g)
        with pytest.raises(InvalidArgumentError):
            band_filter(np.zeros(6), basis, 7, "low")
        with pytest.raises(InvalidArgumentError):
            band_filter(np.zeros(6), basis, 2, "mid")


class TestNuclearNorm:
    def test_tau_zero_identity(self, rng):
        f = rng.normal(size=12)
        out = nuclear_norm_denoise(f, build_grid_graph(3, 4), 0.0)
        assert np.allclose(out, f, atol=1e-12)

    def test_tau_above_top_singular_value_zeroes(self, rng):
        f = rng.normal(size=12)
        sigma_max = np.linalg.svd(f.reshape(3, 4), compute_uv=False)[0]
        out = nuclear_norm_denoise(f, build_grid_graph(3, 4), sigma_max + 1.0)
        assert np.allclose(out, 0.0)

    def test_rank_one_shrinks_singular_value(self):
        u = np.array([3.0, 4.0]) / 5.0
        v = np.array([1.0, 0.0, 0.0])
        mat = 3.0 * np.outer(u, v)
        out = nuclear_norm_denoise(mat.ravel(), build_grid_graph(2, 3), 1.0)
        assert np.allclose(out.reshape(2, 3), 2.0 * np.outer(u, v), atol=1e-12)

    def test_singular_values_soft_thresholded(self, rng):
        f = rng.normal(size=(5, 6))
        tau = 0.9
        out = nuclear_norm_denoise(f.ravel(), build_grid_graph(5, 6), tau)
        s_in = np.linalg.svd(f, compute_uv=False)
        s_out = np.linalg.svd(out.reshape(5, 6), compute_uv=False)
        assert np.allclose(s_out, np.maximum(s_in - tau, 0.0), atol=1e-10)

    def test_shift_bounded_by_tau_times_sqrt_rank(self, rng):
        f = rng.normal(size=(6, 6))
        tau = 0.5
        out = nuclear_norm_denoise(f.ravel(), build_grid_graph(6, 6), tau).reshape(6, 6)
        rank = np.linalg.matrix_rank(f)
        assert np.linalg.norm(out - f, "fro") <= tau * np.sqrt(rank) + 1e-10

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            nuclear_norm_denoise(rng.normal(size=10), build_grid_graph(3, 4), 1.0)

    def test_non_grid_graph_rejected(self, rng):
        """The matrix layout comes from the graph: a k-NN graph has none, and
        neither has an edge list that happens to form a grid."""
        knn = build_knn_graph(rng.normal(size=(12, 2)), 5)
        with pytest.raises(InvalidArgumentError, match="needs a grid graph"):
            nuclear_norm_denoise(rng.normal(size=12), knn, 1.0)
        grid = build_grid_graph(3, 4)
        edges = Graph.from_edges(12, grid.edge_a, grid.edge_b, grid.edge_w)
        with pytest.raises(InvalidArgumentError, match="needs a grid graph"):
            nuclear_norm_denoise(rng.normal(size=12), edges, 1.0)

    def test_empty_side_rejected(self):
        with pytest.raises(InvalidArgumentError):
            nuclear_norm_denoise(np.zeros(0), build_grid_graph(0, 4), 1.0)
