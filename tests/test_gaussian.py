import warnings

import numpy as np
import pytest

from graphdenoise import (
    DegenerateSignalError,
    Graph,
    InvalidArgumentError,
    build_grid_graph,
    denoise_gaussian,
    dirichlet_energy,
    eigendecompose,
    estimate_tau,
    laplacian_squared_trace,
    laplacian_trace,
    nonneg_moment_fit,
    sample_prior,
)

from conftest import dense_laplacian, random_connected_graph


class TestDenoise:
    def test_tau_zero_is_identity(self, p3, rng):
        g = rng.normal(size=3)
        out = denoise_gaussian(g, p3, 0.0)
        assert np.array_equal(out.signal, g)
        assert out.iterations == 0

    def test_constant_observation_unchanged(self, p3):
        g = np.full(3, 4.2)
        out = denoise_gaussian(g, p3, 5.0)
        assert np.allclose(out.signal, g, atol=1e-10)

    def test_p3_dense_oracle(self, p3):
        g = np.array([1.0, 0.0, 0.0])
        expect = np.linalg.solve(np.eye(3) + dense_laplacian(p3), g)
        out = denoise_gaussian(g, p3, 1.0, tol=1e-12)
        assert np.allclose(out.signal, expect, atol=1e-10)

    def test_infinite_tau_returns_mean(self, p3, rng):
        g = rng.normal(size=3)
        out = denoise_gaussian(g, p3, np.inf)
        assert np.allclose(out.signal, g.mean())

    def test_negative_tau_rejected(self, p3):
        with pytest.raises(InvalidArgumentError):
            denoise_gaussian(np.zeros(3), p3, -0.1)

    def test_mean_preservation(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 80))
            g = random_connected_graph(n, int(rng.integers(0, n)), rng)
            sig = rng.normal(size=n) + 3.0
            out = denoise_gaussian(sig, g, float(rng.uniform(0.1, 10.0)))
            assert out.signal.sum() == pytest.approx(
                sig.sum(), rel=1e-8
            )

    def test_energy_shrinkage_and_monotone_smoothing(self, rng):
        g = random_connected_graph(30, 15, rng)
        sig = rng.normal(size=g.n)
        base = dirichlet_energy(g, sig)
        last = base
        for tau in (0.0, 0.1, 0.5, 1.0, 5.0, 25.0):
            e = dirichlet_energy(g, denoise_gaussian(sig, g, tau).signal)
            assert e <= base + 1e-9
            assert e <= last + 1e-9
            last = e

    def test_weighted_graphs_match_a_dense_filter_at_every_scale(self):
        """The scaled, mean-free system is one CG solve for every tau: on
        random graphs with weights spread over six decades it matches the
        dense spectral filter and converges from tau = 1e-300 to 1e307."""
        rng = np.random.default_rng(0)
        taus = (1e-300, 1e-6, 1e-2, 1.0, 50.0, 1e4, 1e8, 1e12, 1e16, 1e50, 1e153,
                1e200, 1e307)
        for _ in range(40):
            n = int(rng.integers(4, 40))
            edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
            for _ in range(int(rng.integers(0, n))):
                edges.add(tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False))))
            a, b = np.array(sorted(edges)).T
            g = Graph.from_edges(n, a, b, 10.0 ** rng.uniform(-3, 3, size=a.size))
            sig = rng.normal(size=n) + rng.normal()
            lam, psi = np.linalg.eigh(dense_laplacian(g))
            coeffs = psi.T @ sig
            for tau in taus:
                with np.errstate(over="ignore"):
                    gain = 1.0 / (1.0 + tau * np.maximum(lam, 0.0))
                gain[0] = 1.0
                out = denoise_gaussian(sig, g, tau)
                assert out.converged, (n, tau)
                np.testing.assert_allclose(out.signal, psi @ (gain * coeffs), rtol=1e-8)


class TestEstimateTau:
    def test_constant_signal_degenerate(self, p3):
        with pytest.raises(DegenerateSignalError):
            estimate_tau(np.full(3, 1.5), p3)

    def test_near_constant_signal_fits_tau_zero_without_warning(self):
        """A signal a few ulps from constant: g'Lg is read as the edge
        energy, which cannot round negative as g . (Lg) could, so the fit
        lands on the no-noise ray and the estimate is tau = 0, silently."""
        g = build_grid_graph(2, 2)
        sig = 3.0 + np.spacing(3.0) * np.arange(4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate_tau(sig, g) == 0.0

    def test_p3_hand_instance_moment_ratio(self, p3):
        """Dense-oracle check of the closed-form ratio on g = (1, 0, -1).

        The raw ratio is negative here, so the estimator must fall back to
        the nonnegative fit, which lands on the no-noise axis (tau = 0).
        """
        g = np.array([1.0, 0.0, -1.0])
        dl = dense_laplacian(p3)
        m1 = float(g @ dl @ g)
        m2 = float(g @ dl @ dl @ g)
        assert (m1, m2) == (2.0, 2.0)
        n, tr, tr2 = 3, laplacian_trace(p3), laplacian_squared_trace(p3)
        raw = ((n - 1) * m2 - tr * m1) / (tr2 * m1 - tr * m2)
        assert raw == pytest.approx(-1.0 / 3.0)
        s2, inv2k = nonneg_moment_fit(m1, m2, p3)
        assert s2 == 0.0 and inv2k > 0.0
        assert estimate_tau(g, p3) == 0.0

    def test_case1_positive_instance(self, rng):
        """A noisy smooth signal lands in the all-positive branch and the
        estimate matches the dense-oracle closed form."""
        g = random_connected_graph(40, 20, rng)
        basis = eigendecompose(g)
        sig = sample_prior(basis, 1.0, rng_seed=5) + 0.7 * rng.standard_normal(g.n)
        dl = dense_laplacian(g)
        m1 = float(sig @ dl @ sig)
        m2 = float(sig @ dl @ dl @ sig)
        n, tr, tr2 = g.n, laplacian_trace(g), laplacian_squared_trace(g)
        det = tr * tr - (n - 1) * tr2
        s2 = (tr * m1 - (n - 1) * m2) / det
        inv2k = (tr * m2 - tr2 * m1) / det
        assert s2 > 0 and inv2k > 0
        assert estimate_tau(sig, g) == pytest.approx(s2 / inv2k, rel=1e-12)

    def test_pooled_estimate_on_synthetic_signals(self):
        """k = 10^4 signals at tau = 0.5: the pooled estimate lands in
        [0.45, 0.55]."""
        master = np.random.default_rng(2024)
        g = random_connected_graph(60, 30, master)
        basis = eigendecompose(g)
        kappa, sigma2 = 1.0, 0.25  # tau = 0.5
        k = 10_000
        signals = np.empty((k, g.n))
        for j in range(k):
            f = sample_prior(basis, kappa, rng_seed=10_000 + j)
            signals[j] = f + np.sqrt(sigma2) * master.standard_normal(g.n)
        tau_hat = estimate_tau(signals, g)
        assert 0.45 <= tau_hat <= 0.55

    def test_weight_underflowing_in_the_scaling_is_fitted(self):
        """The weights are scaled to a largest weight in [1, 2); a light
        weight that underflows to 0 there is read as 0, not refused as a
        graph's weight would be."""
        g = Graph.from_edges(3, [0, 1], [1, 2], [1e-300, 1e300])
        signals = np.array([[1.0, 2.0, 4.0], [0.5, -1.0, 3.0]])
        assert estimate_tau(signals, g) == np.inf

    def test_multi_reduces_to_single_on_duplicates(self, rng):
        g = random_connected_graph(12, 6, rng)
        sig = rng.normal(size=g.n)
        single = estimate_tau(sig, g)
        multi = estimate_tau(np.tile(sig, (5, 1)), g)
        assert multi == pytest.approx(single, rel=1e-12, abs=1e-12)

    def test_multi_constant_rows_degenerate(self):
        """Rounding leaves ||Lg||^2 nonzero for a constant 0.1 on a grid,
        so constancy itself must be checked."""
        g = build_grid_graph(16, 16)
        with pytest.raises(DegenerateSignalError):
            estimate_tau(np.full((3, g.n), 0.1), g)
        with pytest.raises(DegenerateSignalError):
            estimate_tau(np.full(g.n, 0.1), g)

    def test_multi_empty_rejected(self, p3):
        with pytest.raises(InvalidArgumentError):
            estimate_tau(np.empty((0, 3)), p3)

    def test_multi_square_matrix_read_as_rows(self, rng):
        g = random_connected_graph(12, 6, rng)
        sig = rng.normal(size=g.n)
        # as rows this is n copies of sig; as columns every signal is constant
        square = np.tile(sig, (g.n, 1))
        assert estimate_tau(square, g) == pytest.approx(
            estimate_tau(sig, g), rel=1e-12, abs=1e-12
        )

    def test_multi_column_matrix_rejected(self, rng):
        g = random_connected_graph(12, 6, rng)
        with pytest.raises(InvalidArgumentError):
            estimate_tau(rng.normal(size=(g.n, 3)), g)
        with pytest.raises(InvalidArgumentError):
            estimate_tau(rng.normal(size=(2, 3, g.n)), g)


class TestNonnegMomentFit:
    def test_interior_target_equals_unconstrained_solve(self, rng):
        g = random_connected_graph(10, 5, rng)
        n, tr, tr2 = g.n, laplacian_trace(g), laplacian_squared_trace(g)
        m = np.array([[tr, n - 1.0], [tr2, tr]])
        x_true = np.array([0.8, 0.4])
        b = m @ x_true
        got = np.array(nonneg_moment_fit(b[0], b[1], g))
        assert np.allclose(got, x_true, atol=1e-12)

    @pytest.mark.parametrize("m1,m2", [(np.nan, 1.0), (1.0, np.inf)])
    def test_targets_must_be_finite(self, p3, m1, m2):
        with pytest.raises(InvalidArgumentError, match="moment targets must be finite"):
            nonneg_moment_fit(m1, m2, p3)

    def test_target_on_first_column(self, rng):
        g = random_connected_graph(9, 3, rng)
        tr, tr2 = laplacian_trace(g), laplacian_squared_trace(g)
        s2, inv2k = nonneg_moment_fit(0.7 * tr, 0.7 * tr2, g)
        assert s2 == pytest.approx(0.7, rel=1e-12)
        assert inv2k == 0.0

    def test_outside_cone_matches_grid_search(self, rng):
        g = random_connected_graph(11, 4, rng)
        n, tr, tr2 = g.n, laplacian_trace(g), laplacian_squared_trace(g)
        m = np.array([[tr, n - 1.0], [tr2, tr]])
        for _ in range(5):
            # a target below the shallow column's ray lies outside the cone
            coeffs = np.array([float(rng.uniform(0.2, 1.0)), -float(rng.uniform(0.1, 0.5))])
            b = m @ coeffs
            if b[0] <= 0 or b[1] <= 0:
                continue
            got = np.array(nonneg_moment_fit(b[0], b[1], g))
            xs = np.arange(0.0, 1.5001, 1e-3)
            best = None
            for x1 in xs:
                r = m @ np.array([x1, 0.0]) - b
                # minimize over x2 >= 0 in closed form per x1 to keep the
                # grid one-dimensional: residual is quadratic in x2
                col = m[:, 1]
                x2 = max(0.0, float(-(r @ col) / (col @ col)))
                val = float(np.linalg.norm(r + x2 * col))
                if best is None or val < best[0]:
                    best = (val, x1, x2)
            got_res = float(np.linalg.norm(m @ got - b))
            assert got_res <= best[0] + 1e-9
            assert abs(got[0] - best[1]) <= 1e-2 or got_res < best[0]
