import numpy as np
import pytest

from graphdenoise import (
    Graph,
    InvalidArgumentError,
    NumericalFailureError,
    build_grid_graph,
    ccp_denoise,
    projected_gradient_denoise,
    uniform_loss,
)

from graphdenoise.uniform import _box

from conftest import dense_laplacian, random_connected_graph


def two_vertex_graph():
    return Graph.from_edges(2, [0], [1], [1.0])


def in_box(obs, f, slack=0.0):
    """The sign/magnitude rule: each entry keeps its observed sign with at
    least the observed magnitude, and observed zeros stay zero."""
    pos, neg, zero = obs > 0, obs < 0, obs == 0
    return bool(
        np.all(f[pos] >= obs[pos] - slack)
        and np.all(f[neg] <= obs[neg] + slack)
        and np.all(np.abs(f[zero]) <= slack)
    )


def grid_search_2d(gsig, w, kappa, span=5.0, step=1e-3):
    """Brute-force minimizer of the true loss over [g, g+span]^2."""
    xs = np.arange(0.0, span + step / 2, step)
    f2 = gsig[1] + xs
    best = (np.inf, None)
    for chunk in np.array_split(gsig[0] + xs, 20):
        a = chunk[:, None]
        b = f2[None, :]
        loss = kappa * w * (a - b) ** 2 + np.log(np.abs(a)) + np.log(np.abs(b))
        idx = np.unravel_index(np.argmin(loss), loss.shape)
        if loss[idx] < best[0]:
            best = (float(loss[idx]), np.array([a[idx[0], 0], b[0, idx[1]]]))
    return best


class TestRegionAndLoss:
    def test_region_from_observation(self):
        g = np.array([2.0, -1.0, 0.0])
        lower, upper = _box(g)
        assert lower.tolist() == [2.0, -np.inf, 0.0]
        assert upper.tolist() == [np.inf, -1.0, 0.0]
        assert in_box(g, g)
        for f in ([3.0, -4.0, 0.0], [1.5, -4.0, 0.0], [3.0, -0.5, 0.0], [3.0, -4.0, 0.1]):
            f = np.array(f)
            clipped = np.clip(f, lower, upper)
            assert in_box(g, clipped)
            assert np.array_equal(clipped, f) == in_box(g, f)

    def test_loss_hand_values(self):
        g2 = two_vertex_graph()
        assert uniform_loss(np.array([1.0, 1.0]), g2, 1.0) == pytest.approx(0.0)
        e = float(np.e)
        assert uniform_loss(np.array([e, e]), g2, 1.0) == pytest.approx(2.0)

    def test_loss_matches_dense_formula(self, rng):
        g = random_connected_graph(12, 6, rng)
        f = rng.uniform(0.5, 3.0, size=g.n) * rng.choice([-1.0, 1.0], size=g.n)
        dl = dense_laplacian(g)
        kappa = 0.8
        expect = kappa * float(f @ dl @ f) + float(np.sum(np.log(np.abs(f))))
        assert uniform_loss(f, g, kappa) == pytest.approx(expect, rel=1e-12)

    def test_loss_validation(self, p3):
        with pytest.raises(InvalidArgumentError):
            uniform_loss(np.ones(3), p3, 0.0)
        with pytest.raises(InvalidArgumentError):
            uniform_loss(np.array([np.inf, 1.0, 1.0]), p3, 1.0)


class TestCcp:
    def test_constant_positive_observation_is_stationary(self):
        g = build_grid_graph(2, 2)
        obs = np.full(4, 2.0)
        res, _ = ccp_denoise(obs, g, kappa=1.0, tol=1e-10)
        # the box corner f = g satisfies the first-order conditions: the
        # energy gradient vanishes and the log gradient pushes into the bound
        assert np.allclose(res.signal, obs, atol=1e-6)
        assert np.all(np.diff(res.trace) <= 1e-12)

    def test_two_vertex_grid_search_oracle(self):
        g2 = two_vertex_graph()
        obs = np.array([1.0, 0.2])
        res, _ = ccp_denoise(obs, g2, kappa=1.0, tol=1e-12)
        best_loss, best_f = grid_search_2d(obs, 1.0, 1.0)
        assert np.max(np.abs(res.signal - best_f)) <= 1e-2
        assert res.trace[-1] <= best_loss + 1e-6

    def test_zero_entries_stay_zero(self, p3):
        obs = np.array([2.0, 0.0, 1.0])
        res, _ = ccp_denoise(obs, p3, kappa=1.0)
        assert res.signal[1] == 0.0

    def test_descent_and_feasibility_across_instances(self, rng):
        for seed in range(5):
            n = int(rng.integers(4, 40))
            g = random_connected_graph(n, int(rng.integers(0, n)), rng)
            truth = rng.uniform(0.5, 3.0, size=n) * rng.choice([-1, 1], size=n)
            obs = truth * rng.uniform(0.0, 1.0, size=n)
            res, trace = ccp_denoise(obs, g, kappa=0.5, rng_seed=seed)
            assert np.all(np.diff(res.trace) <= 1e-12)
            assert in_box(obs, res.signal, slack=1e-12)
            assert len(trace.inner_iterations) == res.iterations

    def test_inner_stall_reported_unconverged(self, rng, monkeypatch):
        """An inner QP that raises the loss stops the procedure unconverged."""
        from graphdenoise import uniform

        def worse_point(graph, kappa, linear, box, x0, **kwargs):
            # doubling keeps every entry in its box but raises the log term
            return 2.0 * x0, 0

        monkeypatch.setattr(uniform, "minimize_box_qp", worse_point)
        g = random_connected_graph(10, 5, rng)
        obs = rng.uniform(1.0, 2.0, size=g.n)
        res, _ = ccp_denoise(obs, g, kappa=1.0)
        assert not res.converged
        assert res.iterations == 0
        assert res.trace.size == 1
        assert in_box(obs, res.signal)

    def test_capped_last_inner_qp_is_unconverged(self, monkeypatch):
        """A CCP whose last inner QP stopped at its step cap has not shown a
        fixed point; an earlier capped QP followed by finished ones has."""
        from graphdenoise import uniform

        g = build_grid_graph(4, 4)
        obs = np.random.default_rng(0).uniform(0.1, 2.0, size=16)
        monkeypatch.setattr(uniform, "_BOX_QP_MAX_ITER", 50)
        res, trace = ccp_denoise(obs, g, kappa=1e100)
        assert trace.inner_iterations == (50, 50, 50, 50)
        assert not res.converged
        monkeypatch.setattr(uniform, "_BOX_QP_MAX_ITER", 2)
        res, trace = ccp_denoise(obs, g, kappa=1.0)
        assert trace.inner_iterations == (2, 1, 1, 1, 1, 1)
        assert res.converged

    def test_kappa_validation(self, p3):
        with pytest.raises(InvalidArgumentError):
            ccp_denoise(np.ones(3), p3, kappa=0.0)

    @pytest.mark.parametrize("kappa", [-1.0, np.inf, np.nan])
    def test_kappa_must_be_finite_and_positive(self, p3, kappa):
        for solve in (ccp_denoise, projected_gradient_denoise):
            with pytest.raises(InvalidArgumentError, match="kappa"):
                solve(np.ones(3), p3, kappa=kappa)
        with pytest.raises(InvalidArgumentError, match="kappa"):
            uniform_loss(np.ones(3), p3, kappa)

    def test_overflowing_kappa_is_a_numerical_failure(self):
        g = build_grid_graph(4, 4)
        obs = np.random.default_rng(0).uniform(0.1, 2.0, size=16)
        for kappa in (1e308, 1e200):
            with pytest.raises(NumericalFailureError, match="box QP"):
                ccp_denoise(obs, g, kappa=kappa)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_seed_must_be_a_nonnegative_integer(self, p3, seed):
        with pytest.raises(InvalidArgumentError, match="nonnegative integer"):
            ccp_denoise(np.ones(3), p3, rng_seed=seed)


class TestProjectedGradient:
    def test_zero_iterations_returns_strict_interior_init(self, p3):
        obs = np.array([1.0, -2.0, 0.0])
        res, _ = projected_gradient_denoise(obs, p3, kappa=1.0, max_iter=0)
        assert in_box(obs, res.signal)
        assert res.signal[0] > obs[0] and res.signal[1] < obs[1]
        assert res.signal[2] == 0.0
        assert len(res.trace) == 1

    def test_final_loss_never_exceeds_initial(self, rng):
        for seed in range(5):
            n = int(rng.integers(4, 30))
            g = random_connected_graph(n, int(rng.integers(0, n)), rng)
            truth = rng.uniform(0.5, 3.0, size=n)
            obs = truth * rng.uniform(0.0, 1.0, size=n)
            res, _ = projected_gradient_denoise(
                obs, g, kappa=0.5, step=0.05, max_iter=500
            )
            final = uniform_loss(res.signal, g, 0.5)
            assert final <= res.trace[0] + 1e-12
            assert in_box(obs, res.signal, slack=1e-12)

    def test_near_optimal_instance_stays_within_tolerance(self):
        g2 = two_vertex_graph()
        obs = np.array([1.0, 0.2])
        res, _ = projected_gradient_denoise(
            obs, g2, kappa=1.0, step=0.05, max_iter=20000, tol=1e-14
        )
        _, best_f = grid_search_2d(obs, 1.0, 1.0)
        assert np.max(np.abs(res.signal - best_f)) <= 1e-2

    def test_validation(self, p3):
        with pytest.raises(InvalidArgumentError):
            projected_gradient_denoise(np.ones(3), p3, kappa=1.0, step=0.0)

    @pytest.mark.parametrize(
        "step,message",
        [(1e308, "non-finite iterates"), (1e199, "loss diverged")],
        ids=["iterate-overflows", "loss-overflows"],
    )
    def test_divergence_is_a_numerical_failure(self, p3, step, message):
        """A step that sends the iterate to inf, or only its energy, raises
        with the losses so far."""
        with np.errstate(all="ignore"), pytest.raises(
            NumericalFailureError, match=message
        ) as err:
            projected_gradient_denoise(np.array([1.0, 10.0, 100.0]), p3, step=step)
        assert err.value.trace.size == 1 and np.isfinite(err.value.trace[0])

    def test_default_step_descends_on_a_grid(self, rng):
        """The default step comes from the Gershgorin bound; a fixed step of
        1.0 diverges on this grid."""
        g = build_grid_graph(16, 16)
        obs = rng.uniform(1.0, 2.0, size=g.n) * rng.uniform(size=g.n)
        res, _ = projected_gradient_denoise(obs, g, kappa=1.0)
        assert res.converged
        assert uniform_loss(res.signal, g, 1.0) < res.trace[0]


class TestBothReachTruthLoss:
    def test_prior_instance_benchmark_property(self, rng):
        """Both optimizers end at or below the ground truth's loss."""
        from graphdenoise import eigendecompose, sample_prior

        g = build_grid_graph(6, 6)
        basis = eigendecompose(g)
        truth = sample_prior(basis, 1.0, rng_seed=3)
        truth = truth - truth.min() + 0.2
        obs = truth * rng.uniform(0.0, 1.0, size=g.n)
        kappa = 1.0
        target = uniform_loss(truth, g, kappa)
        res_c, _ = ccp_denoise(obs, g, kappa=kappa)
        res_p, tr_p = projected_gradient_denoise(
            obs, g, kappa=kappa, step=0.05, max_iter=5000
        )
        assert uniform_loss(res_c.signal, g, kappa) <= target
        assert uniform_loss(res_p.signal, g, kappa) <= target
