import itertools
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from graphdenoise import (
    Graph,
    InvalidArgumentError,
    NumericalFailureError,
    build_grid_graph,
    ccp_denoise,
    local_average,
    magic_filter,
    projected_gradient_denoise,
    uniform_loss,
)

from graphdenoise.uniform import _BOX_QP_MAX_ITER, _BOX_QP_TOL, _box, minimize_box_qp

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


def box_qp_oracle(hess, c, lower, upper):
    """Minimizer of x'Hx/2 + c'x over the box, by enumerating every active
    set: each face's free entries solve their system densely, and the best
    KKT point is the optimum."""
    slack = 1e-9 * max(1.0, float(np.max(np.abs(c))))
    choices = [
        (lower[i],) if lower[i] == upper[i]
        else (None, *(b for b in (lower[i], upper[i]) if np.isfinite(b)))
        for i in range(c.size)
    ]
    best = (np.inf, None)
    for pick in itertools.product(*choices):
        free = np.array([v is None for v in pick])
        x = np.array([0.0 if v is None else v for v in pick])
        if free.any():
            rhs = -c[free] - hess[np.ix_(free, ~free)] @ x[~free]
            x[free] = np.linalg.lstsq(hess[np.ix_(free, free)], rhs, rcond=None)[0]
        grad = hess @ x + c
        movable = ~free & (lower < upper)
        kkt = (
            np.all(x >= lower - slack) and np.all(x <= upper + slack)
            and np.all(np.abs(grad[free]) <= slack)
            and np.all(grad[movable & (x == lower)] >= -slack)
            and np.all(grad[movable & (x == upper)] <= slack)
        )
        value = 0.5 * x @ hess @ x + c @ x
        if kkt and value < best[0]:
            best = (value, x)
    assert best[1] is not None, "no KKT point"
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
        for _ in range(5):
            n = int(rng.integers(4, 40))
            g = random_connected_graph(n, int(rng.integers(0, n)), rng)
            truth = rng.uniform(0.5, 3.0, size=n) * rng.choice([-1, 1], size=n)
            obs = truth * rng.uniform(0.0, 1.0, size=n)
            res, trace = ccp_denoise(obs, g, kappa=0.5)
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

    def test_certificate_and_outer_cap_decide_converged(self, monkeypatch):
        """An inner QP that takes 0 steps certifies its start as stationary:
        the CCP stops converged, and that QP is not counted.  The outer-step
        cap stops it unconverged.  QPs cut at one step by their own cap
        still descend to a certificate."""
        from graphdenoise import uniform

        steps = []

        def counted(*args, **kwargs):
            x, taken = minimize_box_qp(*args, **kwargs)
            steps.append(taken)
            return x, taken

        g = build_grid_graph(4, 4)
        obs = np.random.default_rng(0).uniform(0.1, 2.0, size=16)
        monkeypatch.setattr(uniform, "minimize_box_qp", counted)
        monkeypatch.setattr(uniform, "_BOX_QP_MAX_ITER", 1)
        res, trace = ccp_denoise(obs, g, kappa=1.0)
        assert res.converged and steps[-1] == 0
        assert trace.inner_iterations == tuple(steps[:-1]) == (1,) * 11
        assert len(trace.inner_iterations) == res.iterations
        assert uniform._CCP_MAX_OUTER == 50
        monkeypatch.setattr(uniform, "_CCP_MAX_OUTER", 5)
        steps.clear()
        res, trace = ccp_denoise(obs, g, kappa=1.0)
        assert not res.converged and steps == [1] * 5
        assert len(trace.inner_iterations) == res.iterations == 5

    def test_fifty_outer_steps_end_unconverged(self):
        """A slow linear tail: at kappa = 0.1 on this 32 x 32 column the
        projected gradient is still above the tolerance after 50 steps."""
        g = build_grid_graph(32, 32)
        rng = np.random.default_rng(32000)
        truth = rng.uniform(0.5, 2.0, g.n) + np.linspace(0.0, 2.0, g.n)
        res, trace = ccp_denoise(truth * rng.uniform(size=g.n), g, kappa=0.1)
        assert not res.converged
        assert len(trace.inner_iterations) == res.iterations == 50

    def test_rise_within_round_off_is_a_tie(self, monkeypatch):
        """A loss change above 0 keeps the previous iterate and stops: within
        its rounding error bound a tie, converged; beyond it a stall."""
        from graphdenoise import uniform

        g = build_grid_graph(4, 4)
        obs = np.random.default_rng(0).uniform(0.1, 2.0, size=16)
        first, _ = ccp_denoise(obs, g, kappa=1.0)
        for error, converged in ((2e-300, True), (5e-301, False)):
            monkeypatch.setattr(uniform, "_loss_change", lambda *args: (1e-300, error))
            res, trace = ccp_denoise(obs, g, kappa=1.0)
            assert res.converged == converged
            assert res.iterations == 0 and trace.inner_iterations == ()
            assert res.trace.tolist() == first.trace[:1].tolist()
            assert np.array_equal(res.signal, np.clip(obs * (1 + 1e-3), *_box(obs)))

    @pytest.mark.parametrize("seed", range(8))
    def test_loss_change_is_within_its_error_bound(self, seed):
        """The loss change, computed as a difference, is within its error
        bound of the exact change (energy in rationals, logs in extended
        precision), and the bound is far below the change even where the
        two losses agree to 14 digits."""
        from graphdenoise.uniform import _loss_change

        rng = np.random.default_rng(seed)
        g = random_connected_graph(30, 20, rng)
        f = rng.uniform(0.5, 3.0, g.n) * rng.choice([-1.0, 1.0], g.n)
        f[:3] = 0.0
        f_new = f * (1.0 + rng.uniform(0.0, 10.0 ** -rng.uniform(2, 14), g.n))
        a, b = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
        change, error = _loss_change(f, f_new, g, a, b)

        def energy(v):
            v = [Fraction(x) for x in v]
            return sum(
                Fraction(w) * (v[i] - v[j]) ** 2 for i, j, w in zip(g.edge_a, g.edge_b, g.edge_w)
            )

        ext, nz = np.longdouble, f != 0.0
        logs = np.log1p((f_new[nz].astype(ext) - f[nz]) / f[nz].astype(ext))
        exact = ext(float(Fraction(b) * (energy(f_new) - energy(f)))) + ext(a) * np.sum(logs)
        assert abs(change - exact) <= error <= 1e-6 * abs(exact)

    def test_huge_kappa_stops_at_the_gradient_round_off(self):
        """At kappa = 1e100 the computed gradient 2 kappa L x carries
        round-off far above the linear term's 1e-8 tolerance; the stop
        scales with it, so the QPs end long before their cap."""
        g = build_grid_graph(4, 4)
        obs = np.random.default_rng(0).uniform(0.1, 2.0, size=16)
        res, trace = ccp_denoise(obs, g, kappa=1e100)
        assert res.converged
        assert max(trace.inner_iterations) < 100

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

    def test_huge_kappa_returns_a_finite_signal(self):
        """The loss is posed over max(1, kappa): at 1e308, kappa * f'Lf of
        the start overflowed, and at 1e200 the box QP's curvature did."""
        g = build_grid_graph(4, 4)
        obs = np.random.default_rng(0).uniform(0.1, 2.0, size=16)
        for kappa in (1e308, 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res, _ = ccp_denoise(obs, g, kappa=kappa)
            assert res.converged and in_box(obs, res.signal)
            assert np.all(np.isfinite(res.trace))
            # the smoothest signal in the box: nearly constant at max(obs)
            assert np.ptp(res.signal) <= 1e-12 and res.signal.max() <= obs.max() * (1 + 1e-2)

    def test_laplacian_product_overflow_fails_at_once(self):
        """2 * 1e308 overflows inside the box QP's sparse product L x, which
        raises no floating-point error: the first step's curvature is nan,
        and the run fails there instead of stepping on nan to its cap."""
        g = Graph.from_edges(2, [0], [1], [2.0])
        start = time.perf_counter()
        with pytest.raises(NumericalFailureError, match="box QP.*Laplacian product"):
            ccp_denoise([1e308, 1e308], g)
        assert time.perf_counter() - start < 0.1


class TestBoxQp:
    def check_against_oracle(self, g, kappa, c, obs, x0):
        lower, upper = _box(obs)
        hess = 2.0 * kappa * dense_laplacian(g)

        def value(x):
            return 0.5 * x @ hess @ x + c @ x

        x, steps = minimize_box_qp(g, kappa, c, (lower, upper), x0)
        best, x_star = box_qp_oracle(hess, c, lower, upper)
        tol = _BOX_QP_TOL * max(1.0, float(np.max(np.abs(c))))
        assert steps < _BOX_QP_MAX_ITER
        assert np.all(lower <= x) and np.all(x <= upper)
        assert value(x) <= value(x0)
        assert np.max(np.abs(x - x_star)) <= tol
        assert abs(value(x) - best) <= 1e-9 * max(1.0, abs(best))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_active_set_enumeration(self, seed):
        """Two-sided boxes with fixed zeros, from starts partly on the bounds."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        g = random_connected_graph(n, int(rng.integers(0, n)), rng)
        obs = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
        obs[:2] = [abs(obs[0]), -abs(obs[1])]
        obs[rng.choice(n, int(rng.integers(1, 3)), replace=False)] = 0.0
        kappa = float(10.0 ** rng.uniform(-1.0, 1.0))
        c = rng.normal(0.0, 2.0, n)
        lift = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.6)
        x0 = np.clip(obs + np.sign(obs) * lift, *_box(obs))
        self.check_against_oracle(g, kappa, c, obs, x0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_constant_start_has_zero_curvature(self, rng, sign):
        """From a constant start inside a one-signed box, a constant linear
        term makes the first direction constant, where L has no curvature:
        the step goes to the box."""
        g = random_connected_graph(7, 3, rng)
        obs = sign * rng.uniform(0.2, 2.0, g.n)
        c = np.full(g.n, sign * 0.7)
        self.check_against_oracle(g, 0.9, c, obs, np.full(g.n, sign * 3.0))

    def test_subnormal_kappa_keeps_a_finite_expansion_step(self):
        """2 / ||2 kappa L|| overflows for a subnormal kappa; the capped
        expansion step still reaches the box's corner."""
        g = build_grid_graph(4, 4)
        obs = np.random.default_rng(0).uniform(0.1, 2.0, size=16)
        obs[[3, 7]] *= -1.0
        obs[5] = 0.0
        res, _ = ccp_denoise(obs, g, kappa=5e-324)
        assert res.converged
        assert np.array_equal(res.signal, obs)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_huge_kappa_stops_under_the_cap_from_a_jittered_start(self, seed):
        """At kappa = 1e100 the stop scales with the round-off of 2 kappa
        L x.  Asking for less, the first CCP QP from these starts, the
        observation moved into its box by a per-vertex margin of 1e-3
        times a factor in [0.5, 1.5] drawn from the seed, ran to its
        20000-step cap."""
        g = build_grid_graph(4, 4)
        obs = np.random.default_rng(0).uniform(0.1, 2.0, size=16)
        box = _box(obs)
        x0 = np.clip(obs * (1.0 + 1e-3 * np.random.default_rng(seed).uniform(0.5, 1.5, 16)), *box)
        c = 1.0 / x0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, steps = minimize_box_qp(g, 1e100, c, box, x0)
        assert steps < 100
        assert np.all(box[0] <= x) and np.all(x <= box[1])
        assert uniform_loss(x, g, 1e100) <= uniform_loss(x0, g, 1e100)

    @pytest.mark.parametrize("forcing", [-0.1, 1.0, np.nan])
    def test_forcing_must_be_in_the_unit_interval(self, p3, forcing):
        box = _box(np.ones(3))
        with pytest.raises(InvalidArgumentError, match="forcing must be in"):
            minimize_box_qp(p3, 1.0, np.ones(3), box, np.full(3, 2.0), forcing=forcing)

    def test_forcing_stops_at_a_share_of_the_start_residual(self):
        """With a forcing term the QP stops at the first step whose projected
        gradient is at most that share of the start's; without one it
        solves the QP to its own stop, which takes more steps."""
        g = build_grid_graph(16, 16)
        obs = np.random.default_rng(4).uniform(0.1, 2.0, size=g.n)
        box = _box(obs)
        x0 = np.clip(obs * (1 + 1e-3), *box)

        def residual(x):
            grad = 2.0 * (g.laplacian @ x) + 1.0 / x0
            return np.max(np.abs(x - np.clip(x - grad, *box)))

        x_full, full = minimize_box_qp(g, 1.0, 1.0 / x0, box, x0)
        x_forced, forced = minimize_box_qp(g, 1.0, 1.0 / x0, box, x0, forcing=0.1)
        assert 0 < forced < full
        stop = _BOX_QP_TOL * np.max(1.0 / x0)
        assert residual(x_full) <= stop < residual(x_forced) <= 0.1 * residual(x0)

    def test_unbounded_objective_is_rejected(self, p3):
        lower, upper = _box(np.ones(3))
        with pytest.raises(InvalidArgumentError, match="unbounded below"):
            minimize_box_qp(p3, 1.0, np.full(3, -1.0), (lower, upper), np.full(3, 2.0))


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
        "step", [1e308, 1e199], ids=["iterate-overflows", "loss-overflows"]
    )
    def test_divergence_is_a_numerical_failure(self, p3, step):
        """A step that sends the iterate to inf, or only its energy, is an
        overflow."""
        with pytest.raises(
            NumericalFailureError, match="projected gradient failed: overflow"
        ):
            projected_gradient_denoise(np.array([1.0, 10.0, 100.0]), p3, step=step)

    def test_laplacian_product_overflow_is_a_numerical_failure(self):
        """2 * 1e308 overflows inside the sparse product L f, which raises
        no floating-point error: the nan iterate is still an overflow."""
        g = Graph.from_edges(2, [0], [1], [2.0])
        with pytest.raises(NumericalFailureError, match="Laplacian product"):
            projected_gradient_denoise(np.array([1e308, 1e308]), g)

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


class TestGridAndEdgeListCopy:
    """A grid multiplies its Laplacian by shifted slices, an edge-list copy
    of its unit-weight edges by the CSR arrays: every descent and diffusion
    on the two runs bit for bit alike, failures included."""

    @staticmethod
    def pair(h, w):
        g = build_grid_graph(h, w)
        copy = Graph.from_edges(g.n, g.edge_a, g.edge_b, np.ones(g.edge_w.size))
        assert g.grid_shape == (h, w) and copy.grid_shape is None
        return g, copy

    @staticmethod
    def outcome(run):
        """What a run returns, as bytes, or the error it raises."""
        try:
            out = run()
        except NumericalFailureError as err:
            return type(err), str(err)
        if isinstance(out, np.ndarray):
            return out.tobytes()
        res, trace = out
        return (
            res.signal.tobytes(), res.trace.tobytes(), res.iterations, res.converged,
            trace.inner_iterations,
        )

    @pytest.mark.parametrize("shape", [(12, 9), (1, 40), (40, 1)])
    def test_descents_and_diffusions_are_byte_identical(self, shape):
        rng = np.random.default_rng(5)
        g, copy = self.pair(*shape)
        positive = rng.uniform(0.5, 2.0, g.n) * (rng.uniform(size=g.n) > 0.2)
        # about a third negated: boxes bounded on either side
        signed = positive * np.where(rng.uniform(size=g.n) < 1 / 3, -1.0, 1.0)
        runs = [
            lambda graph, obs: ccp_denoise(obs, graph, kappa=0.5),
            lambda graph, obs: ccp_denoise(obs, graph, kappa=4.0),
            lambda graph, obs: projected_gradient_denoise(obs, graph, max_iter=300),
            lambda graph, obs: local_average(obs, graph, 5),
            lambda graph, obs: magic_filter(obs, graph, 5),
        ]
        for obs in (positive, signed):
            for run in runs:
                got = self.outcome(lambda: run(g, obs))
                assert got == self.outcome(lambda: run(copy, obs))

    def test_overflows_fail_alike(self):
        """L f overflows alike on both copies; kappa = 1e308 and 1e200, which
        overflowed alike until the loss was posed over max(1, kappa), now
        return the same finite signal on both."""
        g, copy = self.pair(4, 4)
        obs = np.random.default_rng(0).uniform(0.1, 2.0, size=16)
        for kappa in (1e308, 1e200):
            got = self.outcome(lambda: ccp_denoise(obs, g, kappa=kappa))
            assert got == self.outcome(lambda: ccp_denoise(obs, copy, kappa=kappa))
            assert np.all(np.isfinite(np.frombuffer(got[0])))
        huge = np.full(16, 1e308)
        for run in (ccp_denoise, projected_gradient_denoise):
            got = self.outcome(lambda: run(huge, g))
            assert isinstance(got[0], type) and got == self.outcome(lambda: run(huge, copy))
