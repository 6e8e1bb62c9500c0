import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdenoise import (
    Graph,
    InvalidArgumentError,
    bernoulli_denoise,
    build_grid_graph,
    dirichlet_system,
    dropout_penalty,
    harmonic_interpolate,
    l0_greedy,
    lasso_coordinate_descent,
)
from graphdenoise.bernoulli import (
    _colour_classes,
    _StepwiseSearch,
    lasso_kkt_violation,
)

from conftest import (
    as_scipy,
    dense_incidence,
    gram_form,
    l0_on_design,
    random_connected_graph,
    vertex_mask,
)


def random_design(rng, n, extra, size):
    """A random graph's dense design B(:, zeta) for a random zeta of the
    given size, and a random target with one entry per edge."""
    g = random_connected_graph(n, extra, rng)
    zeta = vertex_mask(n, rng.choice(n, size=size, replace=False))
    return dense_incidence(g)[:, zeta], rng.normal(size=g.edge_w.size)


def exhaustive_l0_optimum(a_dense, y, tau):
    p = a_dense.shape[1]
    best = float(y @ y)
    for r in range(1, p + 1):
        for t in itertools.combinations(range(p), r):
            sol, *_ = np.linalg.lstsq(a_dense[:, t], y, rcond=None)
            resid = y - a_dense[:, t] @ sol
            best = min(best, float(resid @ resid) + tau * r)
    return best


def dense_cyclic_cd(a_dense, y, tau, tol=1e-15, max_sweeps=200000):
    """Plain cyclic coordinate descent in column-index order."""
    p = a_dense.shape[1]
    x = np.zeros(p)
    r = y.copy()
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(p):
            col = a_dense[:, j]
            sq = float(col @ col)
            if sq == 0.0:
                continue
            rho = float(col @ r) + sq * x[j]
            xj = math.copysign(max(abs(rho) - tau / 2.0, 0.0), rho) / sq
            r -= (xj - x[j]) * col
            max_delta = max(max_delta, abs(xj - x[j]))
            x[j] = xj
        if max_delta <= tol * max(1.0, float(np.max(np.abs(x)))):
            return x
    raise AssertionError("reference coordinate descent did not converge")


def kkt_violation_loop(grad, tau, x):
    """Worst-coordinate KKT violation at x of a fit with gradient grad, one
    coordinate at a time."""
    worst = 0.0
    for j in range(x.size):
        if x[j] != 0.0:
            worst = max(worst, abs(grad[j] + tau * np.sign(x[j])))
        else:
            worst = max(worst, max(0.0, abs(grad[j]) - tau))
    return worst


class TestConfig:
    def test_tau_sign_follows_p(self):
        low = dropout_penalty(0.2, 2.0)
        assert low == (math.log(0.8) - math.log(0.2)) / 2.0
        assert low > 0
        assert dropout_penalty(0.8, 2.0) < 0
        assert dropout_penalty(0.5, 1.0) == 0.0

    def test_penalty_rejects_p_outside_open_interval_and_nonpositive_kappa(self):
        for p, kappa in ((0.0, 1.0), (1.0, 1.0), (1.5, 1.0), (0.3, 0.0), (0.3, -1.0),
                         (0.3, math.inf)):
            with pytest.raises(InvalidArgumentError):
                dropout_penalty(p, kappa)

    def test_mode_aliases(self, p3):
        """Only the two canonical mode names are accepted."""
        z = vertex_mask(3, [1])
        g = np.array([0.0, 5.0, 0.0])
        assert np.allclose(bernoulli_denoise(g, p3, z, 1.0, mode="l0").signal, 0.0, atol=1e-9)
        for mode in ("l0-greedy", "l2"):
            with pytest.raises(InvalidArgumentError):
                bernoulli_denoise(g, p3, z, 1.0, mode=mode)


class TestLasso:
    def test_zero_target_gives_zero(self, p3):
        upd = lasso_coordinate_descent(p3.laplacian.principal([0, 1]), np.zeros(2), 1.0)
        assert np.array_equal(upd.signal, np.zeros(2))
        assert upd.support.size == 0

    def test_single_column_soft_threshold_closed_form(self, rng):
        g = random_connected_graph(6, 3, rng)
        col = dense_incidence(g)[:, 2]
        y = rng.normal(size=g.edge_w.size)
        tau = 0.8
        gram, c, _ = gram_form(col[:, None], y)
        upd = lasso_coordinate_descent(gram, c, tau, tol=1e-14)
        rho = float(col @ y)
        expect = np.sign(rho) * max(abs(rho) - tau / 2.0, 0.0) / float(col @ col)
        assert upd.signal[0] == pytest.approx(expect, abs=1e-12)

    def test_random_instance_against_coordinatewise_oracle(self, rng):
        """Fixed-point check: no single-coordinate move on a 1e-4 grid
        improves the objective."""
        g = random_connected_graph(6, 4, rng)
        ad = dense_incidence(g)[:, vertex_mask(g.n, [0, 2, 3, 5])]
        y = rng.normal(size=g.edge_w.size)
        tau = 0.6
        gram, c, _ = gram_form(ad, y)
        upd = lasso_coordinate_descent(gram, c, tau, tol=1e-14, max_sweeps=5000)

        def objective(x):
            r = ad @ x - y
            return float(r @ r) + tau * float(np.sum(np.abs(x)))

        base = objective(upd.signal)
        for j in range(ad.shape[1]):
            for delta in np.arange(-0.02, 0.0201, 1e-4):
                x = upd.signal.copy()
                x[j] += delta
                assert objective(x) >= base - 1e-9

    def test_kkt_conditions_hold(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 20))
            a, y = random_design(rng, n, int(rng.integers(1, 8)), int(rng.integers(1, n)))
            tau = float(rng.uniform(0.2, 2.0))
            gram, c, _ = gram_form(a, y)
            upd = lasso_coordinate_descent(gram, c, tau, tol=1e-13, max_sweeps=5000)
            assert upd.converged
            assert lasso_kkt_violation(gram, c, tau, upd.signal) <= 1e-6

    def test_max_sweeps_flags_best_iterate(self, rng):
        g = random_connected_graph(30, 25, rng)
        zeta = vertex_mask(g.n, range(25))
        gram, c, _ = gram_form(dense_incidence(g)[:, zeta], rng.normal(size=g.edge_w.size))
        upd = lasso_coordinate_descent(gram, c, 0.01, tol=1e-15, max_sweeps=1)
        assert not upd.converged

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 12),
        tau=st.floats(0.05, 3.0),
    )
    def test_colour_classes_match_dense_cyclic_reference(self, seed, n, tau):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, n))
        a, y = random_design(rng, n, int(rng.integers(0, 2 * n)), size)
        gram, c, _ = gram_form(a, y)
        classes = _colour_classes(gram)
        assert sorted(np.concatenate(classes).tolist()) == list(range(size))
        for cols in classes:
            rows = np.nonzero(a[:, cols])[0]
            assert rows.size == np.unique(rows).size
        upd = lasso_coordinate_descent(gram, c, tau, tol=1e-15, max_sweeps=200000)
        assert upd.converged
        assert lasso_kkt_violation(gram, c, tau, upd.signal) <= 1e-6
        expect = dense_cyclic_cd(a, y, tau)
        expect[np.abs(expect) < 1e-10] = 0.0
        assert np.max(np.abs(upd.signal - expect)) <= 1e-8

    def test_fully_conflicting_columns_are_singleton_classes(self):
        # every pair of columns has a nonzero inner product
        a = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, -2.0]])
        y = np.array([1.0, -2.0])
        gram, c, _ = gram_form(a, y)
        classes = _colour_classes(gram)
        assert [c.tolist() for c in classes] == [[0], [1], [2]]
        upd = lasso_coordinate_descent(gram, c, 0.3, tol=1e-15, max_sweeps=100000)
        expect = dense_cyclic_cd(a, y, 0.3)
        assert np.max(np.abs(upd.signal - expect)) <= 1e-8

    def test_kkt_violation_matches_loop_reference(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 20))
            size = int(rng.integers(1, n))
            a, y = random_design(rng, n, int(rng.integers(0, n)), size)
            x = rng.normal(size=size) * (rng.uniform(size=size) < 0.5)
            tau = float(rng.uniform(0.1, 2.0))
            gram, c, _ = gram_form(a, y)
            grad = 2.0 * (gram @ x - c)
            assert lasso_kkt_violation(gram, c, tau, x) == kkt_violation_loop(grad, tau, x)

    def test_tau_must_be_positive(self, p3):
        with pytest.raises(InvalidArgumentError):
            lasso_coordinate_descent(p3.laplacian.principal([1]), np.zeros(1), 0.0)

    def test_target_must_match_the_design_rows(self, p3):
        """The linear term has one entry per row (and column) of the Gram."""
        with pytest.raises(InvalidArgumentError, match=r"length-1 signal, got shape \(3,\)"):
            lasso_coordinate_descent(p3.laplacian.principal([1]), np.zeros(3), 1.0)
        with pytest.raises(InvalidArgumentError, match=r"length-1 signal, got shape \(1, 1\)"):
            lasso_coordinate_descent(p3.laplacian.principal([1]), np.zeros((1, 1)), 1.0)


@pytest.mark.parametrize("kind", ["dense", "scipy"])
def test_gram_must_be_a_csr_matrix(p3, kind):
    """The regression takes its Gram as the package's CsrMatrix, the type
    every caller in the package passes, and refuses a dense or a scipy copy."""
    gram = p3.laplacian.principal([0, 2])
    other = gram.toarray() if kind == "dense" else as_scipy(gram)
    c = np.array([1.0, -2.0])
    calls = [
        lambda m: lasso_coordinate_descent(m, c, 0.5),
        lambda m: l0_greedy(m, c, 0.5, lambda x: float(x @ x)),
        lambda m: lasso_kkt_violation(m, c, 0.5, np.zeros(2)),
    ]
    for call in calls:
        call(gram)
        with pytest.raises(InvalidArgumentError, match="must be a graphdenoise CsrMatrix"):
            call(other)


class ForwardAfterExchange(_StepwiseSearch):
    """The search with its earlier per-candidate schedule: prune, the
    exchange on small designs, then a forward pass and a second prune."""

    def run(self):
        g0 = self.gains([], self.c)
        order = np.argsort(-g0, kind="stable")
        starts = [
            [int(j)] for j in order[: self.N_SINGLE_STARTS] if g0[j] >= self.tau
        ] or [[]]
        small = self.p <= self.SMALL_DESIGN
        columns = np.flatnonzero(self.usable).tolist()
        if small:
            starts.append(columns)
        best = (self.objective([]), [])
        for start in starts:
            base = self.prune(start) if len(start) > 1 else self.forward(start)
            candidates = [base]
            if small:
                candidates.append([j for j in columns if j not in base])
            for cand in candidates:
                t = self.prune(cand)
                if small:
                    t = self.swap(t)
                t = self.prune(self.forward(t))
                o = self.objective(t)
                if o < best[0]:
                    best = (o, sorted(t))
        return best[1]


def criterion_7a_instances(count):
    """Criterion 7(a)'s seed-0 generator, its size clamped to n."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        n = int(rng.integers(6, 14))
        g = random_connected_graph(n, int(rng.integers(1, 6)), rng)
        size = min(int(rng.integers(2, 9)), n)
        zeta = vertex_mask(n, rng.choice(n, size=size, replace=False))
        sig = rng.normal(0.0, 2.0, size=n)
        yield dense_incidence(g)[:, zeta], -(dense_incidence(g) @ sig), float(rng.uniform(0.3, 3.0))


def exhaustive_test_instances(count):
    """The generator of ``test_matches_exhaustive_enumeration``."""
    rng = np.random.default_rng(1234)
    for _ in range(count):
        n = int(rng.integers(6, 12))
        extra = int(rng.integers(1, 6))
        size = int(rng.integers(2, min(9, n + 1)))
        ad, y = random_design(rng, n, extra, size)
        yield ad, y, float(rng.uniform(0.3, 3.0))


class TestL0Greedy:
    def test_huge_tau_empty_support(self, p3, rng):
        a = dense_incidence(p3)
        upd = l0_on_design(a, rng.normal(size=p3.edge_w.size), 1e9)
        assert upd.support.size == 0

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_tau_must_be_positive(self, p3, tau):
        gram, c, energy = gram_form(dense_incidence(p3)[:, [1]], np.zeros(2))
        with pytest.raises(InvalidArgumentError, match="tau must be positive"):
            l0_greedy(gram, c, tau, energy)

    def test_target_must_match_the_design_rows(self, p3):
        """The linear term has one entry per row (and column) of the Gram."""
        gram, _, energy = gram_form(dense_incidence(p3)[:, [1]], np.zeros(2))
        with pytest.raises(InvalidArgumentError, match=r"length-1 signal, got shape \(3,\)"):
            l0_greedy(gram, np.zeros(3), 1.0, energy)

    def test_matches_exhaustive_enumeration(self, rng):
        for _ in range(10):
            n = int(rng.integers(6, 12))
            extra = int(rng.integers(1, 6))
            size = int(rng.integers(2, min(9, n + 1)))
            ad, y = random_design(rng, n, extra, size)
            tau = float(rng.uniform(0.3, 3.0))
            upd = l0_on_design(ad, y, tau)
            got = float(np.sum((ad @ upd.signal - y) ** 2)) + tau * upd.support.size
            best = exhaustive_l0_optimum(ad, y, tau)
            assert got <= 1.05 * best + 1e-9

    def test_orthogonal_design_is_exact(self):
        """With orthogonal columns the greedy picks exactly the coordinates
        whose individual gain clears tau."""
        a = np.diag([2.0, 1.0, 0.5])
        y = np.array([1.0, 1.0, 1.0])
        tau = 1.5
        upd = l0_on_design(a, y, tau)
        # gains are (a_jj * y_j)^2 / a_jj^2 = y_j^2 = 1 < tau except none
        assert upd.support.size == 0
        tau = 0.8
        upd = l0_on_design(a, y, tau)
        assert upd.support.tolist() == [0, 1, 2]

    def test_refits_are_memoised_per_search(self, rng, monkeypatch):
        from graphdenoise import bernoulli

        cg_solve = bernoulli.cg_solve
        calls = []

        def counting_cg_solve(*args, **kwargs):
            calls.append(1)
            return cg_solve(*args, **kwargs)

        monkeypatch.setattr(bernoulli, "cg_solve", counting_cg_solve)
        g = random_connected_graph(10, 5, rng)
        a = dense_incidence(g)[:, vertex_mask(g.n, [1, 4, 6])]
        gram, c, energy = gram_form(a, rng.normal(size=g.edge_w.size))
        search = _StepwiseSearch(gram, c, 0.5, energy)
        s1, x1 = search.refit([2, 0])
        s2, x2 = search.refit([0, 2])
        assert len(calls) == 1
        assert s1 == s2 == [0, 2] and s1 is not s2
        assert x1 is x2 and not x1.flags.writeable
        s1.append(1)
        assert search.refit([2, 0])[0] == [0, 2]

    def test_one_pass_schedule_matches_the_forward_pass_schedule(self):
        """Dropping the forward pass after the exchange, whose additions the
        next prune removed again, changes no support and no bit of x on 300
        instances of each small generator and on grid designs with |zeta|
        either side of the 64-column small-design cutoff."""
        systems = [
            gram_form(a, y) + (tau,)
            for gen in (criterion_7a_instances, exhaustive_test_instances)
            for a, y, tau in gen(300)
        ]
        rng = np.random.default_rng(3)
        grid = build_grid_graph(12, 12)
        rows, cols = np.divmod(np.arange(grid.n), 12)
        for zeros in (40, 52, 60, 64, 65, 70, 76, 88):
            truth = 5.0 + np.cos(np.pi * cols / 12) + np.sin(np.pi * rows / 6)
            obs = truth + 0.3 * rng.standard_normal(grid.n)
            zeta = vertex_mask(grid.n, rng.choice(grid.n, size=zeros, replace=False))
            obs[zeta] = 0.0
            systems.append(dirichlet_system(grid, obs, zeta) + (dropout_penalty(0.1, 1.0),))
        moves = np.zeros(2, dtype=int)
        for gram, c, energy, tau in systems:
            new = _StepwiseSearch(gram, c, tau, energy)
            s_new, x_new = new.refit(new.run())
            # a fit depends on its support alone, so the old schedule may
            # share the new one's fits; its support is refitted afresh
            old = ForwardAfterExchange(gram, c, tau, energy)
            old.fits = dict(new.fits)
            s_old = old.refit(old.run())[0]
            fresh = _StepwiseSearch(gram, c, tau, energy)
            x_old = fresh.refit(s_old)[1]
            assert s_new == s_old
            assert x_new.tobytes() == x_old.tobytes()
            assert new.fits[tuple(s_new)][2] == fresh.fits[tuple(s_old)][2]
            moves += new.moves, old.moves
        assert moves[0] < moves[1]

    def test_zero_columns_never_enter_the_support(self):
        a = np.array([[2.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 0]])
        upd = l0_on_design(a, np.array([1.0, 1.0, 0.5]), 0.5)
        assert upd.support.tolist() == [0, 2]
        assert upd.signal.tolist() == pytest.approx([0.5, 0.0, 1.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize(
        "seed,converged", [(17, False), (22, True), (86, True), (285, True), (113, True)]
    )
    def test_ill_conditioned_design_keeps_the_promises(self, seed, converged):
        """Every column is one shared column plus 1e-8..1e-5 noise, so refits
        meet nonpositive curvature or stop at their cap.  Supports are ranked
        by their true residual, so the result is never worse than x = 0 nor
        than the best single column (17, 22, 86 and 285 once returned x = 0
        above it), and a support whose fit stopped short is not reported
        converged (17)."""
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 12))
        eps = 10 ** rng.uniform(-8, -5)
        a = rng.standard_normal((40, 1)) + eps * rng.standard_normal((40, p))
        y = rng.standard_normal(40)
        upd = l0_on_design(a, y, 1e-6)
        r = a @ upd.signal - y
        objective = float(r @ r) + 1e-6 * upd.support.size
        single = min(
            float(y @ y) - float(a[:, j] @ y) ** 2 / float(a[:, j] @ a[:, j]) + 1e-6
            for j in range(p)
        )
        assert objective <= float(y @ y) * (1 + 1e-12)
        assert objective <= single * (1 + 1e-12)
        assert upd.converged == converged


class TestBernoulliDenoise:
    def test_huge_tau_returns_observation(self, p3):
        g = np.array([0.3, 5.0, -2.0])
        out = bernoulli_denoise(g, p3, vertex_mask(3, [0, 1, 2]), 1e9, mode="l1")
        assert np.array_equal(out.signal, g)

    def test_high_p_harmonic_branch_p3(self, p3):
        tau = dropout_penalty(0.7, 1.0)
        out = bernoulli_denoise(np.array([0.0, 5.0, 2.0]), p3, vertex_mask(3, [1]), tau)
        assert out.signal[1] == pytest.approx(1.0, abs=1e-10)
        assert out.signal[0] == 0.0 and out.signal[2] == 2.0

    def test_l0_enumerated_example(self, p3):
        # keeping x = 0 leaves edge energy 50; zeroing the middle spike
        # costs tau = 1 and removes all energy
        out = bernoulli_denoise(np.array([0.0, 5.0, 0.0]), p3, vertex_mask(3, [1]), 1.0, mode="l0")
        assert np.allclose(out.signal, 0.0, atol=1e-9)

    def test_empty_zeta_returns_observation(self, p3, rng):
        g = rng.normal(size=3)
        assert np.array_equal(bernoulli_denoise(g, p3, vertex_mask(3, []), 1.0).signal, g)

    @pytest.mark.parametrize(
        "mode,tau,zeta,support",
        [
            ("l1", 1.0, [1, 3], [1]),  # vertex 3 sits among zeros and stays
            ("l0", 1.0, [1, 3], [1]),
            ("l1", -1.0, [1, 3], [1, 3]),  # the refill moves every suspect
            ("l0", 1.0, [], []),
        ],
        ids=["l1", "l0", "refill", "nothing-suspected"],
    )
    def test_support_names_the_vertices_moved(self, mode, tau, zeta, support):
        g = np.array([0.0, 5.0, 0.0, 0.0, 0.0])
        out = bernoulli_denoise(g, build_grid_graph(1, 5), vertex_mask(5, zeta), tau, mode)
        assert out.support.dtype.kind == "i"
        assert out.support.tolist() == support
        if tau > 0:
            assert out.support.tolist() == np.flatnonzero(out.signal != g).tolist()

    def test_non_sparse_solves_have_no_support(self, p3):
        assert harmonic_interpolate(p3, vertex_mask(3, [0]), [1.0]).support is None

    def test_full_zeta_nonpositive_tau_invalid(self, p3):
        tau = dropout_penalty(0.8, 1.0)
        with pytest.raises(InvalidArgumentError):
            bernoulli_denoise(np.ones(3), p3, vertex_mask(3, [0, 1, 2]), tau)

    def test_trusted_set_exact_bitwise(self, rng):
        for mode in ("l1", "l0"):
            g = random_connected_graph(15, 8, rng)
            sig = rng.normal(size=g.n)
            zeta = vertex_mask(g.n, [1, 4, 7])
            out = bernoulli_denoise(sig, g, zeta, 0.5, mode=mode)
            assert np.array_equal(out.signal[~zeta], sig[~zeta])

    def test_high_p_branch_equals_harmonic_interpolation(self, rng):
        g = random_connected_graph(20, 10, rng)
        sig = rng.normal(size=g.n)
        zeta = vertex_mask(g.n, [0, 3, 8, 15])
        out = bernoulli_denoise(sig, g, zeta, dropout_penalty(0.9, 1.0))
        expect = harmonic_interpolate(g, ~zeta, sig[~zeta])
        assert np.array_equal(out.signal, expect.signal)
        assert out.iterations == expect.iterations > 0

    def test_orientation_invariance(self, rng):
        """Flipping incidence-row orientations leaves the estimate unchanged."""
        n = 12
        g = random_connected_graph(n, 6, rng)
        sig = rng.normal(size=n)
        zeta = vertex_mask(g.n, [2, 5, 6, 9])
        for mode in ("l1", "l0"):
            base = bernoulli_denoise(sig, g, zeta, 0.8, mode=mode).signal
            # rebuild the graph with a subset of edges listed head-first;
            # canonicalization restores a < b, so the stored operator is
            # identical and the estimate must be bitwise equal
            flip = rng.uniform(size=g.edge_w.size) < 0.5
            g2 = Graph.from_edges(
                n,
                np.where(flip, g.edge_b, g.edge_a),
                np.where(flip, g.edge_a, g.edge_b),
                g.edge_w,
            )
            flipped = bernoulli_denoise(sig, g2, zeta, 0.8, mode=mode).signal
            assert np.array_equal(base, flipped)
            # the objective itself only sees B through a squared norm: check
            # against an explicitly sign-flipped dense design
            bd = dense_incidence(g)
            bd_flipped = bd.copy()
            bd_flipped[flip.nonzero()[0]] *= -1.0
            gram, c, energy = gram_form(bd_flipped[:, zeta], -(bd_flipped @ sig))
            if mode == "l1":
                upd = lasso_coordinate_descent(gram, c, 0.8, tol=1e-13)
            else:
                upd = l0_greedy(gram, c, 0.8, energy)
            ref = sig.copy()
            ref[zeta] += upd.signal
            assert np.allclose(ref, base, atol=1e-9)


def no_trust(sig, g, tau, mode="l1"):
    """The dropout estimate with every vertex suspected (zeta = V)."""
    return bernoulli_denoise(sig, g, np.ones(g.n, dtype=bool), tau, mode=mode)


class TestNoTrust:
    def test_smooth_observation_unchanged(self, rng):
        g = random_connected_graph(10, 4, rng)
        sig = np.full(g.n, 2.5)
        for mode in ("l1", "l0"):
            out = no_trust(sig, g, 0.5, mode=mode)
            assert np.allclose(out.signal, sig, atol=1e-12)

    def test_huge_tau_returns_observation(self, rng):
        g = random_connected_graph(8, 4, rng)
        sig = rng.normal(size=g.n)
        out = no_trust(sig, g, 1e9, mode="l1")
        assert np.array_equal(out.signal, sig)

    def test_salt_and_pepper_on_constant_patch(self):
        g = build_grid_graph(4, 4)
        truth = np.full(16, 2.0)
        noisy = truth.copy()
        noisy[5] = 9.0
        noisy[10] = -3.0
        out = no_trust(noisy, g, 0.5, mode="l0")
        assert np.allclose(out.signal, truth, atol=1e-8)

    def test_tau_validation(self, p3):
        with pytest.raises(InvalidArgumentError):
            no_trust(np.ones(3), p3, 0.0)

    def test_update_has_no_constant_component_under_full_support(self):
        """When every coordinate moves, the mean of the update is pinned to
        the minimal-norm representative."""
        g = build_grid_graph(3, 3)
        full = 0
        for seed in range(10):
            basis_sig = np.random.default_rng(seed).normal(size=9)
            out = no_trust(basis_sig, g, 1e-300, mode="l0")
            x = out.signal - basis_sig
            if np.count_nonzero(x) == 9:
                full += 1
                assert abs(x.mean()) <= 1e-8
        assert full >= 1


def dense_greedy_colouring(a):
    """The colour classes of A's columns, greedy in index order, two
    columns conflicting when they share a nonzero row."""
    pattern = (a != 0.0).astype(int)
    conflict = pattern.T @ pattern > 0
    colour = []
    for j in range(a.shape[1]):
        taken = {colour[i] for i in range(j) if conflict[i, j]}
        colour.append(min(set(range(j + 1)) - taken))
    colour = np.array(colour)
    return [np.flatnonzero(colour == c).tolist() for c in range(colour.max() + 1)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 16),
    tau=st.floats(0.05, 3.0),
    data=st.data(),
)
def test_gram_form_meets_the_design_form_oracle(seed, n, tau, data):
    """The dropout estimate in Gram form, L(zeta, zeta) and -(L g)(zeta),
    checked against the design form ||B(:, zeta) x + B g||^2 built from the
    dense incidence matrix B."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, int(rng.integers(0, 2 * n)), rng)
    zeta = vertex_mask(n, rng.choice(n, size=data.draw(st.integers(1, n)), replace=False))
    sig = rng.normal(0.0, 2.0, size=n)
    b = dense_incidence(g)
    a, y = b[:, zeta], -(b @ sig)

    # the Gram's pattern colours the coordinates as the design's pattern does
    classes = _colour_classes(g.laplacian.principal(np.flatnonzero(zeta)))
    assert [c.tolist() for c in classes] == dense_greedy_colouring(a)
    for cols in classes:
        rows = np.nonzero(a[:, cols])[0]
        assert rows.size == np.unique(rows).size

    # LASSO: the design-form KKT conditions hold at the estimate
    x = bernoulli_denoise(sig, g, zeta, tau, "l1").signal[zeta] - sig[zeta]
    assert kkt_violation_loop(2.0 * (a.T @ (a @ x - y)), tau, x) <= 1e-6

    # l0: no worse than x = 0 nor than the best single column
    x = bernoulli_denoise(sig, g, zeta, tau, "l0").signal[zeta] - sig[zeta]
    r = a @ x - y
    objective = float(r @ r) + tau * np.count_nonzero(x)
    single = min(float(y @ y) - float(col @ y) ** 2 / float(col @ col) + tau for col in a.T)
    assert objective <= float(y @ y) * (1 + 1e-9)
    assert objective <= single * (1 + 1e-9)
