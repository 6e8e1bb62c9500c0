import functools

import numpy as np
import pytest
import scipy.sparse as sp

from graphdenoise import (
    InvalidArgumentError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    build_grid_graph,
    cg_solve,
    dirichlet_energy,
    harmonic_interpolate,
)

from conftest import dense_laplacian, random_connected_graph, vertex_mask


def shifted_laplacian(graph, d, tau):
    """The SPD system matrix diag(d) + tau*L in CSR form."""
    return (sp.diags(d) + tau * graph.laplacian).tocsr()


class TestCgSolve:
    def test_identity_operator_one_iteration(self, p3):
        op = shifted_laplacian(p3, np.ones(3), 0.0)
        b = np.array([3.0, -1.0, 2.0])
        report = cg_solve(op, b)
        assert np.allclose(report.signal, b)
        assert report.iterations <= 1

    def test_p3_against_dense_inverse(self, p3):
        op = shifted_laplacian(p3, np.ones(3), 1.0)
        b = np.array([1.0, 0.0, 0.0])
        report = cg_solve(op, b, tol=1e-12)
        expect = np.linalg.solve(np.eye(3) + dense_laplacian(p3), b)
        assert np.allclose(report.signal, expect, atol=1e-10)

    def test_zero_rhs(self, p3):
        op = shifted_laplacian(p3, np.ones(3), 2.0)
        report = cg_solve(op, np.zeros(3))
        assert np.array_equal(report.signal, np.zeros(3))
        assert report.iterations == 0

    def test_matches_dense_solves_on_random_graphs(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 100))
            g = random_connected_graph(n, int(rng.integers(0, n // 2 + 1)), rng)
            d = rng.uniform(0.1, 2.0, size=n)
            tau = float(rng.uniform(0.0, 3.0))
            op = shifted_laplacian(g, d, tau)
            b = rng.normal(size=n)
            got = cg_solve(op, b, tol=1e-12, max_iter=50 * n).signal
            expect = np.linalg.solve(np.diag(d) + tau * dense_laplacian(g), b)
            assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)

    def test_indefinite_matrix_rejected(self, p3):
        with pytest.raises(NotPositiveDefiniteError):
            cg_solve(shifted_laplacian(p3, -np.ones(3), 0.25), np.ones(3))
        with pytest.raises(NotPositiveDefiniteError):
            cg_solve(sp.diags([1.0, -1.0, 1.0]).tocsr(), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(NotPositiveDefiniteError):
            cg_solve(shifted_laplacian(p3, -np.ones(3), 0.5), np.ones(3))

    def test_non_finite_rhs_rejected(self, p3):
        op = shifted_laplacian(p3, np.ones(3), 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidArgumentError):
                cg_solve(op, np.array([1.0, bad, 0.0]))

    def test_max_iter_returns_best_iterate_unconverged(self, rng):
        g = random_connected_graph(60, 30, rng)
        op = shifted_laplacian(g, np.full(g.n, 1e-6), 1.0)
        b = rng.normal(size=g.n)
        report = cg_solve(op, b, tol=1e-14, max_iter=2)
        assert report.iterations == 2
        assert report.signal.shape == (g.n,)
        assert not report.converged
        assert report.trace.size == 2 and report.trace.min() > 1e-14

    def test_report_residual_is_true_residual(self, rng):
        g = random_connected_graph(25, 10, rng)
        op = shifted_laplacian(g, np.ones(g.n), 0.7)
        b = rng.normal(size=g.n)
        report = cg_solve(op, b, tol=1e-10)
        resid = np.linalg.norm(op @ report.signal - b) / np.linalg.norm(b)
        assert resid <= 1e-10
        assert report.converged
        assert report.trace[-1] == pytest.approx(resid, abs=1e-12)

    def test_non_finite_curvature_is_a_numerical_failure(self):
        """A p'Ap that overflows raises before any step is taken."""
        op = sp.csr_matrix(np.array([[1.0, 1e300], [1e300, 1.0]]))
        with np.errstate(all="ignore"), pytest.raises(
            NumericalFailureError, match="non-finite curvature"
        ) as err:
            cg_solve(op, np.array([1e10, 1e10]))
        assert err.value.trace.size == 0

    def test_diverged_residual_is_a_numerical_failure(self):
        """A step whose residual norm overflows raises with the trace so far."""
        op = sp.csr_matrix(np.array([[1.0, 1e300], [1e300, 1.0]]))
        with np.errstate(all="ignore"), pytest.raises(
            NumericalFailureError, match="residual diverged"
        ) as err:
            cg_solve(op, np.array([1.0, 0.0]))
        assert err.value.trace.size == 1 and not np.isfinite(err.value.trace[0])

    def test_invalid_inputs(self, p3):
        op = shifted_laplacian(p3, np.ones(3), 1.0)
        with pytest.raises(InvalidArgumentError):
            cg_solve(op, np.zeros(4))
        with pytest.raises(InvalidArgumentError):
            cg_solve(op, np.zeros(3), tol=0.0)


class TestHarmonicInterpolate:
    def test_full_known_set_returns_observations(self, p3):
        s = vertex_mask(3, [0, 1, 2])
        obs = np.array([4.0, 5.0, 6.0])
        assert np.array_equal(harmonic_interpolate(p3, s, obs).signal, obs)

    def test_p3_midpoint_average(self, p3):
        s = vertex_mask(3, [0, 2])
        out = harmonic_interpolate(p3, s, np.array([0.0, 2.0])).signal
        assert out[1] == pytest.approx(1.0, abs=1e-10)

    def test_constant_extension_from_one_corner(self):
        g = build_grid_graph(2, 2)
        s = vertex_mask(4, [0])
        out = harmonic_interpolate(g, s, np.array([3.25])).signal
        assert np.allclose(out, 3.25, atol=1e-10)

    def test_result_reports_the_cg_solve(self, rng):
        g = random_connected_graph(20, 10, rng)
        s = vertex_mask(20, range(0, 20, 3))
        res = harmonic_interpolate(g, s, rng.normal(size=s.sum()), tol=1e-12)
        assert res.converged and res.iterations > 0
        assert res.trace.size == res.iterations and res.trace[-1] <= 1e-12
        full = np.ones(20, dtype=bool)
        assert harmonic_interpolate(g, full, np.ones(20)).iterations == 0

    def test_cap_keeps_known_values_and_reports_unconverged(self, monkeypatch):
        from graphdenoise import solvers

        monkeypatch.setattr(solvers, "cg_solve", functools.partial(cg_solve, max_iter=1))
        g = build_grid_graph(4, 4)
        known = vertex_mask(16, [0, 3, 12, 15])
        obs = np.array([1.0, -2.5, 0.1, 7.0])
        res = harmonic_interpolate(g, known, obs)
        assert not res.converged and res.iterations == 1
        assert np.array_equal(res.signal[known], obs)
        assert np.all(np.isfinite(res.signal))

    def test_empty_known_set_rejected(self, p3):
        with pytest.raises(InvalidArgumentError):
            harmonic_interpolate(p3, np.zeros(3, dtype=bool), np.array([]))

    def test_obs_length_must_match_the_known_set(self, p3):
        with pytest.raises(InvalidArgumentError, match="expected 2 observed values"):
            harmonic_interpolate(p3, np.array([True, False, True]), np.ones(3))

    def test_harmonicity_and_maximum_principle(self, rng):
        for _ in range(20):
            n = int(rng.integers(6, 60))
            g = random_connected_graph(n, int(rng.integers(0, n)), rng)
            ksize = int(rng.integers(1, n))
            s = vertex_mask(n, rng.choice(n, size=ksize, replace=False))
            obs = rng.normal(size=ksize)
            out = harmonic_interpolate(g, s, obs, tol=1e-12).signal
            assert np.array_equal(out[s], obs)
            comp = ~s
            if not comp.any():
                continue
            lap = dense_laplacian(g) @ out
            assert np.max(np.abs(lap[comp])) <= 1e-7
            assert out[comp].min() >= obs.min() - 1e-9
            assert out[comp].max() <= obs.max() + 1e-9

    def test_minimizes_energy_among_feasible(self, rng):
        g = random_connected_graph(20, 10, rng)
        s = vertex_mask(g.n, range(0, 20, 3))
        obs = rng.normal(size=s.sum())
        out = harmonic_interpolate(g, s, obs, tol=1e-12).signal
        base = dirichlet_energy(g, out)
        comp = ~s
        for _ in range(20):
            delta = np.zeros(g.n)
            delta[comp] = rng.normal(size=comp.sum())
            perturbed = out + 1e-3 * delta
            assert dirichlet_energy(g, perturbed) >= base - 1e-12

    def test_depends_only_on_boundary_of_known_set(self, rng):
        """Editing observations away from the boundary only moves those
        vertices' own outputs."""
        g = random_connected_graph(25, 12, rng)
        s = vertex_mask(g.n, range(0, 25, 2))
        obs = rng.normal(size=s.sum())
        out1 = harmonic_interpolate(g, s, obs, tol=1e-12).signal
        cut = s[g.edge_a] != s[g.edge_b]
        boundary = set(g.edge_a[cut].tolist()) | set(g.edge_b[cut].tolist())
        interior = [i for i, v in enumerate(np.flatnonzero(s)) if v not in boundary]
        if not interior:
            pytest.skip("no interior vertices in this draw")
        obs2 = obs.copy()
        obs2[interior] += rng.normal(size=len(interior))
        out2 = harmonic_interpolate(g, s, obs2, tol=1e-12).signal
        assert np.allclose(out1[~s], out2[~s], atol=1e-9)
        assert np.array_equal(out2[s], obs2)
