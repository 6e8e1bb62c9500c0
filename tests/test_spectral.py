import numpy as np
import pytest

from graphdenoise import (
    InvalidArgumentError,
    TooLargeError,
    apply_filter,
    build_grid_graph,
    dirichlet_energy,
    eigendecompose,
    gft,
    igft,
    map_error_covariance_diag,
    sample_prior,
)

from conftest import dense_laplacian, random_connected_graph


class TestEigendecompose:
    def test_single_edge_by_hand(self):
        g = build_grid_graph(1, 2)
        basis = eigendecompose(g)
        assert np.allclose(basis.lambdas, [0.0, 2.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(basis.psi[:, 0], [s, s])
        assert np.allclose(np.abs(basis.psi[:, 1]), [s, s])

    def test_p3_characteristic_values(self, p3):
        basis = eigendecompose(p3)
        assert np.allclose(basis.lambdas, [0.0, 1.0, 3.0], atol=1e-10)

    def test_constant_eigenvector_first(self, rng):
        g = random_connected_graph(23, 12, rng)
        basis = eigendecompose(g)
        assert basis.lambdas[0] == 0.0
        assert basis.lambdas[1] > 0.0
        assert np.allclose(basis.psi[:, 0], 1.0 / np.sqrt(g.n))

    def test_orthonormality_and_diagonalization(self, rng):
        g = random_connected_graph(30, 25, rng)
        basis = eigendecompose(g)
        assert np.allclose(basis.psi.T @ basis.psi, np.eye(g.n), atol=1e-8)
        dl = dense_laplacian(g)
        assert np.allclose(
            dl @ basis.psi, basis.psi * basis.lambdas, atol=1e-8
        )

    def test_cap_refused(self):
        # the size check fires before the dense matrix is formed
        g = build_grid_graph(1, 3001)
        with pytest.raises(TooLargeError):
            eigendecompose(g)

    def test_sign_convention_deterministic(self, rng):
        g = random_connected_graph(12, 4, rng)
        b1 = eigendecompose(g)
        b2 = eigendecompose(g)
        assert np.array_equal(b1.psi, b2.psi)
        for i in range(g.n):
            col = b1.psi[:, i]
            assert col[np.argmax(np.abs(col))] > 0


class TestTransforms:
    def test_constant_vector_coefficients(self, p3):
        basis = eigendecompose(p3)
        c = 2.5
        coeffs = gft(basis, np.full(3, c))
        assert coeffs[0] == pytest.approx(c * np.sqrt(3))
        assert np.allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_eigenvector_maps_to_unit_coefficient(self, rng):
        g = random_connected_graph(9, 4, rng)
        basis = eigendecompose(g)
        coeffs = gft(basis, basis.psi[:, 3])
        expect = np.zeros(g.n)
        expect[3] = 1.0
        assert np.allclose(coeffs, expect, atol=1e-10)

    def test_round_trip_and_parseval(self, rng):
        g = random_connected_graph(40, 30, rng)
        basis = eigendecompose(g)
        for _ in range(5):
            f = rng.normal(size=g.n)
            coeffs = gft(basis, f)
            assert np.allclose(igft(basis, coeffs), f, atol=1e-10)
            assert np.linalg.norm(f) == pytest.approx(
                np.linalg.norm(coeffs), abs=1e-10
            )
            h = rng.normal(size=g.n)
            assert float(f @ h) == pytest.approx(
                float(coeffs @ gft(basis, h)), abs=1e-10
            )


class TestFilters:
    def test_identity_and_zero(self, rng):
        g = random_connected_graph(11, 5, rng)
        basis = eigendecompose(g)
        f = rng.normal(size=g.n)
        assert np.allclose(apply_filter(basis, np.ones(g.n), f), f, atol=1e-10)
        assert np.allclose(apply_filter(basis, np.zeros(g.n), f), 0.0)

    def test_lambda_response_equals_laplacian(self, rng):
        g = random_connected_graph(13, 6, rng)
        basis = eigendecompose(g)
        f = rng.normal(size=g.n)
        assert np.allclose(
            apply_filter(basis, basis.lambdas, f), g.laplacian @ f, atol=1e-8
        )

    def test_response_length_must_match(self, p3):
        basis = eigendecompose(p3)
        with pytest.raises(InvalidArgumentError):
            apply_filter(basis, np.ones(2), np.ones(3))


class TestPriorSampling:
    def test_seed_reuse_reproduces(self, p3):
        basis = eigendecompose(p3)
        a = sample_prior(basis, 1.0, mean_coeff=0.3, rng_seed=42)
        b = sample_prior(basis, 1.0, mean_coeff=0.3, rng_seed=42)
        assert np.array_equal(a, b)

    def test_kappa_validation(self, p3):
        basis = eigendecompose(p3)
        with pytest.raises(InvalidArgumentError):
            sample_prior(basis, 0.0)

    @pytest.mark.parametrize("seed", [-1, 2.0, [1, 2]])
    def test_seed_must_be_a_nonnegative_integer(self, p3, seed):
        basis = eigendecompose(p3)
        with pytest.raises(InvalidArgumentError, match="nonnegative integer"):
            sample_prior(basis, 1.0, rng_seed=seed)

    def test_coefficient_variances(self, rng):
        g = random_connected_graph(10, 5, rng)
        basis = eigendecompose(g)
        kappa = 0.7
        draws = 10_000
        coeffs = np.empty((draws, g.n))
        for i in range(draws):
            f = sample_prior(basis, kappa, rng_seed=9000 + i)
            coeffs[i] = gft(basis, f)
        var = coeffs.var(axis=0)
        expect = 1.0 / (2.0 * kappa * basis.lambdas[1:])
        assert np.all(np.abs(var[1:] - expect) <= 0.05 * expect)

    def test_large_kappa_kills_fluctuations(self, rng):
        g = random_connected_graph(8, 3, rng)
        basis = eigendecompose(g)
        draws = np.array(
            [
                gft(basis, sample_prior(basis, 1e6, rng_seed=100 + i))[1]
                for i in range(2000)
            ]
        )
        assert draws.var() < 1e-5 / basis.lambdas[1]

    def test_expected_energy(self, rng):
        """E[f'Lf] = (n-1)/(2 kappa); empirical mean within 5%."""
        g = random_connected_graph(12, 6, rng)
        basis = eigendecompose(g)
        kappa = 2.0
        draws = 10_000
        total = 0.0
        for i in range(draws):
            f = sample_prior(basis, kappa, rng_seed=i)
            total += dirichlet_energy(g, f)
        expect = (g.n - 1) / (2.0 * kappa)
        assert total / draws == pytest.approx(expect, rel=0.05)


class TestErrorCovariance:
    def test_zero_noise_gives_zero(self, p3):
        basis = eigendecompose(p3)
        assert np.allclose(map_error_covariance_diag(basis, 1.0, 0.0), 0.0)

    @pytest.mark.parametrize(
        "kappa,sigma2,message",
        [(-1.0, 1.0, "kappa must be nonnegative"), (1.0, -1.0, "sigma2 must be nonnegative")],
    )
    def test_negative_parameters_rejected(self, p3, kappa, sigma2, message):
        with pytest.raises(InvalidArgumentError, match=message):
            map_error_covariance_diag(eigendecompose(p3), kappa, sigma2)

    def test_zero_kappa_gives_flat_noise(self, p3):
        basis = eigendecompose(p3)
        out = map_error_covariance_diag(basis, 0.0, 3.0)
        assert out[0] == 0.0
        assert np.allclose(out[1:], 3.0)

    def test_entries_nonincreasing_in_lambda(self, rng):
        g = random_connected_graph(15, 8, rng)
        basis = eigendecompose(g)
        out = map_error_covariance_diag(basis, 0.5, 2.0)
        assert out[0] == 0.0
        assert np.all(np.diff(out[1:]) <= 1e-15)

    def test_monte_carlo_per_frequency_error(self, rng):
        """Simulated squared error per frequency matches the formula to 10%."""
        from graphdenoise import denoise_gaussian

        g = random_connected_graph(8, 4, rng)
        basis = eigendecompose(g)
        kappa, sigma2 = 0.8, 0.5
        tau = 2.0 * kappa * sigma2
        trials = 10_000
        acc = np.zeros(g.n)
        local = np.random.default_rng(77)
        for i in range(trials):
            f = sample_prior(basis, kappa, rng_seed=50_000 + i)
            noise_coeffs = np.zeros(g.n)
            noise_coeffs[1:] = np.sqrt(sigma2) * local.standard_normal(g.n - 1)
            gsig = f + igft(basis, noise_coeffs)
            est = denoise_gaussian(gsig, g, tau).signal
            acc += gft(basis, est - f) ** 2
        acc /= trials
        expect = map_error_covariance_diag(basis, kappa, sigma2)
        assert acc[0] == pytest.approx(0.0, abs=1e-16)
        assert np.all(np.abs(acc[1:] - expect[1:]) <= 0.10 * expect[1:])


class TestFilterSolverEquivalence:
    def test_gaussian_map_filter_equals_solver(self, rng):
        from graphdenoise import denoise_gaussian

        for _ in range(8):
            n = int(rng.integers(5, 200))
            g = random_connected_graph(n, int(rng.integers(0, n)), rng)
            basis = eigendecompose(g)
            f = rng.normal(size=n)
            tau = float(rng.uniform(0.05, 5.0))
            via_filter = apply_filter(basis, 1.0 / (1.0 + tau * basis.lambdas), f)
            via_solver = denoise_gaussian(f, g, tau).signal
            assert np.linalg.norm(via_filter - via_solver) <= 1e-8 * max(
                np.linalg.norm(via_filter), 1e-30
            )
