"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-rA`` to
see them).  Criterion 2 pools enough signals that its 5% tolerance sits
well outside the moment estimator's sampling spread; see the test's
docstring.
"""

import itertools
import time

import numpy as np
import pytest

from graphdenoise import (
    apply_filter,
    band_filter,
    bernoulli_denoise,
    build_grid_graph,
    build_knn_graph,
    ccp_denoise,
    ccp_vs_pg_benchmark,
    denoise_gaussian,
    dropout_penalty,
    eigendecompose,
    estimate_tau,
    incidence_columns,
    l0_greedy,
    lasso_coordinate_descent,
    local_average,
    magic_filter,
    nuclear_norm_denoise,
    projected_gradient_denoise,
    sample_prior,
    uniform_loss,
)
from graphdenoise import Graph
from graphdenoise.bernoulli import lasso_kkt_violation
from graphdenoise.experiments import (
    derive_rng,
    make_cluster_data,
    pearson_correlation,
    relative_error,
)

from conftest import (
    dense_incidence,
    dense_laplacian,
    random_connected_graph,
    vertex_mask,
)


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_filter_solver_equivalence():
    """CG solve equals the dense spectral filter on 50 random graphs."""
    start = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 201))
        g = random_connected_graph(n, int(rng.integers(0, n)), rng)
        basis = eigendecompose(g)
        sig = rng.normal(size=n)
        tau = float(rng.uniform(0.01, 10.0))
        via_filter = apply_filter(basis, 1.0 / (1.0 + tau * basis.lambdas), sig)
        via_solver = denoise_gaussian(sig, g, tau, tol=1e-12).signal
        rel = float(
            np.linalg.norm(via_filter - via_solver)
            / max(np.linalg.norm(via_filter), 1e-300)
        )
        worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report(1, "filter/solver equivalence", ok,
           f"worst relative gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_2_moment_estimator_consistency():
    """Pooled tau estimate within 5% for tau in {0.1, 1, 10} at seed 0.

    The graph is the k=2 neighborhood graph of 500 evenly spaced points on
    a line (the time-series case).  On this graph the pooled moment
    estimator is unbiased: over 300 root seeds its mean relative error is
    -0.2%, +0.07% and +0.3% at tau = 0.1, 1 and 10.  Its one-sigma spread
    at K=500 signals is 6.3%, 1.5% and 3.0%, so a 500-signal check misses
    the 5% bound about half the time with nothing wrong.  The spread
    shrinks as 1/sqrt(K); K = 16000 signals per tau puts one sigma at
    about 1.1%, 0.27% and 0.53%, so the 5% bound sits 4.5, 19 and 9 sigma
    out.  Sized this way the check also sees a bias such as using n in
    place of n-1 in the moment system: +6% at tau=0.1, about one sigma
    past the bound at K=16000 (it reads +5.2% at seed 0), where K=500
    hides it in the noise.  A failure here points to a defect in the
    estimator or in the traces it uses.

    The signal matrix is (K, n) with K != n, so the row orientation that
    ``estimate_tau`` reads is not a guess.
    """
    start = time.time()
    n = 500
    k_signals = 16000
    graph = build_knn_graph(np.linspace(0.0, 1.0, n).reshape(-1, 1), 2)
    basis = eigendecompose(graph)
    errors = {}
    for tau_true in (0.1, 1.0, 10.0):
        kappa = 1.0
        sigma2 = tau_true / (2.0 * kappa)
        stream = derive_rng(0, "tau-consistency", str(tau_true))
        signals = np.empty((k_signals, n))
        for j in range(k_signals):
            f = sample_prior(
                basis, kappa, rng_seed=int(stream.integers(0, 2**62))
            )
            signals[j] = f + np.sqrt(sigma2) * stream.standard_normal(n)
        tau_hat = estimate_tau(signals, graph)
        errors[tau_true] = (tau_hat - tau_true) / tau_true
    elapsed = time.time() - start
    ok = all(abs(e) <= 0.05 for e in errors.values()) and elapsed < 60.0
    detail = ", ".join(f"tau={t}: {e:+.2%}" for t, e in errors.items())
    report(
        2, "moment-estimator consistency", ok,
        f"K={k_signals}, {detail}, {elapsed:.1f}s",
    )
    assert elapsed < 60.0
    for tau_true, err in errors.items():
        assert abs(err) <= 0.05, (
            f"tau={tau_true}: relative error {err:+.3f} exceeds 5%"
        )


def test_criterion_3_table1_trend():
    """Estimated-tau spectral denoising beats averaging and SVD shrinkage.

    Prior samples on the 32x32 grid are scaled to an image-like range
    (mean 128, fluctuation RMS 40), so sigma in {50, 100} matches the
    signal-to-noise ratios of the corresponding pixel-scale settings.
    """
    start = time.time()
    g = build_grid_graph(32, 32)
    basis = eigendecompose(g)
    n = g.n
    kappa = float(np.sum(1.0 / basis.lambdas[1:]) / (2 * n * 40.0**2))
    stream = derive_rng(0, "table1-signals")
    signals = np.stack(
        [
            sample_prior(
                basis,
                kappa,
                mean_coeff=128.0 * np.sqrt(n),
                rng_seed=int(stream.integers(0, 2**62)),
            )
            for _ in range(100)
        ]
    )
    summaries = []
    ok = True
    for sigma in (50.0, 100.0):
        errs = {key: [] for key in
                ["ours"] + [f"avg{t}" for t in (1, 2, 5)]
                + [f"nn{v}" for v in (1, 25, 50)]}
        for j, truth in enumerate(signals):
            r = derive_rng(0, "table1-noise", int(sigma), j)
            noisy = truth + sigma * r.standard_normal(n)
            tau_hat = estimate_tau(noisy, g)
            errs["ours"].append(
                relative_error(truth, denoise_gaussian(noisy, g, tau_hat).signal)
            )
            for t in (1, 2, 5):
                errs[f"avg{t}"].append(
                    relative_error(truth, local_average(noisy, g, t))
                )
            for v in (1, 25, 50):
                errs[f"nn{v}"].append(
                    relative_error(
                        truth, nuclear_norm_denoise(noisy, g, float(v))
                    )
                )
        med = {k: float(np.median(v)) for k, v in errs.items()}
        ours = med.pop("ours")
        ok = ok and all(ours < other for other in med.values())
        summaries.append(
            f"sigma={sigma:g}: ours {ours:.3f} vs best other {min(med.values()):.3f}"
        )
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    report(3, "gaussian-noise trend", ok, "; ".join(summaries) + f", {elapsed:.0f}s")
    assert ok


def test_criterion_4_table3_trend():
    """Dropout-model estimate beats lazy diffusion on synthetic clusters."""
    start = time.time()
    corr = {"low": [], "high": []}
    magic_corr = {(t, fam): [] for t in (1, 5, 10) for fam in ("low", "high")}
    for seed in range(10):
        pts, low, high = make_cluster_data(5, 200, spread=1.0, seed=seed, n_signals=2)
        g = build_knn_graph(pts, 10)
        for fam, group in (("low", low), ("high", high)):
            for si, truth in enumerate(group):
                r = derive_rng(seed, "table3-noise", fam, si)
                noisy = truth.copy()
                noisy[r.uniform(size=truth.shape) < 0.9] = 0.0
                zeta = noisy == 0.0
                est = bernoulli_denoise(noisy, g, zeta, dropout_penalty(0.9, 1.0)).signal
                corr[fam].append(pearson_correlation(truth, est))
                for t in (1, 5, 10):
                    magic_corr[(t, fam)].append(
                        pearson_correlation(truth, magic_filter(noisy, g, t))
                    )
    mean_low = float(np.mean(corr["low"]))
    mean_high = float(np.mean(corr["high"]))
    ok = mean_low >= 0.90
    for fam, ours in (("low", mean_low), ("high", mean_high)):
        for t in (1, 5, 10):
            ok = ok and ours >= float(np.mean(magic_corr[(t, fam)]))
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    best_magic = max(float(np.mean(v)) for v in magic_corr.values())
    report(4, "cluster-dropout trend", ok,
           f"low={mean_low:.3f} high={mean_high:.3f} best magic={best_magic:.3f}, "
           f"{elapsed:.0f}s")
    assert ok


def test_criterion_5_table4_trend():
    """Dropout model halves the noisy baseline and beats every comparison."""
    start = time.time()
    pts, _, _ = make_cluster_data(5, 100, spread=1.0, seed=0, n_signals=1)
    g = build_knn_graph(pts, 10)
    basis = eigendecompose(g)
    stream = derive_rng(0, "table4-signals")
    keys = (
        ["noisy", "bernoulli"]
        + [f"avg{t}" for t in (1, 2, 5)]
        + [f"magic{t}" for t in (1, 5, 10)]
        + [f"low{k}" for k in (5, 25, 100)]
        + [f"high{k}" for k in (5, 25, 100)]
    )
    errs = {k: [] for k in keys}
    for j in range(50):
        f = sample_prior(basis, 1.0, rng_seed=int(stream.integers(0, 2**62)))
        f = f - f.min() + 0.05 * (f.max() - f.min())
        r = derive_rng(0, "table4-noise", j)
        noisy = f.copy()
        noisy[r.uniform(size=f.shape) < 0.5] = 0.0
        errs["noisy"].append(relative_error(f, noisy))
        zeta = noisy == 0.0
        tau = dropout_penalty(0.5, 1.0)
        errs["bernoulli"].append(
            relative_error(f, bernoulli_denoise(noisy, g, zeta, tau).signal)
        )
        for t in (1, 2, 5):
            errs[f"avg{t}"].append(relative_error(f, local_average(noisy, g, t)))
        for t in (1, 5, 10):
            errs[f"magic{t}"].append(relative_error(f, magic_filter(noisy, g, t)))
        for k in (5, 25, 100):
            errs[f"low{k}"].append(
                relative_error(f, band_filter(noisy, basis, k, "low"))
            )
            errs[f"high{k}"].append(
                relative_error(f, band_filter(noisy, basis, k, "high"))
            )
    mean = {k: float(np.mean(v)) for k, v in errs.items()}
    ours = mean["bernoulli"]
    ok = ours < 0.5 * mean["noisy"]
    ok = ok and all(
        ours < mean[k] for k in keys if k not in ("bernoulli",)
    )
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    report(5, "dropout-surrogate trend", ok,
           f"ours {ours:.3f} vs noisy {mean['noisy']:.3f}, "
           f"best other {min(v for k, v in mean.items() if k != 'bernoulli'):.3f}, "
           f"{elapsed:.0f}s")
    assert ok


def test_criterion_6_ccp_properties():
    """Monotone CCP on a 50x50 grid; both solvers beat the truth's loss."""
    start = time.time()
    g = build_grid_graph(50, 50)
    basis = eigendecompose(g)
    truth = sample_prior(basis, 1.0, rng_seed=7)
    truth = truth - truth.min() + 0.05 * (truth.max() - truth.min())
    rep = ccp_vs_pg_benchmark(truth, g, kappa=1.0, seed=0)
    monotone = bool(np.all(np.diff(rep.ccp.trace) <= 1e-12))
    beats = rep.ccp.trace[-1] <= rep.truth_loss and rep.pg.trace.min() <= rep.truth_loss
    few = rep.ccp.iterations <= 50
    elapsed = time.time() - start
    ok = monotone and beats and few and elapsed < 300.0
    report(6, "ccp descent benchmark", ok,
           f"monotone={monotone} beats-truth={beats} outer={rep.ccp.iterations}, "
           f"{elapsed:.0f}s")
    assert monotone
    assert beats
    assert few
    assert elapsed < 300.0


def test_criterion_7_small_instance_oracles():
    """Greedy/LASSO/CCP land on the oracles' minimizers at small sizes."""
    start = time.time()
    # (a) l0 search vs exhaustive support enumeration
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(6, 14))
        g = random_connected_graph(n, int(rng.integers(1, 6)), rng)
        size = int(rng.integers(2, 9))
        zeta = vertex_mask(n, rng.choice(n, size=size, replace=False))
        a_sparse = incidence_columns(g, zeta)
        a = a_sparse.toarray()
        sig = rng.normal(0.0, 2.0, size=n)
        y = -(dense_incidence(g) @ sig)
        tau = float(rng.uniform(0.3, 3.0))
        best = float(y @ y)
        for r in range(1, size + 1):
            for t in itertools.combinations(range(size), r):
                sol, *_ = np.linalg.lstsq(a[:, t], y, rcond=None)
                resid = y - a[:, t] @ sol
                best = min(best, float(resid @ resid) + tau * r)
        upd = l0_greedy(a_sparse, y, tau)
        got = float(np.sum((a @ upd.x - y) ** 2)) + tau * upd.support.size
        worst_gap = max(worst_gap, got / best - 1.0)
    ok_a = worst_gap <= 0.05

    # (b) LASSO KKT conditions
    worst_kkt = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 20))
        g = random_connected_graph(n, int(rng.integers(1, 8)), rng)
        size = int(rng.integers(1, n))
        zeta = vertex_mask(n, rng.choice(n, size=size, replace=False))
        a = incidence_columns(g, zeta)
        y = rng.normal(size=g.m)
        tau = float(rng.uniform(0.2, 2.0))
        upd = lasso_coordinate_descent(a, y, tau, tol=1e-13, max_sweeps=5000)
        worst_kkt = max(worst_kkt, lasso_kkt_violation(a, y, tau, upd.x))
    ok_b = worst_kkt <= 1e-6

    # (c) CCP / projected gradient vs grid search on n <= 3
    def grid_min_2d(obs, w, kappa):
        xs = np.arange(0.0, 5.0005, 1e-3)
        f2 = obs[1] + xs
        best = (np.inf, None)
        for chunk in np.array_split(obs[0] + xs, 25):
            a_ = chunk[:, None]
            b_ = f2[None, :]
            loss = kappa * w * (a_ - b_) ** 2 + np.log(a_) + np.log(b_)
            idx = np.unravel_index(np.argmin(loss), loss.shape)
            if loss[idx] < best[0]:
                best = (float(loss[idx]), np.array([a_[idx[0], 0], b_[0, idx[1]]]))
        return best

    g2 = Graph.from_edges(2, [0], [1], [1.0])
    obs2 = np.array([1.0, 0.2])
    _, f_star2 = grid_min_2d(obs2, 1.0, 1.0)
    res_c2, _ = ccp_denoise(obs2, g2, kappa=1.0, tol=1e-12)
    res_p2, _ = projected_gradient_denoise(
        obs2, g2, kappa=1.0, step=0.05, max_iter=50000, tol=1e-14
    )
    gap_c2 = float(np.max(np.abs(res_c2.signal - f_star2)))
    gap_p2 = float(np.max(np.abs(res_p2.signal - f_star2)))

    g3 = build_grid_graph(1, 3)
    obs3 = np.array([1.0, 0.4, 0.7])
    xs = np.arange(0.0, 3.0025, 5e-3)
    best3 = (np.inf, None)
    f2g, f3g = obs3[1] + xs, obs3[2] + xs
    bb, cc = np.meshgrid(f2g, f3g, indexing="ij")
    inner = np.log(bb) + np.log(cc)
    for a_val in obs3[0] + xs:
        loss = (a_val - bb) ** 2 + (bb - cc) ** 2 + np.log(a_val) + inner
        idx = np.unravel_index(np.argmin(loss), loss.shape)
        if loss[idx] < best3[0]:
            best3 = (float(loss[idx]), np.array([a_val, bb[idx], cc[idx]]))
    res_c3, _ = ccp_denoise(obs3, g3, kappa=1.0, tol=1e-12)
    res_p3, _ = projected_gradient_denoise(
        obs3, g3, kappa=1.0, step=0.05, max_iter=50000, tol=1e-14
    )
    gap_c3 = float(np.max(np.abs(res_c3.signal - best3[1])))
    gap_p3 = float(np.max(np.abs(res_p3.signal - best3[1])))
    ok_c = max(gap_c2, gap_p2, gap_c3, gap_p3) <= 1e-2

    elapsed = time.time() - start
    ok = ok_a and ok_b and ok_c and elapsed < 120.0
    report(7, "small-instance oracles", ok,
           f"l0 gap {worst_gap:.2%}, kkt {worst_kkt:.1e}, "
           f"ccp/pg gaps {max(gap_c2, gap_p2, gap_c3, gap_p3):.4f}, {elapsed:.0f}s")
    assert ok_a, f"l0 objective gap {worst_gap:.3%} exceeds 5%"
    assert ok_b, f"KKT violation {worst_kkt:.2e} exceeds 1e-6"
    assert ok_c
    assert elapsed < 120.0


def test_criterion_8_structural_invariants(tmp_path):
    """Factorization, maximum principle, mean preservation, orientation
    invariance, and thread-count determinism."""
    from graphdenoise import harmonic_interpolate
    from graphdenoise.cli import main
    from graphdenoise.matrixio import format_float

    start = time.time()
    rng = np.random.default_rng(8)

    # L = B'B entrywise on dense assemblies up to n = 50
    for _ in range(10):
        n = int(rng.integers(2, 51))
        g = random_connected_graph(n, int(rng.integers(0, n)), rng)
        db = dense_incidence(g)
        assert np.allclose(db.T @ db, dense_laplacian(g), atol=1e-12)
        assert np.allclose(g.laplacian.toarray(), db.T @ db, atol=1e-12)

    # harmonic maximum principle on 100 random instances
    for _ in range(100):
        n = int(rng.integers(4, 40))
        g = random_connected_graph(n, int(rng.integers(0, n)), rng)
        ksize = int(rng.integers(1, n))
        s = vertex_mask(n, rng.choice(n, size=ksize, replace=False))
        obs = rng.normal(size=ksize)
        out = harmonic_interpolate(g, s, obs, tol=1e-12).signal
        assert out.min() >= obs.min() - 1e-9
        assert out.max() <= obs.max() + 1e-9

    # mean preservation of the gaussian-model denoiser
    for _ in range(20):
        n = int(rng.integers(4, 60))
        g = random_connected_graph(n, int(rng.integers(0, n)), rng)
        sig = rng.normal(size=n) + 2.0
        out = denoise_gaussian(sig, g, float(rng.uniform(0.1, 8.0))).signal
        assert out.sum() == pytest.approx(sig.sum(), rel=1e-8)

    # orientation invariance of the dropout objective
    g = random_connected_graph(14, 8, rng)
    sig = rng.normal(size=g.n)
    zeta = vertex_mask(g.n, [1, 3, 8, 11])
    for mode in ("l1", "l0"):
        base = bernoulli_denoise(sig, g, zeta, 0.7, mode).signal
        flip = rng.uniform(size=g.m) < 0.5
        g_flipped = Graph.from_edges(
            g.n,
            np.where(flip, g.edge_b, g.edge_a),
            np.where(flip, g.edge_a, g.edge_b),
            g.edge_w,
        )
        assert np.array_equal(base, bernoulli_denoise(sig, g_flipped, zeta, 0.7, mode).signal)

    # determinism under --threads variation
    src = tmp_path / "g.csv"
    data = rng.normal(size=(36, 5)) + 3.0
    src.write_text(
        "\n".join(",".join(format_float(v) for v in row) for row in data) + "\n"
    )
    blobs = []
    for threads in (1, 2, 5):
        out = tmp_path / f"o{threads}.csv"
        rc = main(
            [
                "denoise", "gaussian",
                "--graph", "grid", "6x6",
                "--input", str(src),
                "--output", str(out),
                "--estimate-tau",
                "--threads", str(threads),
            ]
        )
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    elapsed = time.time() - start
    ok = elapsed < 120.0
    report(8, "structural invariants", ok, f"{elapsed:.0f}s")
    assert elapsed < 120.0
