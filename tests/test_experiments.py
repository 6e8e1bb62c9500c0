import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest

from graphdenoise import (
    InvalidArgumentError,
    NumericalFailureError,
    add_noise,
    build_grid_graph,
    build_knn_graph,
    ccp_vs_pg_benchmark,
    dirichlet_energy,
    eigendecompose,
    make_cluster_data,
    parse_experiment_spec,
    pearson_correlation,
    relative_error,
    run_experiment,
    sample_prior,
    uniform_loss,
)
from graphdenoise.experiments import derive_rng

TINY_SPEC = """
[experiment]
name = tiny
seed = 0
repeats = 1

[graph]
kind = grid
height = 4
width = 4

[signal]
source = prior-sample
count = 2
kappa = 1.0

[noise]
kind = gaussian
levels = 0.5 1.0 2.0

[metrics]
names = relative-error

[method.gaussian]
tau = estimate

[method.local-average]
t = 1
"""


class TestNoise:
    def test_dropout_p_one_zeroes_everything(self, rng):
        f = rng.normal(size=50)
        kind = "bernoulli-dropout"
        out = add_noise(f, kind, 1.0, rng=derive_rng(3, "noise", kind))
        assert np.array_equal(out, np.zeros(50))

    def test_identity_cases(self, rng):
        f = rng.normal(size=20)
        for kind in ("gaussian", "bernoulli-dropout"):
            out = add_noise(f, kind, 0.0, rng=derive_rng(1, "noise", kind))
            assert np.array_equal(out, f)

    def test_uniform_scale_range(self, rng):
        f = rng.uniform(0.5, 2.0, size=200)
        out = add_noise(
            f, "uniform-scale", 0.0, rng=derive_rng(9, "noise", "uniform-scale")
        )
        assert np.all(out >= 0.0) and np.all(out <= f)

    def test_gaussian_moments_monte_carlo(self):
        n = 100_000
        f = np.zeros(n)
        out = add_noise(f, "gaussian", 2.0, rng=derive_rng(11, "noise", "gaussian"))
        assert abs(out.mean()) <= 3 * 2.0 / np.sqrt(n)
        assert out.var() == pytest.approx(4.0, rel=0.05)

    def test_validation(self):
        f, rng = np.zeros(3), derive_rng(0, "noise")
        with pytest.raises(InvalidArgumentError):
            add_noise(f, "poisson", 0.0, rng)
        with pytest.raises(InvalidArgumentError):
            add_noise(f, "gaussian", -1.0, rng)
        with pytest.raises(InvalidArgumentError):
            add_noise(f, "bernoulli-dropout", 1.5, rng)


class TestMetrics:
    def test_relative_error_examples(self, rng):
        f = rng.normal(size=10)
        assert relative_error(f, f) == 0.0
        assert relative_error(f, np.zeros(10)) == pytest.approx(1.0)
        assert relative_error(f, 2 * f) == pytest.approx(1.0)
        with pytest.raises(InvalidArgumentError, match="zero signal"):
            relative_error(np.zeros(10), f)

    def test_relative_error_far_apart_scales(self):
        """f_true's norm is taken on its own scale: a ratio the float range
        holds is returned, and one it does not is an overflow."""
        assert relative_error([1e-163, 0.0], [5e-164, 0.0]) == 0.5
        assert relative_error([1e-300, 1e-300], [0.0, 1e-10]) == pytest.approx(
            1e-10 / math.hypot(1e-300, 1e-300), rel=1e-15
        )
        for f_true in ([1e-300, 0.0], [5e-324, 0.0]):
            with pytest.raises(NumericalFailureError, match="relative error overflows"):
                relative_error(f_true, [1e300, 0.0])

    def test_pearson_examples(self, rng):
        f = rng.normal(size=10)
        assert pearson_correlation(f, f) == pytest.approx(1.0)
        assert pearson_correlation(f, -f) == pytest.approx(-1.0)
        with pytest.raises(InvalidArgumentError):
            pearson_correlation(f, np.full(10, 3.0))

    @pytest.mark.parametrize("metric", [relative_error, pearson_correlation])
    def test_shapes_must_match(self, rng, metric):
        with pytest.raises(InvalidArgumentError, match="matching shapes"):
            metric(rng.normal(size=10), rng.normal(size=9))


class TestClusterData:
    def test_single_cluster_low_signal_constant(self):
        _, low, _ = make_cluster_data(1, 40, seed=0)
        assert np.ptp(low[0]) == 0.0

    def test_point_count(self):
        pts, low, high = make_cluster_data(5, 200, seed=0)
        assert pts.shape == (1000, 2)
        assert low.shape[1] == 1000 and high.shape[1] == 1000

    def test_deterministic(self):
        a = make_cluster_data(3, 30, seed=7)
        b = make_cluster_data(3, 30, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize(
        "c,spread,message",
        [(0, 1.0, "cluster counts must be positive"), (2, 0.0, "spread must be positive"),
         (2, -1.0, "spread must be positive")],
    )
    def test_invalid_sizes_rejected(self, c, spread, message):
        with pytest.raises(InvalidArgumentError, match=message):
            make_cluster_data(c, 5, spread=spread)

    def test_low_frequency_smoother_than_high(self):
        pts, low, high = make_cluster_data(5, 60, seed=1, n_signals=2)
        g = build_knn_graph(pts, 10)
        for s in range(2):
            assert dirichlet_energy(g, low[s]) < dirichlet_energy(g, high[s])


class TestRngStreams:
    def test_same_path_reproduces(self):
        a = derive_rng(5, "x", 3).standard_normal(4)
        b = derive_rng(5, "x", 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = derive_rng(5, "x", 3).standard_normal(4)
        b = derive_rng(5, "x", 4).standard_normal(4)
        c = derive_rng(6, "x", 3).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_root_seed_is_used_whole(self):
        """Seeds at and above 2**63 are streams of their own, not another
        seed's; seeds below keep the stream of SeedSequence([seed, ...])."""
        draws = {
            seed: derive_rng(seed, "x", 3).standard_normal(4)
            for seed in (0, 2**63 - 1, 2**63, 2**64)
        }
        assert len({d.tobytes() for d in draws.values()}) == 4
        digest = int.from_bytes(hashlib.sha256(b"x").digest()[:8], "big")
        seq = np.random.SeedSequence([2**63 - 1, digest & (2**63 - 1), 3])
        expect = np.random.Generator(np.random.Philox(seq)).standard_normal(4)
        assert np.array_equal(draws[2**63 - 1], expect)

    def test_negative_seed_is_an_input_error(self):
        with pytest.raises(InvalidArgumentError, match="nonnegative integer"):
            derive_rng(-1)
        with pytest.raises(InvalidArgumentError, match="nonnegative integer"):
            make_cluster_data(2, 5, seed=-1)

    def test_a_stream_needs_a_seed(self):
        with pytest.raises(InvalidArgumentError, match="a stream needs a seed"):
            derive_rng(None)


class TestSpecParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tiny.spec"
        path.write_text(TINY_SPEC)
        spec = parse_experiment_spec(path)
        assert spec.name == "tiny"
        assert spec.noise_levels == (0.5, 1.0, 2.0)
        assert [m.name for m in spec.methods] == ["gaussian", "local-average"]

    def test_unknown_method_named(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text(TINY_SPEC + "\n[method.sorcery]\nt = 1\n")
        with pytest.raises(InvalidArgumentError, match="sorcery"):
            parse_experiment_spec(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("[experiment]\nname = x\n")
        with pytest.raises(InvalidArgumentError, match="graph"):
            parse_experiment_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            parse_experiment_spec(tmp_path / "nope.spec")


    @pytest.mark.parametrize(
        "kind,levels",
        [
            ("gaussian", "0.5 -1"),
            ("bernoulli-dropout", "0.2 1.5"),
        ],
    )
    def test_level_outside_the_noise_domain_named(self, tmp_path, kind, levels):
        path = tmp_path / "bad.spec"
        path.write_text(
            TINY_SPEC.replace("kind = gaussian", f"kind = {kind}").replace(
                "levels = 0.5 1.0 2.0", f"levels = {levels}"
            )
        )
        with pytest.raises(InvalidArgumentError, match=r"\[noise\] levels"):
            parse_experiment_spec(path)

class TestRunner:
    def test_row_counting(self, tmp_path):
        path = tmp_path / "tiny.spec"
        path.write_text(TINY_SPEC)
        spec = parse_experiment_spec(path)
        table = run_experiment(spec)
        # 2 methods x 1 param combo x 3 levels x 1 metric x 1 repeat
        assert len(table.rows) == 6

    def test_seed_none_is_an_input_error(self, tmp_path):
        path = tmp_path / "tiny.spec"
        path.write_text(TINY_SPEC)
        spec = dataclasses.replace(parse_experiment_spec(path), seed=None)
        with pytest.raises(InvalidArgumentError, match="an experiment needs a seed"):
            run_experiment(spec)

    def test_empty_method_list_empty_table(self, tmp_path):
        path = tmp_path / "tiny.spec"
        path.write_text(TINY_SPEC.split("[method.gaussian]")[0])
        table = run_experiment(parse_experiment_spec(path))
        assert len(table.rows) == 0

    def test_determinism(self, tmp_path):
        path = tmp_path / "tiny.spec"
        path.write_text(TINY_SPEC)
        spec = parse_experiment_spec(path)

        def fingerprint(table):
            return [
                (r.method, r.param_json, r.noise_kind, r.noise_level, r.metric, r.value)
                for r in table.rows
            ]

        assert fingerprint(run_experiment(spec)) == fingerprint(run_experiment(spec))

    def test_rows_come_in_spec_order(self, tmp_path):
        """Method, parameter combination, level, repeat, then metric: two of
        each, so every pair of neighbouring loops could be told apart if swapped."""
        path = tmp_path / "order.spec"
        path.write_text(
            TINY_SPEC.replace("repeats = 1", "repeats = 2")
            .replace("levels = 0.5 1.0 2.0", "levels = 1.0 0.5")
            .replace("names = relative-error", "names = pearson relative-error")
            .replace("[method.gaussian]\ntau = estimate", "[method.gaussian]\ntau = 2 0.5")
            .replace("[method.local-average]\nt = 1", "[method.local-average]\nt = 3 1")
        )
        spec = parse_experiment_spec(path)
        table = run_experiment(spec)
        expected = [
            (method, json.dumps({key: value}), level, metric)
            for method, key, values in (("gaussian", "tau", (2, 0.5)), ("local-average", "t", (3, 1)))
            for value in values
            for level in (1.0, 0.5)
            for _ in range(2)
            for metric in ("pearson", "relative-error")
        ]
        assert [(r.method, r.param_json, r.noise_level, r.metric) for r in table.rows] == expected
        # the first of the two repeats comes first: it is the one-repeat run
        once = run_experiment(dataclasses.replace(spec, repeats=1))
        firsts = [r.value for i, r in enumerate(table.rows) if i // 2 % 2 == 0]
        assert firsts == [r.value for r in once.rows]

    def test_method_failure_becomes_error_row(self, tmp_path):
        # nuclear needs a grid; a knn graph cell must fail gracefully
        spec_text = TINY_SPEC.replace(
            "[method.gaussian]\ntau = estimate\n", "[method.nuclear]\ntau = 1\n"
        ).replace(
            "kind = grid\nheight = 4\nwidth = 4",
            # more neighbors than points per cluster keeps the graph connected
            "kind = synthetic-clusters\nclusters = 2\npoints-per-cluster = 30\nknn = 35",
        )
        path = tmp_path / "fail.spec"
        path.write_text(spec_text)
        table = run_experiment(parse_experiment_spec(path))
        nuc = [r for r in table.rows if r.method == "nuclear"]
        assert nuc and all(r.metric == "error" and np.isnan(r.value) for r in nuc)
        others = [r for r in table.rows if r.method == "local-average"]
        assert others and all(np.isfinite(r.value) for r in others)

    def test_capped_gaussian_cell_is_a_value_row(self, tmp_path, monkeypatch):
        from graphdenoise import cg_solve, gaussian

        path = tmp_path / "tiny.spec"
        # a k-NN graph: a grid's Gaussian solve is the DCT, not CG
        path.write_text(
            TINY_SPEC.replace("tau = estimate", "tau = 5").replace(
                "kind = grid\nheight = 4\nwidth = 4",
                "kind = synthetic-clusters\nclusters = 2\npoints-per-cluster = 8\nknn = 10",
            )
        )
        spec = parse_experiment_spec(path)
        full = run_experiment(spec).rows
        monkeypatch.setattr(gaussian, "cg_solve", functools.partial(cg_solve, max_iter=1))
        capped = run_experiment(spec).rows
        for a, b in zip(full, capped):
            assert b.metric == "relative-error" and np.isfinite(b.value)
            if a.method == "gaussian":
                assert b.value != a.value

    @pytest.mark.parametrize(
        "section", ["[method.nuclear]\ntau = 1\n", "[method.bernoulli]\ntau = 0.5\n"]
    )
    def test_grid_methods_run_under_dropout(self, tmp_path, section):
        """nuclear on a grid graph, and bernoulli with a given tau, each
        refill the dropped entries better than leaving them at 0."""
        path = tmp_path / "d.spec"
        path.write_text(
            TINY_SPEC.split("[method.gaussian]")[0]
            .replace("kind = gaussian", "kind = bernoulli-dropout")
            .replace("levels = 0.5 1.0 2.0", "levels = 0.2")
            .replace("kappa = 1.0\n", "kappa = 1.0\nmean = 3.0\n")
            + section + "\n[method.noisy]\n"
        )
        rows = run_experiment(parse_experiment_spec(path)).rows
        (method,) = [r for r in rows if r.method != "noisy"]
        (noisy,) = [r for r in rows if r.method == "noisy"]
        assert method.metric == "relative-error"
        assert method.value < noisy.value

    def test_cluster_signal_count_defaults_to_one(self, tmp_path):
        """The graph's cluster data and the signals read one count default."""
        text = TINY_SPEC.replace(
            "kind = grid\nheight = 4\nwidth = 4",
            # more neighbors than points per cluster keeps the graph connected
            "kind = synthetic-clusters\nclusters = 2\npoints-per-cluster = 30\nknn = 35",
        ).replace("source = prior-sample\ncount = 2\nkappa = 1.0\n", "source = cluster-high-freq\n")

        def values(spec_text):
            path = tmp_path / "c.spec"
            path.write_text(spec_text)
            table = run_experiment(parse_experiment_spec(path))
            return [(r.method, r.noise_level, r.metric, r.value) for r in table.rows]

        without = values(text)
        assert without == values(text.replace("cluster-high-freq\n", "cluster-high-freq\ncount = 1\n"))
        assert without != values(text.replace("cluster-high-freq\n", "cluster-high-freq\ncount = 3\n"))

    def test_unread_method_key_fails_that_method_only(self, tmp_path, caplog):
        """bernoulli reads p when it has p, so a tau beside it is unread."""
        path = tmp_path / "both.spec"
        path.write_text(TINY_SPEC + "\n[method.bernoulli]\np = 0.3\ntau = 1\n")
        table = run_experiment(parse_experiment_spec(path))
        bern = [r for r in table.rows if r.method == "bernoulli"]
        assert len(bern) == 3
        assert all(r.metric == "error" and np.isnan(r.value) for r in bern)
        others = [r for r in table.rows if r.method != "bernoulli"]
        assert len(others) == 6 and all(r.metric == "relative-error" for r in others)
        assert "[method.bernoulli] tau: unknown key" in caplog.text

    def test_csv_shape(self, tmp_path):
        path = tmp_path / "tiny.spec"
        path.write_text(TINY_SPEC)
        table = run_experiment(parse_experiment_spec(path))
        out = tmp_path / "table.csv"
        table.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,param_json,noise_kind,noise_level,metric,value,runtime_s,seed"
        assert len(lines) == 7


class TestBenchmark:
    def test_deterministic_and_beats_truth(self):
        g = build_grid_graph(8, 8)
        basis = eigendecompose(g)
        truth = sample_prior(basis, 1.0, rng_seed=2)
        truth = truth - truth.min() + 0.3
        rep1 = ccp_vs_pg_benchmark(truth, g, kappa=1.0, seed=0)
        rep2 = ccp_vs_pg_benchmark(truth, g, kappa=1.0, seed=0)
        assert np.array_equal(rep1.ccp.trace, rep2.ccp.trace)
        assert np.array_equal(rep1.pg.trace, rep2.pg.trace)
        assert rep1.ccp.trace[-1] <= rep1.truth_loss
        assert rep1.pg.trace.min() <= rep1.truth_loss
        assert rep1.ccp.iterations <= 50

    def test_trace_csv(self, tmp_path):
        g = build_grid_graph(5, 5)
        basis = eigendecompose(g)
        truth = sample_prior(basis, 1.0, rng_seed=4) + 5.0
        rep = ccp_vs_pg_benchmark(truth, g, kappa=1.0, seed=1)
        out = tmp_path / "traces.csv"
        rep.write_traces_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,iteration,loss,elapsed_s"
        assert len(lines) == len(rep.ccp.trace) + len(rep.pg.trace) + 1
        # one measured time per loss, nondecreasing, the last the solve's total
        times = rep.ccp_time_s + rep.pg_time_s
        assert (len(rep.ccp_time_s), len(rep.pg_time_s)) == (rep.ccp.trace.size, rep.pg.trace.size)
        assert all(np.all(np.diff(t) >= 0.0) for t in (rep.ccp_time_s, rep.pg_time_s))
        assert [float(line.split(",")[3]) for line in lines[1:]] == [round(t, 6) for t in times]
