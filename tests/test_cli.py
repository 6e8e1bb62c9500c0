import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphdenoise.cli import main
from graphdenoise.matrixio import format_float, read_matrix

TINY_SPEC = """
[experiment]
name = cli-tiny
seed = 0
repeats = 2

[graph]
kind = grid
height = 3
width = 3

[signal]
source = prior-sample
count = 2
kappa = 1.0

[noise]
kind = gaussian
levels = 0.5 1.0

[metrics]
names = relative-error

[method.gaussian]
tau = 0.5 1.0

[method.local-average]
t = 1
"""


def write_csv(path, values):
    path.write_text(
        "\n".join(",".join(format_float(v) for v in row) for row in values) + "\n"
    )


class TestDenoiseCommand:
    def test_tau_zero_round_trips_input(self, tmp_path, rng):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(16, 3)))
        out = tmp_path / "out.csv"
        rc = main(
            [
                "denoise", "gaussian",
                "--graph", "grid", "4x4",
                "--input", str(src),
                "--output", str(out),
                "--tau", "0",
            ]
        )
        assert rc == 0
        assert out.read_text() == src.read_text()

    def test_interpolate_p3_mask(self, tmp_path):
        src = tmp_path / "g.csv"
        write_csv(src, np.array([[0.0], [99.0], [2.0]]))
        mask = tmp_path / "mask.csv"
        write_csv(mask, np.array([[0.0], [1.0], [0.0]]))
        out = tmp_path / "out.csv"
        rc = main(
            [
                "denoise", "interpolate",
                "--graph", "grid", "1x3",
                "--input", str(src),
                "--output", str(out),
                "--zeta", str(mask),
            ]
        )
        assert rc == 0
        got = read_matrix(out).values.ravel()
        assert got == pytest.approx([0.0, 1.0, 2.0], abs=1e-9)

    def test_interpolate_reports_cg_iterations(self, tmp_path, rng, capsys):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(16, 2)))
        mask = tmp_path / "mask.csv"
        write_csv(mask, np.array([[1.0 if v in (5, 10) else 0.0] for v in range(16)]))
        rc = main(
            [
                "denoise", "interpolate",
                "--graph", "grid", "4x4",
                "--input", str(src),
                "--output", str(tmp_path / "o.csv"),
                "--zeta", str(mask),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        fields = dict(f.split("=", 1) for f in err.split() if "=" in f)
        assert int(fields["iterations"]) > 0

    def test_missing_input_names_path(self, tmp_path, capsys):
        rc = main(
            [
                "denoise", "gaussian",
                "--graph", "grid", "2x2",
                "--input", str(tmp_path / "absent.csv"),
                "--output", str(tmp_path / "o.csv"),
                "--tau", "1",
            ]
        )
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_inf_in_passthrough_column_exit_2(self, tmp_path, rng, capsys):
        src = tmp_path / "g.csv"
        rows = [[format_float(v) for v in row] for row in rng.normal(size=(4, 2))]
        rows[2][1] = "inf"
        src.write_text("\n".join(",".join(row) for row in rows) + "\n")
        out = tmp_path / "o.csv"
        rc = main(
            [
                "denoise", "gaussian",
                "--graph", "grid", "2x2",
                "--input", str(src),
                "--output", str(out),
                "--columns", "0",
                "--tau", "1",
            ]
        )
        assert rc == 2
        assert "row 3, column 2" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_in_denoised_column_exit_2(self, tmp_path, rng, capsys):
        src = tmp_path / "g.csv"
        values = rng.normal(size=(4, 1))
        values[1, 0] = np.nan
        write_csv(src, values)
        out = tmp_path / "o.csv"
        rc = main(
            [
                "denoise", "gaussian",
                "--graph", "grid", "2x2",
                "--input", str(src),
                "--output", str(out),
                "--tau", "1",
            ]
        )
        assert rc == 2
        assert "row 2, column 1" in capsys.readouterr().err
        assert not out.exists()

    def test_conflicting_tau_flags(self, tmp_path, rng, capsys):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(4, 1)))
        rc = main(
            [
                "denoise", "gaussian",
                "--graph", "grid", "2x2",
                "--input", str(src),
                "--output", str(tmp_path / "o.csv"),
                "--tau", "1",
                "--estimate-tau",
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "options",
        [
            ["gaussian", "--tau", "1", "--p", "0.3"],
            ["no-trust", "--tau", "1", "--p", "0.3"],
            ["bernoulli", "--tau", "1", "--kappa", "5"],
            ["uniform", "--tau", "4"],
            ["interpolate", "--seed", "3"],
            ["gaussian"],
            ["bernoulli", "--tau", "1", "--p", "0.3"],
        ],
        ids=[
            "gaussian-p", "no-trust-p", "bernoulli-tau-kappa", "uniform-tau",
            "interpolate-seed", "gaussian-neither", "bernoulli-tau-and-p",
        ],
    )
    def test_option_the_model_does_not_read_exit_2(self, tmp_path, rng, options):
        """Each model takes only its own options, and the one-of groups hold."""
        src = tmp_path / "g.csv"
        write_csv(src, rng.uniform(1.0, 2.0, size=(3, 1)))
        out = tmp_path / "o.csv"
        rc = main(
            [
                "denoise", options[0],
                "--graph", "grid", "3x1",
                "--input", str(src),
                "--output", str(out),
                *options[1:],
            ]
        )
        assert rc == 2
        assert not out.exists()

    def test_interpolate_is_bernoulli_without_penalty(self, tmp_path, rng):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(16, 3)))
        mask = tmp_path / "mask.csv"
        write_csv(mask, np.array([[1.0 if v in (2, 5, 11) else 0.0] for v in range(16)]))
        outs = []
        for options in (["interpolate"], ["bernoulli", "--tau", "0"]):
            out = tmp_path / f"{options[0]}.csv"
            argv = ["denoise", options[0], "--graph", "grid", "4x4", "--input", str(src),
                    "--output", str(out), "--zeta", str(mask), *options[1:]]
            assert main(argv) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_estimate_tau_summary_on_stderr(self, tmp_path, rng, capsys):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(9, 2)) + 5.0)
        rc = main(
            [
                "denoise", "gaussian",
                "--graph", "grid", "3x3",
                "--input", str(src),
                "--output", str(tmp_path / "o.csv"),
                "--estimate-tau",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "tau_hat=" in err and "columns=2" in err

    def test_thread_count_does_not_change_bytes(self, tmp_path, rng):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(25, 6)) + 2.0)
        outs = []
        for threads in (1, 4):
            out = tmp_path / f"out{threads}.csv"
            rc = main(
                [
                    "denoise", "gaussian",
                    "--graph", "grid", "5x5",
                    "--input", str(src),
                    "--output", str(out),
                    "--estimate-tau",
                    "--threads", str(threads),
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bernoulli_zeros_and_columns_subset(self, tmp_path):
        values = np.tile(np.array([[2.0], [2.0], [0.0], [2.0]]), (1, 3))
        src = tmp_path / "g.csv"
        write_csv(src, values)
        out = tmp_path / "o.csv"
        rc = main(
            [
                "denoise", "bernoulli",
                "--graph", "grid", "2x2",
                "--input", str(src),
                "--output", str(out),
                "--p", "0.7",
                "--kappa", "1.0",
                "--columns", "0:2",
                "--zeta", "zeros",
            ]
        )
        assert rc == 0
        got = read_matrix(out).values
        assert got[2, 0] == pytest.approx(2.0, abs=1e-9)
        assert got[2, 1] == pytest.approx(2.0, abs=1e-9)
        assert got[2, 2] == 0.0  # column outside the selection is untouched

    def test_edge_list_graph(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("# path on three vertices\n0 1 1.0\n1 2 1.0\n")
        src = tmp_path / "g.csv"
        write_csv(src, np.array([[0.0], [9.0], [2.0]]))
        mask = tmp_path / "mask.csv"
        write_csv(mask, np.array([[0.0], [1.0], [0.0]]))
        out = tmp_path / "o.csv"
        rc = main(
            [
                "denoise", "interpolate",
                "--graph", "edge-list", str(edges),
                "--input", str(src),
                "--output", str(out),
                "--zeta", str(mask),
            ]
        )
        assert rc == 0
        assert read_matrix(out).values.ravel()[1] == pytest.approx(1.0, abs=1e-9)

    def test_pgm_single_signal(self, tmp_path):
        img = tmp_path / "img.pgm"
        img.write_bytes(b"P5\n3 1\n255\n" + bytes([10, 200, 30]))
        out = tmp_path / "o.pgm"
        rc = main(
            [
                "denoise", "no-trust",
                "--graph", "grid", "1x3",
                "--input", str(img),
                "--output", str(out),
                "--tau", "1e9",
                "--mode", "l1",
            ]
        )
        assert rc == 0
        assert read_matrix(out).values.tolist() == [[10.0, 200.0, 30.0]]

    def test_numerical_failure_exit_code(self, tmp_path):
        # at tau = 1e16 round-off makes CG meet a direction of nonpositive
        # curvature in I + tau L
        src = tmp_path / "g.csv"
        write_csv(src, np.random.default_rng(0).normal(size=(64, 1)))
        rc = main(
            [
                "denoise", "gaussian",
                "--graph", "grid", "8x8",
                "--input", str(src),
                "--output", str(tmp_path / "o.csv"),
                "--tau", "1e16",
            ]
        )
        assert rc == 3

    def test_all_masked_interpolate_exit_2(self, tmp_path, rng, capsys):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(4, 1)))
        mask = tmp_path / "mask.csv"
        write_csv(mask, np.ones((4, 1)))
        rc = main(
            [
                "denoise", "interpolate",
                "--graph", "grid", "2x2",
                "--input", str(src),
                "--output", str(tmp_path / "o.csv"),
                "--zeta", str(mask),
            ]
        )
        assert rc == 2
        assert "empty known set" in capsys.readouterr().err

    def test_mask_entry_not_zero_or_one_exit_2(self, tmp_path, rng, capsys):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(3, 1)))
        mask = tmp_path / "mask.csv"
        write_csv(mask, np.array([[0.0], [0.5], [2.0]]))
        rc = main(
            [
                "denoise", "interpolate",
                "--graph", "grid", "3x1",
                "--input", str(src),
                "--output", str(tmp_path / "o.csv"),
                "--zeta", str(mask),
            ]
        )
        assert rc == 2
        assert "entry 0.5 at row 2, column 1 is not 0 or 1" in capsys.readouterr().err

    @pytest.mark.parametrize("vertex", ["5", "-1", "100000000000000000000000"])
    def test_edge_list_id_out_of_range_names_line(self, tmp_path, rng, capsys, vertex):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(3, 1)))
        edges = tmp_path / "edges.txt"
        edges.write_text(f"0 1\n1 {vertex}\n")
        rc = main(
            [
                "denoise", "gaussian",
                "--graph", "edge-list", str(edges),
                "--input", str(src),
                "--output", str(tmp_path / "o.csv"),
                "--tau", "1",
            ]
        )
        assert rc == 2
        assert f"line 2: vertex id {vertex} out of range [0, 3)" in capsys.readouterr().err

    def test_uniform_model_runs_ccp(self, tmp_path, rng):
        src = tmp_path / "g.csv"
        write_csv(src, rng.uniform(0.5, 2.0, size=(9, 2)))
        out = tmp_path / "o.csv"
        rc = main(
            [
                "denoise", "uniform",
                "--graph", "grid", "3x3",
                "--input", str(src),
                "--output", str(out),
                "--kappa", "1.0",
            ]
        )
        assert rc == 0
        got = read_matrix(out).values
        src_vals = read_matrix(src).values
        assert np.all(got >= src_vals - 1e-12)  # feasibility: no shrinking

    def test_unconverged_columns_counted_in_summary(self, tmp_path, rng, monkeypatch, capsys):
        from graphdenoise import uniform

        def worse_point(graph, kappa, linear, region, x0, **kwargs):
            # doubling keeps every entry in its box but raises the log term
            return 2.0 * x0, 0

        src = tmp_path / "g.csv"
        write_csv(src, rng.uniform(1.0, 2.0, size=(9, 3)))
        argv = [
            "denoise", "uniform",
            "--graph", "grid", "3x3",
            "--input", str(src),
            "--output", str(tmp_path / "o.csv"),
            "--columns", "0,2",
        ]
        assert main(argv) == 0
        assert "unconverged=" not in capsys.readouterr().err
        monkeypatch.setattr(uniform, "minimize_box_qp", worse_point)
        assert main(argv) == 0
        assert "unconverged=2 " in capsys.readouterr().err

    def test_no_trust_l0_restores_constant_patch(self, tmp_path):
        vals = np.full((16, 1), 2.0)
        vals[5, 0] = 9.0
        src = tmp_path / "g.csv"
        write_csv(src, vals)
        out = tmp_path / "o.csv"
        rc = main(
            [
                "denoise", "no-trust",
                "--graph", "grid", "4x4",
                "--input", str(src),
                "--output", str(out),
                "--tau", "0.5",
                "--mode", "l0",
            ]
        )
        assert rc == 0
        assert read_matrix(out).values == pytest.approx(np.full((16, 1), 2.0), abs=1e-8)

    @pytest.mark.parametrize(
        "graph",
        [["knn", "many"], ["knn", "2.5"], ["grid", "axb"], ["grid", "3x"]],
        ids=["knn-many", "knn-2.5", "grid-axb", "grid-3x"],
    )
    def test_non_integer_graph_argument_exit_2(self, tmp_path, rng, capsys, graph):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(6, 2)))
        rc = main(
            [
                "denoise", "gaussian",
                "--graph", *graph,
                "--input", str(src),
                "--output", str(tmp_path / "o.csv"),
                "--tau", "1",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--graph {graph[0]}" in err and repr(graph[1]) in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, rng, capsys, threads):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(4, 2)))
        spec = tmp_path / "t.spec"
        spec.write_text(TINY_SPEC)
        for argv in (
            ["denoise", "gaussian", "--graph", "grid", "2x2", "--input", str(src),
             "--output", str(tmp_path / "o.csv"), "--tau", "1"],
            ["experiment", "--spec", str(spec), "--out", str(tmp_path / "exp")],
        ):
            assert main([*argv, "--threads", threads]) == 2
            assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists() and not (tmp_path / "exp").exists()

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "graphdenoise" in capsys.readouterr().out

    def test_import_leaves_scipy_spatial_unloaded(self):
        """Only k-NN builds need scipy.spatial; the CLI must not load it at import."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, graphdenoise.cli; print('scipy.spatial' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestExperimentCommand:
    def test_tiny_spec_deterministic_modulo_runtime(self, tmp_path):
        spec = tmp_path / "tiny.spec"
        spec.write_text(TINY_SPEC)

        def run(out_name, threads):
            out = tmp_path / out_name
            rc = main(
                [
                    "experiment",
                    "--spec", str(spec),
                    "--out", str(out),
                    "--threads", str(threads),
                ]
            )
            assert rc == 0
            rows = (out / "table.csv").read_text().splitlines()
            # mask the wall-clock column before comparing
            header = rows[0].split(",")
            ridx = header.index("runtime_s")
            stable = []
            for row in rows[1:]:
                cells = row.split(",")
                cells[ridx] = "_"
                stable.append(",".join(cells))
            return rows[0], stable

        h1, a = run("out1", 1)
        h2, b = run("out2", 1)
        h3, c = run("out3", 3)
        assert h1 == h2 == h3
        assert a == b == c
        # 2 methods (2 + 1 combos) x 2 levels x 1 metric x 2 repeats
        assert len(a) == (2 + 1) * 2 * 2

    def test_empty_methods_header_only(self, tmp_path):
        spec = tmp_path / "e.spec"
        spec.write_text(TINY_SPEC.split("[method.gaussian]")[0])
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
        lines = (out / "table.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("method,")

    def test_unknown_method_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "u.spec"
        spec.write_text(TINY_SPEC + "\n[method.wizardry]\nt = 1\n")
        rc = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "wizardry" in capsys.readouterr().err

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "m.spec"
        spec.write_text("this is not\n  an ini file [\n")
        rc = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_benchmark_section_writes_traces(self, tmp_path):
        spec = tmp_path / "b.spec"
        spec.write_text(
            TINY_SPEC.replace("kind = gaussian", "kind = uniform-scale")
            .replace("levels = 0.5 1.0", "levels = 0")
            .split("[method.gaussian]")[0]
            + "\n[benchmark]\nkappa = 1.0\n"
        )
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
        traces = (out / "traces.csv").read_text().splitlines()
        assert traces[0] == "method,iteration,loss,elapsed_s"
        assert any(row.startswith("ccp,") for row in traces[1:])
        assert any(row.startswith("projected-gradient,") for row in traces[1:])

    def test_benchmark_spec_decomposes_once(self, tmp_path, monkeypatch):
        """The benchmark reuses the graph and signals the sweep built, and
        prior samples and band methods share one eigendecomposition."""
        from graphdenoise import experiments

        calls = []
        real = experiments.eigendecompose

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "eigendecompose", counting)
        for name in ("ccp_benchmark", "table4"):
            calls.clear()
            spec = Path(__file__).resolve().parent.parent / "specs" / f"{name}.spec"
            out = tmp_path / name
            assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
            assert len(calls) == 1, name
            assert (out / "traces.csv").is_file() == (name == "ccp_benchmark")

    def test_knn_from_file_graph_has_no_cluster_signals(self, tmp_path, rng, capsys):
        """Cluster signals need the synthetic-clusters graph; a k-NN graph
        read from a file does not supply them, whatever its size."""
        for n in (60, 3):
            pts = np.column_stack([np.arange(n, dtype=float), rng.normal(0, 0.1, n)])
            write_csv(tmp_path / "pts.csv", pts)
            spec = tmp_path / "knn.spec"
            spec.write_text(
                TINY_SPEC.replace(
                    "kind = grid\nheight = 3\nwidth = 3",
                    f"kind = knn-from-file\npath = {tmp_path / 'pts.csv'}\nknn = 2",
                ).replace("source = prior-sample", "source = cluster-low-freq")
            )
            rc = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "o")])
            assert rc == 2
            assert "requires a synthetic-clusters graph" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new,named",
        [
            ("height = 3\n", "", "[graph] needs height"),
            ("count = 2", "count = many", "[signal] count"),
            ("levels = 0.5 1.0", "levels = low high", "[noise] levels"),
            ("seed = 0", "seed = abc", "[experiment] seed"),
            ("count = 2", "count = 0", "[signal] selects no signals"),
            ("[metrics]", "[benchmark]\nmax-outer = lots\n\n[metrics]", "[benchmark] max-outer"),
            # a key nothing reads, such as a typo, is an error, not ignored
            ("repeats = 2\n", "repeats = 2\nrepeat = 3\n", "[experiment] repeat: unknown key"),
            ("width = 3\n", "width = 3\nheigth = 9\n", "[graph] heigth: unknown key"),
            ("count = 2\n", "count = 2\nkapa = 5\n", "[signal] kapa: unknown key"),
            ("levels = 0.5 1.0\n", "levels = 0.5 1.0\nsigma = 3\n", "[noise] sigma: unknown key"),
            ("names = relative-error\n", "names = relative-error\nname = pearson\n",
             "[metrics] name: unknown key"),
            ("[metrics]", "[benchmark]\npg-step = 0.1\n\n[metrics]",
             "[benchmark] pg-step: unknown key"),
        ],
        ids=[
            "grid-without-height", "count-many", "levels", "seed", "count-0", "benchmark",
            "unread-experiment", "unread-graph", "unread-signal", "unread-noise",
            "unread-metrics", "unread-benchmark",
        ],
    )
    def test_malformed_spec_value_exit_2(self, tmp_path, capsys, old, new, named):
        assert old in TINY_SPEC
        spec = tmp_path / "bad.spec"
        spec.write_text(TINY_SPEC.replace(old, new))
        rc = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,named",
        [
            ("[method.bernoulli]\nmode = l1\n", "[method.bernoulli] needs p or tau"),
            ("[method.band-low]\n", "[method.band-low] needs k"),
            ("[method.gaussian]\ntau = abc\n", "[method.gaussian] tau: cannot read 'abc'"),
            ("[method.gaussian]\ntua = 5\n", "[method.gaussian] tua: unknown key"),
        ],
        ids=["bernoulli-without-tau-or-p", "band-low-without-k", "tau-abc", "gaussian-tua"],
    )
    def test_malformed_method_parameter_is_an_error_row(
        self, tmp_path, caplog, section, named
    ):
        """A bad method parameter fails that method's cells only."""
        method = section.split("]")[0][len("[method."):]
        spec = tmp_path / "bad.spec"
        spec.write_text(TINY_SPEC.split("[method.gaussian]")[0] + section
                        + "\n[method.local-average]\nt = 1\n")
        out = tmp_path / "o"
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "table.csv").read_text().splitlines()[1:]]
        bad = [r for r in rows if r[0] == method]
        assert bad and all(r[4] == "error" and r[5] == "nan" for r in bad)
        good = [r for r in rows if r[0] == "local-average"]
        assert good and all(r[4] == "relative-error" for r in good)
        assert any(named in rec.getMessage() for rec in caplog.records)
