import csv
import functools
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

GRID = "kind = grid\nheight = 3\nwidth = 3"
CLUSTERS = "kind = synthetic-clusters\nclusters = 2\npoints-per-cluster = 5\nknn = 3\nspread = "

# a P2 image 3 pixels tall and 4 wide
IMAGE_3X4 = "P2\n4 3\n255\n1 2 3 4\n50 60 70 80\n9 10 11 12\n"


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

    @pytest.mark.parametrize(
        "name,content,graph,named",
        [
            ("g.csv", None, ("grid", "2x2"), "grid 2x2 has 4 vertices but the input has 9 rows"),
            ("g.csv", None, ("ring", "3"), "unknown graph kind 'ring'"),
            ("g.csv", None, ("edge-list", "{tmp}/absent.edges"), "file not found"),
            ("g.csv", None, ("edge-list", "{tmp}/g.edges"),
             "line 2: expected 'a b [w]', got '1 2 1 7'"),
            ("g.csv", None, ("edge-list", "{tmp}/bad.edges"), "line 1: cannot parse '0 x'"),
            ("e.csv", "\n  \n", ("grid", "3x3"), "file holds no data"),
            ("h.csv", "a,b\n", ("grid", "3x3"), "header but no data rows"),
            ("p.pgm", "P3\n3 3\n255\n", ("grid", "3x3"), "not a portable graymap"),
            ("p.pgm", "P2\n3 x\n255\n", ("grid", "3x3"), "malformed PGM header"),
            ("p.pgm", "P2\n3 3\n0\n" + "0 " * 9, ("grid", "3x3"), "bad maxval 0"),
            ("p.pgm", "P2\n3 3\n255\n1 2 3\n", ("grid", "3x3"), "truncated PGM payload"),
            ("p.pgm", "P5\n3 3\n255\n\x01\x02", ("grid", "3x3"), "truncated PGM payload"),
        ],
        ids=[
            "grid-rows", "graph-kind", "edge-list-absent", "edge-list-fields",
            "edge-list-unparsable", "empty-file", "header-only", "not-a-graymap",
            "pgm-header", "pgm-maxval-0", "p2-truncated", "p5-truncated",
        ],
    )
    def test_unusable_input_exit_2(self, tmp_path, rng, capsys, name, content, graph, named):
        """Each input the CLI cannot use exits 2 and says why."""
        src = tmp_path / name
        if content is None:
            write_csv(src, rng.normal(size=(9, 1)))
        else:
            src.write_bytes(content.encode("latin-1"))
        (tmp_path / "g.edges").write_text("0 1\n1 2 1 7\n")
        (tmp_path / "bad.edges").write_text("0 x\n")
        kind, arg = graph
        out = tmp_path / "o.csv"
        rc = main([
            "denoise", "gaussian", "--tau", "1",
            "--graph", kind, arg.format(tmp=tmp_path),
            "--input", str(src), "--output", str(out),
        ])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

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

    def test_knn_graph_single_column(self, tmp_path, rng):
        """`--graph knn K` builds the graph over the input's rows, and
        `--columns I` denoises that column alone."""
        from graphdenoise import build_knn_graph, denoise_gaussian

        values = rng.normal(size=(12, 3))
        src = tmp_path / "g.csv"
        write_csv(src, values)
        out = tmp_path / "o.csv"
        rc = main(
            [
                "denoise", "gaussian",
                "--graph", "knn", "3",
                "--input", str(src),
                "--output", str(out),
                "--columns", "1",
                "--tau", "0.5",
            ]
        )
        assert rc == 0
        got = read_matrix(out).values
        expected = denoise_gaussian(values[:, 1], build_knn_graph(values, 3), 0.5).signal
        assert np.array_equal(got[:, 1], expected)
        assert np.array_equal(got[:, [0, 2]], values[:, [0, 2]])

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

    def test_image_must_have_the_grid_shape(self, tmp_path, capsys):
        """An image is read row-major, so `grid HxW` must name its height
        first; the transposed grid has the same vertex count but is refused."""
        img = tmp_path / "img.pgm"
        img.write_text(IMAGE_3X4)
        for grid, rc in (("4x3", 2), ("3x4", 0)):
            assert main([
                "denoise", "gaussian", "--graph", "grid", grid, "--tau", "1",
                "--input", str(img), "--output", str(tmp_path / "o.pgm"),
            ]) == rc
            err = capsys.readouterr().err
            assert ("image is 3x4 (height x width) but the graph is grid 4x3" in err) == (rc == 2)

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

    def test_negative_seed_exit_2(self, tmp_path, rng, capsys):
        src = tmp_path / "g.csv"
        write_csv(src, rng.uniform(0.5, 2.0, size=(9, 1)))
        out = tmp_path / "o.csv"
        rc = main(
            [
                "denoise", "uniform",
                "--graph", "grid", "3x3",
                "--input", str(src),
                "--output", str(out),
                "--seed", "-1",
            ]
        )
        assert rc == 2
        assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_graph_kind_without_argument_exit_2(self, tmp_path, rng, capsys):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(4, 1)))
        out = tmp_path / "o.csv"
        rc = main(
            [
                "denoise", "gaussian",
                "--graph", "grid",
                "--input", str(src),
                "--output", str(out),
                "--tau", "1",
            ]
        )
        assert rc == 2
        assert "--graph" in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_columns_counted_in_summary(self, tmp_path, rng, monkeypatch, capsys):
        from graphdenoise import uniform

        def worse_point(graph, kappa, linear, box, x0, **kwargs):
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

    def test_capped_gaussian_column_writes_its_best_iterate(
        self, tmp_path, rng, monkeypatch, capsys
    ):
        import scipy.sparse as sp

        from graphdenoise import build_grid_graph, cg_solve, gaussian

        capped = functools.partial(cg_solve, max_iter=1)
        monkeypatch.setattr(gaussian, "cg_solve", capped)
        g = rng.normal(size=(64, 1))
        src, out = tmp_path / "g.csv", tmp_path / "o.csv"
        write_csv(src, g)
        argv = [
            "denoise", "gaussian",
            "--graph", "grid", "8x8",
            "--input", str(src),
            "--output", str(out),
            "--tau", "5",
        ]
        assert main(argv) == 0
        assert "unconverged=1 " in capsys.readouterr().err
        laplacian = build_grid_graph(8, 8).laplacian
        best = capped((sp.identity(64) + 5.0 * laplacian).tocsr(), g[:, 0])
        assert best.iterations == 1 and not best.converged
        assert np.array_equal(read_matrix(out).values[:, 0], best.signal)

    def test_capped_interpolate_column_keeps_known_values(
        self, tmp_path, rng, monkeypatch, capsys
    ):
        from graphdenoise import cg_solve, solvers

        monkeypatch.setattr(solvers, "cg_solve", functools.partial(cg_solve, max_iter=1))
        g = rng.normal(size=(16, 1))
        src, out, mask = tmp_path / "g.csv", tmp_path / "o.csv", tmp_path / "m.csv"
        write_csv(src, g)
        # the unknown 2x2 block in the middle of the grid is connected, so
        # CG needs more than one step on it
        unknown = np.isin(np.arange(16), [5, 6, 9, 10])
        write_csv(mask, unknown[:, None].astype(float))
        argv = [
            "denoise", "interpolate",
            "--graph", "grid", "4x4",
            "--input", str(src),
            "--output", str(out),
            "--zeta", str(mask),
        ]
        assert main(argv) == 0
        assert "unconverged=1 " in capsys.readouterr().err
        got = read_matrix(out).values[:, 0]
        assert np.array_equal(got[~unknown], g[~unknown, 0])
        assert np.all(np.isfinite(got))

    @pytest.mark.parametrize(
        "kappa,rc,message",
        [("1e308", 3, "numerical failure: box QP"), ("inf", 2, "kappa must be finite")],
        ids=["overflows", "infinite"],
    )
    def test_uniform_kappa_out_of_range(self, tmp_path, rng, capsys, kappa, rc, message):
        src = tmp_path / "g.csv"
        write_csv(src, rng.uniform(0.1, 2.0, size=(16, 2)))
        argv = [
            "denoise", "uniform",
            "--graph", "grid", "4x4",
            "--input", str(src),
            "--output", str(tmp_path / "o.csv"),
            "--kappa", kappa,
        ]
        assert main(argv) == rc
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

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

    def test_no_subcommand_prints_help_exit_2(self, capsys):
        assert main([]) == 2
        assert "usage: graphdenoise" in capsys.readouterr().err

    def test_tau_hat_summary_shows_eight_columns(self, tmp_path, rng, capsys):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(9, 10)) + 5.0)
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
        shown = err.split("tau_hat=", 1)[1].split()[0].split(",")
        assert len(shown) == 9 and shown[-1] == "..."
        assert "(10 columns)" in err

class TestTextRule:
    """Every input file is UTF-8 after an optional byte-order mark; other
    bytes reach the parser's messages, and a header writes back byte for
    byte."""

    @pytest.mark.parametrize(
        "data,written",
        [
            (b"caf\xe9,b\n1,2\n3,4\n5,6\n", None),
            (b"P2RX7,ACTB\n1,2\n3,4\n5,6\n", None),
            (b"\xef\xbb\xbfa,b\n1,2\n3,4\n5,6\n", b"a,b\n1,2\n3,4\n5,6\n"),
            (b"\xef\xbb\xbf1.5,2\n3,4\n5,6\n", b"1.5,2\n3,4\n5,6\n"),
        ],
        ids=["latin-1-header", "gene-header", "bom-header", "bom-headerless"],
    )
    def test_header_round_trips_and_bom_is_not_written(self, tmp_path, data, written):
        src = tmp_path / "g.csv"
        src.write_bytes(data)
        out = tmp_path / "o.csv"
        rc = main([
            "denoise", "gaussian", "--tau", "0", "--graph", "grid", "3x1",
            "--input", str(src), "--output", str(out),
        ])
        assert rc == 0
        assert out.read_bytes() == (data if written is None else written)

    def test_bom_does_not_turn_the_first_row_into_a_header(self, tmp_path, capsys):
        outs = []
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            src = tmp_path / f"{name}.csv"
            src.write_bytes(bom + b"1.5,2\n3,4\n5,6\n")
            out = tmp_path / f"{name}.out.csv"
            rc = main([
                "denoise", "gaussian", "--tau", "1", "--graph", "knn", "1",
                "--input", str(src), "--output", str(out),
            ])
            assert rc == 0
            summary = capsys.readouterr().err.split("time=")[0]
            outs.append((out.read_bytes(), summary))
        assert outs[0] == outs[1]
        assert "iterations=6" in outs[0][1]

    @pytest.mark.parametrize(
        "target,data,named",
        [
            ("input", b"1,2\n3,\xff\n5,6\n", "row 2, column 2"),
            ("mask", b"0\n\xff\n0\n", "row 2, column 1"),
            ("edge-list", b"0 1\n1 \xff\n", "line 2: cannot parse"),
        ],
        ids=["input", "mask", "edge-list"],
    )
    def test_undecodable_byte_reaches_the_parse_error(
        self, tmp_path, capsys, target, data, named
    ):
        files = {"input": b"1,2\n3,4\n5,6\n", "mask": b"0\n1\n0\n", "edge-list": b"0 1\n1 2\n"}
        files[target] = data
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        out = tmp_path / "o.csv"
        rc = main([
            "denoise", "interpolate", "--graph", "edge-list", str(tmp_path / "edge-list"),
            "--input", str(tmp_path / "input"), "--zeta", str(tmp_path / "mask"),
            "--output", str(out),
        ])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_edge_list_with_bom(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_bytes(b"\xef\xbb\xbf0 1\n1 2\n")
        src = tmp_path / "g.csv"
        write_csv(src, np.array([[0.0], [9.0], [2.0]]))
        out = tmp_path / "o.csv"
        rc = main([
            "denoise", "gaussian", "--tau", "0", "--graph", "edge-list", str(edges),
            "--input", str(src), "--output", str(out),
        ])
        assert rc == 0
        assert out.read_bytes() == src.read_bytes()

    def test_spec_with_bom_or_undecodable_byte(self, tmp_path, capsys):
        spec = tmp_path / "s.spec"
        spec.write_bytes(b"\xef\xbb\xbf" + TINY_SPEC.encode())
        assert main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "a")]) == 0
        spec.write_bytes(TINY_SPEC.replace("seed = 0", "seed = 0\xff").encode("latin-1"))
        assert main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "b")]) == 2
        assert "[experiment] seed: cannot read '0\\udcff'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["50% done", "%(seed)s"])
    def test_percent_in_a_spec_is_literal(self, tmp_path, capsys, name):
        spec = tmp_path / "s.spec"
        spec.write_text(TINY_SPEC.replace("name = cli-tiny", f"name = {name}"))
        assert main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
        assert f"experiment {name}: " in capsys.readouterr().err


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

    def test_seed_option_overrides_the_spec_seed(self, tmp_path):
        def table(spec_text, *extra):
            spec = tmp_path / "s.spec"
            spec.write_text(spec_text)
            out = tmp_path / "out"
            assert main(["experiment", "--spec", str(spec), "--out", str(out), *extra]) == 0
            rows = [r.split(",") for r in (out / "table.csv").read_text().splitlines()[1:]]
            return [r[:6] + r[7:] for r in rows]  # without runtime_s

        overridden = table(TINY_SPEC, "--seed", "7")
        assert overridden == table(TINY_SPEC.replace("seed = 0", "seed = 7"))
        assert all(r[-1] == "7" for r in overridden)
        assert overridden != table(TINY_SPEC)

    def test_seed_is_a_nonnegative_integer_used_whole(self, tmp_path, capsys):
        """A negative seed exits 2 before any work, and a seed of 2**63 or
        more is a stream of its own, not a smaller seed's."""
        spec = tmp_path / "s.spec"
        spec.write_text(TINY_SPEC)

        def run(seed):
            out = tmp_path / f"o{seed}"
            rc = main(["experiment", "--spec", str(spec), "--out", str(out), "--seed", seed])
            return rc, out / "table.csv"

        rc, table = run("-1")
        assert rc == 2 and not table.exists()
        assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        columns = {}
        for seed in ("0", str(2**63 - 1), str(2**63)):
            rc, table = run(seed)
            assert rc == 0
            with open(table, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert {r["seed"] for r in rows} == {seed}
            columns[seed] = [r["value"] for r in rows]
        assert len({tuple(v) for v in columns.values()}) == 3

    def test_level_stands_for_the_noise_level_in_any_method_value(self, tmp_path):
        """``tau = level`` gives, at each level, the rows of ``tau`` set to
        that level; param_json keeps the word as written."""

        def rows(tau):
            spec = tmp_path / "l.spec"
            spec.write_text(TINY_SPEC.split("[method.gaussian]")[0]
                            + f"[method.gaussian]\ntau = {tau}\n")
            out = tmp_path / f"o-{tau}"
            assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
            with open(out / "table.csv", newline="") as fh:
                return list(csv.DictReader(fh))

        by_level = rows("level")
        assert {r["param_json"] for r in by_level} == {'{"tau": "level"}'}
        assert {r["metric"] for r in by_level} == {"relative-error"}
        for level in ("0.5", "1"):
            fixed = [(r["noise_level"], r["value"]) for r in rows(level)]
            same = [(r["noise_level"], r["value"]) for r in by_level]
            assert [v for v in same if v[0] == level] == [v for v in fixed if v[0] == level]

    def test_file_source_reads_an_image_as_one_grid_signal(self, tmp_path):
        img = tmp_path / "img.pgm"
        img.write_text("P2\n4 4\n255\n" + "\n".join(
            " ".join(str(10 * r + 20 * c + 5) for c in range(4)) for r in range(4)
        ) + "\n")
        spec = tmp_path / "img.spec"
        spec.write_text(
            TINY_SPEC.replace("height = 3\nwidth = 3", "height = 4\nwidth = 4")
            .replace("source = prior-sample\ncount = 2\nkappa = 1.0",
                     f"source = file\npath = {img}")
        )
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "table.csv").read_text().splitlines()[1:]]
        assert len(rows) == 12 and all(r[4] == "relative-error" for r in rows)

    def test_file_source_image_must_have_the_grid_shape(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        img.write_text(IMAGE_3X4)
        for height, width, rc in ((4, 3, 2), (3, 4, 0)):
            spec = tmp_path / "img.spec"
            spec.write_text(
                TINY_SPEC.replace("height = 3\nwidth = 3", f"height = {height}\nwidth = {width}")
                .replace("source = prior-sample\ncount = 2\nkappa = 1.0",
                         f"source = file\npath = {img}")
            )
            assert main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "o")]) == rc
            err = capsys.readouterr().err
            assert ("image is 3x4 (height x width) but the graph is grid 4x3" in err) == (rc == 2)

    @pytest.mark.parametrize("columns,kept", [("1", [1]), ("0,2", [0, 2]), ("1:", [1, 2])])
    def test_file_source_columns(self, tmp_path, rng, columns, kept):
        """A selection gives the table of a file holding only those columns."""
        values = rng.normal(size=(9, 3))

        def table(spec_name, matrix, extra):
            write_csv(tmp_path / f"{spec_name}.csv", matrix)
            spec = tmp_path / f"{spec_name}.spec"
            spec.write_text(TINY_SPEC.replace(
                "source = prior-sample\ncount = 2\nkappa = 1.0",
                f"source = file\npath = {tmp_path / spec_name}.csv{extra}",
            ))
            out = tmp_path / spec_name
            assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
            rows = [r.split(",") for r in (out / "table.csv").read_text().splitlines()[1:]]
            return [r[:6] for r in rows]

        selected = table("all", values, f"\ncolumns = {columns}")
        assert selected == table("kept", values[:, kept], "")

    @pytest.mark.parametrize("columns", ["0:999", "-2:-1", "3", "a:b"])
    def test_file_source_bad_columns_exit_2(self, tmp_path, rng, capsys, columns):
        write_csv(tmp_path / "g.csv", rng.normal(size=(9, 3)))
        spec = tmp_path / "f.spec"
        spec.write_text(TINY_SPEC.replace(
            "source = prior-sample\ncount = 2\nkappa = 1.0",
            f"source = file\npath = {tmp_path / 'g.csv'}\ncolumns = {columns}",
        ))
        rc = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"[signal] columns: cannot read {columns!r}" in capsys.readouterr().err

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
            # non-finite noise values are refused before any work
            ("levels = 0.5 1.0", "levels = 1 inf", "[noise] levels: cannot read '1 inf'"),
            ("levels = 0.5 1.0", "levels = nan", "[noise] levels: cannot read 'nan'"),
            ("levels = 0.5 1.0\n", "levels = 0.5 1.0\nfill = -inf\n", "[noise] fill"),
            ("seed = 0", "seed = abc", "[experiment] seed"),
            ("seed = 0", "seed = -1", "seed must be a nonnegative integer, got -1"),
            ("kind = gaussian", "kind = poisson", "[noise] kind must be one of"),
            ("levels = 0.5 1.0", "levels =", "[noise] levels must be nonempty"),
            ("t = 1", "t =", "[method.local-average] t has an empty grid"),
            ("names = relative-error", "names = accuracy", "unknown metric 'accuracy'"),
            (GRID, "kind = ring", "unknown graph kind 'ring'"),
            ("source = prior-sample", "source = magic", "unknown signal source 'magic'"),
            # values the library cannot use are refused before any work
            (GRID, CLUSTERS + "inf", "[graph] spread: cannot read 'inf'"),
            (GRID, CLUSTERS + "nan", "[graph] spread: cannot read 'nan'"),
            (GRID, CLUSTERS + "1e308", "spread 1e+308 overflows the point coordinates"),
            ("count = 2\n", "count = 2\nnonneg = ture\n", "[signal] nonneg: cannot read 'ture'"),
            ("kappa = 1.0\n", "kappa = 1.0\nmean = inf\n", "[signal] mean: cannot read 'inf'"),
            ("kappa = 1.0\n", "kappa = 1.0\nmean = nan\n", "[signal] mean: cannot read 'nan'"),
            ("kappa = 1.0\n", "kappa = inf\n", "[signal] kappa: cannot read 'inf'"),
            ("count = 2", "count = 0", "[signal] count must be at least 1, got 0"),
            ("count = 2", "count = -1", "[signal] count must be at least 1, got -1"),
            ("repeats = 2", "repeats = 0", "[experiment] repeats must be at least 1, got 0"),
            ("repeats = 2", "repeats = -2", "[experiment] repeats must be at least 1, got -2"),
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
            # so is a section nothing reads
            ("[method.gaussian]", "[methods.gaussian]", "[methods.gaussian]: unknown section"),
            ("[metrics]", "[benchmarks]\nkappa = 1.0\n\n[metrics]",
             "[benchmarks]: unknown section"),
            # a spec is plain INI: [DEFAULT] feeds no other section
            ("[metrics]", "[DEFAULT]\ntau = 5\n\n[metrics]", "[DEFAULT]: unknown section"),
        ],
        ids=[
            "grid-without-height", "count-many", "levels", "levels-inf", "levels-nan",
            "fill-inf", "seed", "seed-negative", "noise-kind", "levels-empty",
            "method-grid-empty", "metric", "graph-kind", "signal-source",
            "spread-inf", "spread-nan", "spread-1e308",
            "nonneg-ture", "mean-inf", "mean-nan", "kappa-inf", "count-0", "count-negative",
            "repeats-0",
            "repeats-negative", "benchmark",
            "unread-experiment", "unread-graph", "unread-signal", "unread-noise",
            "unread-metrics", "unread-benchmark", "unknown-method-section",
            "unknown-benchmark-section", "default-section",
        ],
    )
    def test_malformed_spec_value_exit_2(self, tmp_path, capsys, old, new, named):
        assert old in TINY_SPEC
        spec = tmp_path / "bad.spec"
        spec.write_text(TINY_SPEC.replace(old, new))
        rc = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o" / "table.csv").exists()

    def test_integer_method_parameters_are_read_as_written(self, tmp_path, caplog):
        """An integer key given a fractional or float-spelled value fails
        its cells instead of running with the truncated integer."""
        spec = tmp_path / "ints.spec"
        spec.write_text(
            TINY_SPEC.split("[method.gaussian]")[0]
            + "[method.local-average]\nt = 2 2.5 2.0\n\n[method.band-low]\nk = 3 3.9\n"
        )
        out = tmp_path / "o"
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out / "table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        metrics = {}
        for r in rows:
            metrics.setdefault((r["method"], r["param_json"]), set()).add(r["metric"])
        assert metrics == {
            ("local-average", '{"t": 2}'): {"relative-error"},
            ("local-average", '{"t": 2.5}'): {"error"},
            ("local-average", '{"t": 2.0}'): {"error"},
            ("band-low", '{"k": 3}'): {"relative-error"},
            ("band-low", '{"k": 3.9}'): {"error"},
        }
        messages = [rec.getMessage() for rec in caplog.records]
        assert any("[method.local-average] t: cannot read '2.5'" in m for m in messages)
        assert any("[method.band-low] k: cannot read '3.9'" in m for m in messages)

    @pytest.mark.parametrize(
        "section,named",
        [
            ("[method.bernoulli]\nmode = l1\n", "[method.bernoulli] needs p or tau"),
            ("[method.band-low]\n", "[method.band-low] needs k"),
            ("[method.gaussian]\ntau = abc\n", "[method.gaussian] tau: cannot read 'abc'"),
            ("[method.gaussian]\ntua = 5\n", "[method.gaussian] tua: unknown key"),
            ("[method.bernoulli]\nzeta = all\n", "experiment runner supports zeta = zeros only"),
        ],
        ids=[
            "bernoulli-without-tau-or-p", "band-low-without-k", "tau-abc", "gaussian-tua",
            "bernoulli-zeta",
        ],
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
