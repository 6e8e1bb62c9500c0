import csv
import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphdenoise import Graph, build_grid_graph, ccp_denoise, estimate_tau
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

ROOT = Path(__file__).resolve().parents[1]

GRID = "kind = grid\nheight = 3\nwidth = 3"
CLUSTERS = "kind = synthetic-clusters\nclusters = 2\npoints-per-cluster = 5\nknn = 3\nspread = "

# a P2 image 3 pixels tall and 4 wide
IMAGE_3X4 = "P2\n4 3\n255\n1 2 3 4\n50 60 70 80\n9 10 11 12\n"


def write_csv(path, values):
    path.write_text(
        "\n".join(",".join(format_float(v) for v in row) for row in values) + "\n"
    )


def write_grid_edges(path, height, width):
    """The edge list of the height x width grid: a graph with the grid's
    Laplacian but no grid shape, so its Gaussian solve goes through CG."""
    grid = build_grid_graph(height, width)
    path.write_text("".join(f"{a} {b}\n" for a, b in zip(grid.edge_a, grid.edge_b)))


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

    def test_grid_solve_bytes_do_not_depend_on_threads(self, tmp_path):
        """The 256x256 grid solve is four BLAS products per column; with the
        BLAS thread count left to the library, --threads 1, 2 and 4 write
        the same bytes."""
        src = tmp_path / "g.csv"
        write_csv(src, np.random.default_rng(3).normal(size=(65536, 4)) + 2.0)
        code = (
            "import sys\n"
            "from graphdenoise.cli import main\n"
            "for t in ('1', '2', '4'):\n"
            "    assert main(['denoise', 'gaussian', '--graph', 'grid', '256x256',\n"
            "                 '--input', sys.argv[1], '--output', sys.argv[2] + t,\n"
            "                 '--tau', '3', '--threads', t]) == 0\n"
        )
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        out = tmp_path / "o"
        subprocess.run(
            [sys.executable, "-c", code, str(src), str(out)], env=env, check=True
        )
        written = [Path(f"{out}{t}").read_bytes() for t in "124"]
        assert written[0] == written[1] == written[2]

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

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        """Off a grid CG solves the scaled, mean-free system: tau = 1e16 is an
        ordinary solve that agrees with the grid's exact one, and a column
        whose mean overflows is a numerical failure."""
        src, edges = tmp_path / "g.csv", tmp_path / "g.edges"
        write_csv(src, np.random.default_rng(0).normal(size=(64, 1)))
        write_grid_edges(edges, 8, 8)
        outs = []
        for graph in (["edge-list", str(edges)], ["grid", "8x8"]):
            outs.append(tmp_path / f"{graph[0]}.csv")
            rc = main([
                "denoise", "gaussian", "--graph", *graph, "--tau", "1e16",
                "--input", str(src), "--output", str(outs[-1]),
            ])
            assert rc == 0
        assert "unconverged" not in capsys.readouterr().err
        via_cg, via_dct = (read_matrix(o).values for o in outs)
        np.testing.assert_allclose(via_cg, via_dct, rtol=1e-12)
        src.write_text("1e308\n" * 64)
        rc = main([
            "denoise", "gaussian", "--graph", "edge-list", str(edges), "--tau", "1",
            "--input", str(src), "--output", str(tmp_path / "o.csv"),
        ])
        assert rc == 3
        assert "Gaussian filter failed: overflow" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_grid_tau_1e16_is_an_exact_solve(self, tmp_path):
        """On a grid the DCT solve is exact: it matches a dense solve of the
        same system."""
        g = np.random.default_rng(0).normal(size=64)
        src, out = tmp_path / "g.csv", tmp_path / "o.csv"
        write_csv(src, g[:, None])
        rc = main([
            "denoise", "gaussian", "--graph", "grid", "8x8", "--tau", "1e16",
            "--input", str(src), "--output", str(out),
        ])
        assert rc == 0
        # (I + tau L) f = g is f = mean + u with (L + J/n + I/tau) u = (g - mean)/tau,
        # a system whose condition does not grow with tau
        lap = build_grid_graph(8, 8).laplacian.toarray()
        mean = g.mean()
        u = np.linalg.solve(lap + 1.0 / 64 + np.eye(64) / 1e16, (g - mean) / 1e16)
        np.testing.assert_allclose(read_matrix(out).values[:, 0], mean + u, rtol=1e-12)

    def test_grid_tau_overflowing_the_spectrum_returns_the_mean(self, tmp_path, capsys):
        g = np.random.default_rng(0).normal(size=(12, 1)) + 3.0
        src, out = tmp_path / "g.csv", tmp_path / "o.csv"
        write_csv(src, g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "denoise", "gaussian", "--graph", "grid", "3x4", "--tau", "1e308",
                "--input", str(src), "--output", str(out),
            ])
        assert rc == 0
        assert "iterations=0 " in capsys.readouterr().err
        np.testing.assert_allclose(read_matrix(out).values, g.mean(), rtol=1e-14)

    def test_grid_solve_overflow_exit_3(self, tmp_path, capsys):
        """The DCT of a column near the float range overflows: a numerical
        failure, not a column of nan."""
        src, out = tmp_path / "g.csv", tmp_path / "o.csv"
        src.write_text("1.5e308\n-1.5e308\n-1.5e308\n1.5e308\n")
        rc = main([
            "denoise", "gaussian", "--graph", "grid", "2x2", "--tau", "1",
            "--input", str(src), "--output", str(out),
        ])
        assert rc == 3
        assert "grid DCT solve overflowed" in capsys.readouterr().err
        assert not out.exists()

    def test_tau_1e200_on_a_weighted_graph_is_the_mean(self, tmp_path, capsys):
        """A tau far beyond the Laplacian's scale leaves only the mean,
        solved by CG and reported converged."""
        src, edges, out = tmp_path / "g.csv", tmp_path / "g.edges", tmp_path / "o.csv"
        write_csv(src, np.array([[3.0], [1.0], [4.0], [9.0], [1.0], [3.0]]))
        edges.write_text("0 2 3\n0 4 2\n1 2 0.5\n1 5 0.5\n3 5 3\n4 5 1\n")
        rc = main([
            "denoise", "gaussian", "--graph", "edge-list", str(edges), "--tau", "1e200",
            "--input", str(src), "--output", str(out),
        ])
        assert rc == 0
        assert "unconverged" not in capsys.readouterr().err
        np.testing.assert_allclose(read_matrix(out).values, 3.5, rtol=0, atol=1e-12)

    def test_rows_are_numbered_by_file_line(self, tmp_path, capsys):
        """A blank line is counted: the short row is the file's third line."""
        src = tmp_path / "g.csv"
        src.write_bytes(b"1,2\n\n3\n")
        rc = main([
            "denoise", "gaussian", "--graph", "grid", "2x1", "--tau", "1",
            "--input", str(src), "--output", str(tmp_path / "o.csv"),
        ])
        assert rc == 2
        assert "row 3 has 1 fields, expected 2" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["l1", "l0"])
    def test_dropout_overflow_exit_3(self, tmp_path, capsys, mode):
        """L g overflows: the dropout model fails numerically instead of
        writing nan."""
        src = tmp_path / "g.csv"
        src.write_text("1\n1e308\n-1e308\n2\n")
        out = tmp_path / "o.csv"
        rc = main([
            "denoise", "no-trust", "--tau", "1", "--mode", mode, "--graph", "grid", "1x4",
            "--input", str(src), "--output", str(out),
        ])
        assert rc == 3
        assert "dropout arithmetic failed: overflow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,second,rc,message",
        [
            # a constant column leaves the moment estimate of tau nothing to fit
            (["gaussian", "--estimate-tau"], ["4"] * 16, 2,
             "error: column index 1: all signals constant"),
            (["no-trust", "--tau", "1"], ["1e308", "-1e308"] * 8, 3,
             "numerical failure: column index 1: dropout arithmetic failed: overflow"),
        ],
        ids=["constant", "overflow"],
    )
    def test_solve_error_names_its_column(self, tmp_path, capsys, argv, second, rc, message):
        """An error raised while one column is solved names that column by
        its 0-based index, the one --columns takes."""
        src, out = tmp_path / "g.csv", tmp_path / "o.csv"
        src.write_text("".join(f"{i + 1},{v},{i % 5}\n" for i, v in enumerate(second)))
        rc_got = main([
            "denoise", *argv, "--graph", "grid", "4x4",
            "--input", str(src), "--output", str(out),
        ])
        assert rc_got == rc
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_columns_and_errors_name_one_index(self, tmp_path, capsys):
        """--columns I selects the column that a solve error and a selection
        error call column index I."""
        src, out = tmp_path / "g.csv", tmp_path / "o.csv"
        src.write_text("".join(f"{i + 1},4,{i % 5}\n" for i in range(16)))
        argv = [
            "denoise", "gaussian", "--estimate-tau", "--graph", "grid", "4x4",
            "--input", str(src), "--output", str(out),
        ]
        assert main([*argv, "--columns", "1"]) == 2
        assert "error: column index 1: all signals constant" in capsys.readouterr().err
        assert main([*argv, "--columns", "0,2"]) == 0
        assert main([*argv, "--columns", "3"]) == 2
        assert "error: column index 3 out of range [0, 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["l1", "l0"])
    def test_dropout_constant_near_the_float_range_round_trips(self, tmp_path, mode):
        """Every edge difference of a constant column is 0, so L g is 0 even
        where deg * g overflows: nothing moves."""
        src, out = tmp_path / "g.csv", tmp_path / "o.csv"
        src.write_text("1e+308\n" * 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "denoise", "no-trust", "--tau", "1", "--mode", mode, "--graph", "grid", "3x3",
                "--input", str(src), "--output", str(out),
            ])
        assert rc == 0
        assert out.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("mode", ["l1", "l0"])
    def test_dropout_edge_far_from_zeta_does_not_overflow(self, tmp_path, capsys, mode):
        """Only the edges touching zeta enter the fit: a huge value two
        vertices away from the one suspect is no overflow in either mode."""
        src, out = tmp_path / "g.csv", tmp_path / "o.csv"
        src.write_text("0\n2\n3\n1e300\n5\n6\n7\n8\n9\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "denoise", "bernoulli", "--tau", "1", "--zeta", "zeros", "--mode", mode,
                "--graph", "grid", "9x1", "--input", str(src), "--output", str(out),
            ])
        assert rc == 0
        got = read_matrix(out).values[:, 0]
        np.testing.assert_array_equal(got[1:], [2, 3, 1e300, 5, 6, 7, 8, 9])
        assert 0.0 <= got[0] <= 2.0

    def test_cg_tau_overflowing_the_operator_returns_the_mean(self, tmp_path, capsys):
        """Off a grid, a tau whose product with the largest degree overflows
        I + tau L passes only the mean, as tau = inf and as the grid solve
        do: the scaled system has no coefficient above 1."""
        g = np.array([[1.0], [4.0], [2.0], [9.0]])
        src, edges, out = tmp_path / "g.csv", tmp_path / "p.edges", tmp_path / "o.csv"
        write_csv(src, g)
        edges.write_text("0 1\n1 2\n2 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "denoise", "gaussian", "--graph", "edge-list", str(edges), "--tau", "1e308",
                "--input", str(src), "--output", str(out),
            ])
        assert rc == 0
        assert "unconverged" not in capsys.readouterr().err
        np.testing.assert_array_equal(read_matrix(out).values, np.full((4, 1), 4.0))

    def test_knn_far_point_disconnects_exit_2(self, tmp_path, capsys):
        """The points are scaled before any distance is taken, so none
        overflows; the kernel gives the far point no edge."""
        src = tmp_path / "g.csv"
        src.write_text("0,7\n-1,1\n1e308,2.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "denoise", "gaussian", "--tau", "1", "--graph", "knn", "1",
                "--input", str(src), "--output", str(tmp_path / "o.csv"),
            ])
        assert rc == 2
        assert "graph has 2 connected components" in capsys.readouterr().err

    @pytest.mark.parametrize("spacing, shift", [(1e-300, 996), (1e200, -664)])
    def test_knn_rows_at_any_scale(self, tmp_path, capsys, spacing, shift):
        """Rows spaced 1e-300 apart (whose squared distances underflow) and
        1e200 apart (whose squared distances overflow) give the graph, and so
        the output, of the same rows scaled by a power of two into the unit
        range."""
        rows = np.arange(1.0, 7.0)[:, None] * spacing
        rows[3] *= 1.5
        outs = []
        for name, values in (("raw", rows), ("scaled", np.ldexp(rows, shift))):
            src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.out.csv"
            write_csv(src, values)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main([
                    "denoise", "gaussian", "--tau", "1", "--graph", "knn", "2",
                    "--input", str(src), "--output", str(out),
                ])
            assert rc == 0, capsys.readouterr().err
            outs.append(read_matrix(out).values)
        assert np.ldexp(outs[0], shift).tobytes() == outs[1].tobytes()

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

    @pytest.mark.parametrize(
        "lines, named",
        [
            ("0 1\n1 2 nan\n", "line 2: edge weight nan is not finite and positive"),
            ("0 1 -1\n1 2\n", "line 1: edge weight -1 is not finite and positive"),
            ("0 1 inf\n", "line 1: edge weight inf is not finite and positive"),
            ("0 1\n# comment\n1 0 2.0\n", "line 3: duplicate edge (0, 1), first on line 1"),
            ("0 1\n2 2\n", "line 2: self-loop at vertex 2"),
        ],
        ids=["nan", "negative", "inf", "duplicate", "self-loop"],
    )
    def test_edge_list_bad_edge_names_its_lines(self, tmp_path, rng, capsys, lines, named):
        src = tmp_path / "g.csv"
        write_csv(src, rng.normal(size=(3, 1)))
        edges = tmp_path / "edges.txt"
        edges.write_text(lines)
        rc = main([
            "denoise", "gaussian", "--graph", "edge-list", str(edges),
            "--input", str(src), "--output", str(tmp_path / "o.csv"), "--tau", "1",
        ])
        assert rc == 2
        assert f"{edges}: {named}" in capsys.readouterr().err

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

    @staticmethod
    def seed_rejected(tmp_path, capsys, seed):
        """--seed has no effect, but it is still parsed: anything other than
        a nonnegative integer is refused before the input is read."""
        out = tmp_path / "o.csv"
        rc = main(
            [
                "denoise", "uniform",
                "--graph", "grid", "3x3",
                "--input", str(tmp_path / "missing.csv"),
                "--output", str(out),
                "--seed", seed,
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"argument --seed: must be an integer >= 0, got '{seed}'" in err
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        self.seed_rejected(tmp_path, capsys, "-1")

    @pytest.mark.parametrize("seed", ["1.5", "x", ""])
    def test_non_integer_seed_exit_2(self, tmp_path, capsys, seed):
        self.seed_rejected(tmp_path, capsys, seed)

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

    def test_uniform_ignores_the_seed(self, tmp_path):
        """The CCP has one start, the observation moved 1e-3 into its box:
        --seed is parsed and has no effect, and each column is the library's
        ccp_denoise of it, bit for bit."""
        g = np.random.default_rng(4).uniform(0.5, 2.0, size=(64, 3))
        g[:, 1] *= np.where(np.arange(64) % 3 == 0, -1.0, 1.0)
        g[::7, 2] = 0.0
        src = tmp_path / "g.csv"
        write_csv(src, g)
        written = []
        for seed in ("0", "3"):
            out = tmp_path / f"o{seed}.csv"
            assert main([
                "denoise", "uniform", "--graph", "grid", "8x8", "--kappa", "2",
                "--seed", seed, "--input", str(src), "--output", str(out),
            ]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        got = read_matrix(tmp_path / "o0.csv").values
        graph = build_grid_graph(8, 8)
        for c in range(3):
            want = ccp_denoise(read_matrix(src).values[:, c], graph, 2.0)[0].signal
            assert got[:, c].tobytes() == want.tobytes()

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
        from graphdenoise import build_grid_graph, cg_solve, gaussian

        from conftest import shifted_laplacian

        capped = functools.partial(cg_solve, max_iter=1)
        monkeypatch.setattr(gaussian, "cg_solve", capped)
        g = rng.normal(size=(64, 1))
        src, out, edges = tmp_path / "g.csv", tmp_path / "o.csv", tmp_path / "g.edges"
        write_csv(src, g)
        write_grid_edges(edges, 8, 8)
        argv = [
            "denoise", "gaussian",
            "--graph", "edge-list", str(edges),
            "--input", str(src),
            "--output", str(out),
            "--tau", "5",
        ]
        assert main(argv) == 0
        assert "unconverged=1 " in capsys.readouterr().err
        # tau = 5 poses (I/5 + L) v = g - mean and writes mean + v/5
        mean = g[:, 0].mean()
        system = shifted_laplacian(build_grid_graph(8, 8), np.full(64, 0.2), 1.0)
        best = capped(system, g[:, 0] - mean)
        assert best.iterations == 1 and not best.converged
        assert np.array_equal(read_matrix(out).values[:, 0], mean + 0.2 * best.signal)

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
        # kappa * f'Lf of the start overflows before the box QP is posed
        [
            ("1e308", 3, "numerical failure: column index 0: uniform CCP"),
            ("inf", 2, "kappa must be finite"),
        ],
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

    def test_bernoulli_infinite_kappa_exit_2(self, tmp_path, capsys):
        """kappa follows uniform's rule: an infinite one made the penalty 0
        and wrote the harmonic refill 1, 2, 3, 2 with exit 0."""
        src = tmp_path / "g.csv"
        src.write_text("1\n0\n3\n2\n")
        argv = [
            "denoise", "bernoulli",
            "--graph", "grid", "1x4",
            "--input", str(src),
            "--output", str(tmp_path / "o.csv"),
            "--p", "0.2", "--kappa", "inf", "--zeta", "zeros",
        ]
        assert main(argv) == 2
        assert "kappa must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "column",
        [
            # Dirichlet energy of the start overflowed: a warning, then exit 0
            # with unconverged=1
            ["1e155", "-1e155", "2"],
            # the same overflow: a warning before the box QP's exit 3
            ["1e200", "1", "2"],
            # the log term's 1/f of a subnormal entry overflowed: a warning,
            # then exit 0 reported converged
            ["3", "1e-310", "2"],
        ],
        ids=["energy", "energy-then-box-qp", "subnormal"],
    )
    def test_uniform_overflow_exit_3(self, tmp_path, capsys, column):
        src, out = tmp_path / "g.csv", tmp_path / "o.csv"
        src.write_text("".join(f"{v}\n" for v in column))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([
                "denoise", "uniform", "--graph", "grid", "1x3",
                "--input", str(src), "--output", str(out),
            ])
        assert rc == 3 and not caught
        err = capsys.readouterr().err
        assert "numerical failure: column index 0: uniform CCP failed: overflow" in err
        assert not out.exists()

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
        """No graph needs scipy.spatial; the CLI must not load it at import."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, graphdenoise.cli; print('scipy.spatial' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_graph_construction_loads_no_scipy(self):
        """Building a k-NN graph or an edge-list graph, with its
        connectivity check, loads no scipy module."""
        code = (
            "import sys, numpy as np\n"
            "import graphdenoise as gd\n"
            "gd.build_knn_graph(np.random.default_rng(0).normal(size=(300, 2)), 10)\n"
            "gd.Graph.from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])\n"
            "try:\n"
            "    gd.Graph.from_edges(4, [0, 2], [1, 3], [1.0, 1.0])\n"
            "except gd.GraphDisconnectedError as err:\n"
            "    print(err.components)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.split("\n") == ["[[0, 1], [2, 3]]", "[]", ""]

    @pytest.mark.parametrize("case", [
        "gaussian-grid", "gaussian-grid-estimate", "gaussian-knn", "gaussian-edge-list",
        "uniform", "bernoulli-l1", "bernoulli-l0", "no-trust", "interpolate", "experiment",
    ])
    def test_command_loads_no_scipy(self, tmp_path, case):
        """No command loads a scipy module: every denoise model, on a grid,
        a k-NN graph and an edge list (the CG path), and an experiment."""
        src, out, edges = tmp_path / "g.csv", tmp_path / "o.csv", tmp_path / "g.edges"
        g = np.random.default_rng(0).uniform(0.5, 2.0, size=(64, 3))
        g[::5, 0] = 0.0
        write_csv(src, g)
        write_grid_edges(edges, 8, 8)
        io = ["--input", str(src), "--output", str(out)]
        grid = ["--graph", "grid", "8x8", *io]
        argv = {
            "gaussian-grid": ["denoise", "gaussian", *grid, "--tau", "2"],
            "gaussian-grid-estimate": ["denoise", "gaussian", *grid, "--estimate-tau"],
            "gaussian-knn": ["denoise", "gaussian", "--graph", "knn", "10", *io, "--tau", "2"],
            "gaussian-edge-list": [
                "denoise", "gaussian", "--graph", "edge-list", str(edges), *io, "--tau", "2",
            ],
            "uniform": ["denoise", "uniform", *grid],
            "bernoulli-l1": ["denoise", "bernoulli", *grid, "--p", "0.2", "--zeta", "zeros"],
            "bernoulli-l0": [
                "denoise", "bernoulli", *grid, "--p", "0.2", "--zeta", "zeros", "--mode", "l0",
            ],
            "no-trust": ["denoise", "no-trust", *grid, "--tau", "0.5"],
            "interpolate": ["denoise", "interpolate", *grid, "--zeta", "zeros"],
            "experiment": [
                "experiment", "--spec", str(ROOT / "specs" / "table3.spec"),
                "--out", str(tmp_path / "exp"),
            ],
        }[case]
        code = (
            "import sys\n"
            "from graphdenoise.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]"]

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


class TestScaleFreeSolves:
    """The dropout systems are posed over the edges that touch the unknown
    set, and CG solves them at any scale of their right-hand side."""

    def run(self, tmp_path, capsys, model, graph, column, mask=None, *opts):
        src, out = tmp_path / "g.csv", tmp_path / "o.csv"
        src.write_text("".join(f"{v}\n" for v in column))
        argv = ["denoise", model, "--graph", *graph, "--input", str(src),
                "--output", str(out), *opts]
        if mask is not None:
            (tmp_path / "m.csv").write_text("".join(f"{v}\n" for v in mask))
            argv += ["--zeta", str(tmp_path / "m.csv")]
        rc = main(argv)
        err = capsys.readouterr().err
        return rc, err, read_matrix(out).values.ravel() if rc == 0 else None

    @pytest.mark.parametrize(
        "column, mask, expect",
        [
            # unscaled, a norm overflowed: 0, 0 was written with unconverged=1
            ([1e200, 0, 0, -1e200], [0, 1, 1, 0], [1e200 / 3, -1e200 / 3]),
            # unscaled, an inner product overflowed: 0 was written, unconverged
            ([1.5e308, -1.5e308, 0, 5], [0, 0, 1, 0], [-7.5e307]),
            # unscaled, the inner products underflowed: 6.5e-162, 2.5e-162
            ([1e-161, 0, 0, 0, 0, -1e-161], [0, 1, 1, 1, 1, 0],
             [6e-162, 2e-162, -2e-162, -6e-162]),
            ([1e-162, 0, 0, 0, 0, -1e-162], [0, 1, 1, 1, 1, 0],
             [6e-163, 2e-163, -2e-163, -6e-163]),
        ],
    )
    def test_interpolate_far_from_unit_scale(self, tmp_path, capsys, column, mask, expect):
        graph = ["grid", f"1x{len(column)}"]
        rc, err, got = self.run(tmp_path, capsys, "interpolate", graph, column, mask)
        assert rc == 0 and "unconverged" not in err
        unknown = np.array(mask, dtype=bool)
        np.testing.assert_allclose(got[unknown], expect, rtol=1e-12)
        assert np.array_equal(got[~unknown], np.array(column, dtype=float)[~unknown])

    def test_gaussian_cg_on_a_tiny_column(self, tmp_path, capsys):
        """Unscaled, the norm underflowed and the mean was written with
        iterations=0."""
        (tmp_path / "c4").write_text("0 1\n1 2\n2 3\n3 0\n")
        column = np.array([5e-171, 1e-170, 0.0, -3e-170])
        graph = ["edge-list", str(tmp_path / "c4")]
        rc, err, got = self.run(
            tmp_path, capsys, "gaussian", graph, column, None, "--tau", "1"
        )
        assert rc == 0 and "unconverged" not in err
        lap = 2.0 * np.eye(4) - np.roll(np.eye(4), 1, axis=1) - np.roll(np.eye(4), -1, axis=1)
        dense = np.linalg.solve(np.eye(4) + lap, column * 1e170) / 1e170
        np.testing.assert_allclose(got, dense, rtol=1e-10)

    @pytest.mark.parametrize("opts", [("interpolate",), ("bernoulli", "--p", "0.7")])
    def test_refill_overflow_exit_3(self, tmp_path, capsys, opts):
        """-(L g)(U) overflows: the refill fails numerically (it exited 2),
        as ``bernoulli --tau 0.5`` does on the same input."""
        rc, err, _ = self.run(
            tmp_path, capsys, opts[0], ["grid", "1x3"], [1.5e308, 0, 1.5e308], [0, 1, 0],
            *opts[1:],
        )
        assert rc == 3
        assert "failed: overflow" in err

    @pytest.mark.parametrize("mode, expect", [("l1", 2.875), ("l0", 3.0)])
    def test_overflow_far_from_zeta_is_not_read(self, tmp_path, capsys, mode, expect):
        """Edge (0, 1) overflows but has no endpoint in zeta, so it is not
        read (reading it exited 3)."""
        column = [1.5e308, -1.5e308, 1, 0, 5]
        rc, err, got = self.run(
            tmp_path, capsys, "bernoulli", ["grid", "1x5"], column, [0, 0, 0, 1, 0],
            "--tau", "0.5", "--mode", mode,
        )
        assert rc == 0 and "unconverged" not in err
        assert got[3] == pytest.approx(expect, rel=1e-12)
        assert np.array_equal(np.delete(got, 3), np.delete(np.array(column, float), 3))

    def test_estimate_tau_is_scale_free(self, tmp_path, capsys):
        """Unscaled moments exited 2 at 2^700 (they overflow) and at 2^-600
        (they underflow to zero, "all signals constant")."""
        column = np.array([
            0.374, 0.705, 0.521, 0.304, 0.452, 0.21, 0.542, 0.397, 0.44, 0.36,
            -0.302, 0.233, -0.472, -0.432, -0.163, 0.256, 0.57, -0.788, -0.047,
            -0.02, 0.501, -0.076, -0.548, -0.703, -0.818, -0.732, -0.309, 0.282,
            0.041, -0.141, -0.199, -0.133, -0.298, 0.837, -0.332, -0.114,
        ])
        shown = []
        for k in (0, 700, -600):
            rc, err, _ = self.run(
                tmp_path, capsys, "gaussian", ["grid", "6x6"],
                [format_float(v) for v in np.ldexp(column, k)], None, "--estimate-tau",
            )
            assert rc == 0
            shown.append(err.split("tau_hat=", 1)[1].split()[0])
        assert shown == ["1.21879"] * 3

    def test_import_loads_no_lazily_imported_scipy_module(self):
        """scipy.sparse.csgraph, scipy.spatial and scipy.fft are not loaded
        when the CLI loads."""
        code = (
            "import sys, graphdenoise.cli; "
            "print(sorted(m for m in ('scipy.sparse.csgraph', 'scipy.spatial', "
            "'scipy.fft') if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.strip() == "[]"

    def test_estimate_tau_is_scale_free_in_the_weights(self, tmp_path, capsys):
        """tau scales as 1/s when the weights scale by s: unscaled, one edge
        weight of 1e160 or 1e300 overflowed the moment targets (exit 2), and
        scaling every weight by 2^996 divides the estimate by 2^996."""
        column = [1, 4, 2, 9]
        shown = []
        scaled = [repr(math.ldexp(w, 996)) for w in (1, 2, 4)]
        for weights in (["1e160", 1, 1], ["1e300", 1, 1], [1, 2, 4], scaled):
            edges = tmp_path / "p4.edges"
            edges.write_text("".join(f"{v} {v + 1} {w}\n" for v, w in enumerate(weights)))
            rc, err, got = self.run(
                tmp_path, capsys, "gaussian", ["edge-list", str(edges)], column, None,
                "--estimate-tau",
            )
            assert rc == 0 and np.all(np.isfinite(got))
            shown.append(err.split("tau_hat=", 1)[1].split()[0])
        path = Graph.from_edges(4, [0, 1, 2], [1, 2, 3], [1, 2, 4])
        unit = estimate_tau(np.array(column, float), path)
        assert shown[2:] == [f"{unit:.6g}", f"{math.ldexp(unit, -996):.6g}"]

    def test_estimate_tau_on_an_underflowed_flow(self, tmp_path, capsys):
        """The only variation crosses an edge of weight 1e-200, so ||Lg||^2
        underflows to 0: the column is not constant and is fitted (it exited
        2, "all signals constant")."""
        edges = tmp_path / "p3.edges"
        edges.write_text("0 1 1\n1 2 1e-200\n")
        column = ["0.75", "0.75", "0.7500000000000001"]
        rc, err, got = self.run(
            tmp_path, capsys, "gaussian", ["edge-list", str(edges)], column, None,
            "--estimate-tau",
        )
        assert rc == 0 and "tau_hat=0 " in err
        assert got.tolist() == [float(v) for v in column]


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

    def test_rows_are_newline_separated_lines(self, tmp_path, capsys):
        """Only \\n ends a row: a \\x1c inside a line does not start one,
        and a \\x0c is whitespace around a value."""
        src, out = tmp_path / "g.csv", tmp_path / "o.csv"
        argv = ["denoise", "gaussian", "--tau", "0", "--input", str(src), "--output", str(out)]
        src.write_bytes(b"1,2\n3,4\x1c5,6\n")
        assert main(argv + ["--graph", "grid", "3x1"]) == 2
        assert "at row 2, column 2" in capsys.readouterr().err
        src.write_bytes(b"1,2\n3\x0c,4\n")
        assert main(argv + ["--graph", "grid", "2x1"]) == 0
        assert out.read_bytes() == b"1,2\n3,4\n"

    def test_edge_list_lines_are_newline_separated(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_bytes(b"0 1\x1c1 2\n")
        src = tmp_path / "g.csv"
        write_csv(src, np.array([[0.0], [9.0], [2.0]]))
        rc = main([
            "denoise", "gaussian", "--tau", "0", "--graph", "edge-list", str(edges),
            "--input", str(src), "--output", str(tmp_path / "o.csv"),
        ])
        assert rc == 2
        assert "line 1: expected 'a b [w]'" in capsys.readouterr().err

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

    def test_gaussian_noise_overflow_is_an_error_row(self, tmp_path):
        """sigma = 1e308 overflows the noise draw itself: every cell is an
        error row, with no warning, where some wrote nan or inf values."""
        methods = ["noisy", "gaussian", "local-average", "nuclear", "bernoulli",
                   "uniform-ccp", "uniform-pg"]
        spec = tmp_path / "noise.spec"
        spec.write_text(
            TINY_SPEC.split("[method.gaussian]")[0]
            .replace("height = 3\nwidth = 3", "height = 4\nwidth = 4")
            .replace("levels = 0.5 1.0", "levels = 1e308")
            .replace("repeats = 2", "repeats = 1")
            + "[method.gaussian]\ntau = 1.0\n\n[method.local-average]\nt = 1\n\n"
            "[method.nuclear]\ntau = 1.0\n\n[method.bernoulli]\np = 0.2\n\n"
            "[method.noisy]\n\n[method.uniform-ccp]\n\n[method.uniform-pg]\n"
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "table.csv").read_text().splitlines()[1:]]
        assert sorted((r[0], r[4]) for r in rows) == sorted((m, "error") for m in methods)

    def test_projected_gradient_overflow_is_an_error_row(self, tmp_path):
        """The log term's 1/f of a subnormal entry overflows: the method's
        cell is an error row, with no warning, where it was a warning and
        the observation reported converged."""
        (tmp_path / "g.csv").write_text("3\n1e-310\n2\n")
        spec = tmp_path / "pg.spec"
        spec.write_text(
            "[experiment]\nname = pg-overflow\nseed = 0\nrepeats = 1\n\n"
            "[graph]\nkind = grid\nheight = 1\nwidth = 3\n\n"
            f"[signal]\nsource = file\npath = {tmp_path / 'g.csv'}\n\n"
            "[noise]\nkind = gaussian\nlevels = 0\n\n"
            "[metrics]\nnames = relative-error\n\n"
            "[method.uniform-pg]\n"
        )
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "table.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[4]) for r in rows] == [("uniform-pg", "error")]

    def test_metrics_are_scale_free_near_the_float_limit(self, tmp_path):
        """The metrics' norms, means and products of signals near 1e308
        overflowed: pearson read nan and relative-error warned."""
        (tmp_path / "g.csv").write_text("1e308\n-1e308\n")
        spec = tmp_path / "big.spec"
        spec.write_text(
            "[experiment]\nname = big\nseed = 0\nrepeats = 1\n\n"
            "[graph]\nkind = grid\nheight = 1\nwidth = 2\n\n"
            f"[signal]\nsource = file\npath = {tmp_path / 'g.csv'}\n\n"
            "[noise]\nkind = gaussian\nlevels = 0\n\n"
            "[metrics]\nnames = relative-error pearson\n\n"
            "[method.noisy]\n"
        )
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "table.csv").read_text().splitlines()[1:]]
        assert sorted((r[4], float(r[5])) for r in rows) == [
            ("pearson", 1.0), ("relative-error", 0.0)
        ]

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
            ("height = 3\n", "height = 9223372036854775808\n",
             "grid 9223372036854775808x3 has more vertices than can be allocated"),
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
            # mean * sqrt(n), the prior's mean coefficient, overflows
            ("kappa = 1.0\n", "kappa = 1.0\nmean = 1e308\n",
             "[signal] mean = 1e+308 overflows mean * sqrt(n)"),
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
            "grid-without-height", "grid-height-2**63", "count-many", "levels", "levels-inf",
            "levels-nan", "fill-inf", "seed", "seed-negative", "noise-kind", "levels-empty",
            "method-grid-empty", "metric", "graph-kind", "signal-source",
            "spread-inf", "spread-nan", "spread-1e308",
            "nonneg-ture", "mean-inf", "mean-nan", "mean-overflows", "kappa-inf", "count-0", "count-negative",
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

    @pytest.mark.parametrize(
        "graph,named",
        [(GRID, "[signal] count = 9223372036854775808"),
         (CLUSTERS + "1", "n_signals = 9223372036854775808")],
        ids=["prior-sample", "clusters"],
    )
    def test_signal_count_beyond_allocation_exit_2(self, tmp_path, capsys, graph, named):
        spec = tmp_path / "big.spec"
        spec.write_text(
            TINY_SPEC.replace(GRID, graph).replace("count = 2", "count = 9223372036854775808")
        )
        rc = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{named}: " in capsys.readouterr().err
        assert not (tmp_path / "o" / "table.csv").exists()

    @pytest.mark.parametrize(
        "shape,kappa", [("height = 3\nwidth = 3", "1e-320"), ("height = 1\nwidth = 8", "5e-324")],
        ids=["variance-overflows", "product-underflows"],
    )
    def test_prior_kappa_without_a_draw_exit_3(self, tmp_path, capsys, shape, kappa):
        """A kappa so small that 1/(2 kappa lambda) overflows, or 2 kappa
        lambda underflows to 0, leaves no prior to draw from."""
        spec = tmp_path / "tiny-kappa.spec"
        spec.write_text(
            TINY_SPEC.replace("height = 3\nwidth = 3", shape)
            .replace("kappa = 1.0", f"kappa = {kappa}")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "prior draw failed" in capsys.readouterr().err
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

    def test_nan_nuclear_tau_is_an_error_row(self, tmp_path):
        spec = tmp_path / "nan.spec"
        spec.write_text(TINY_SPEC.split("[method.gaussian]")[0] + "[method.nuclear]\ntau = nan\n")
        out = tmp_path / "o"
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "table.csv").read_text().splitlines()[1:]]
        assert rows and all(r[0] == "nuclear" and r[4] == "error" and r[5] == "nan" for r in rows)

    def test_overflowing_relative_error_is_named(self, tmp_path, caplog):
        """A tiny nonzero truth under huge noise overflows the ratio; the
        error row says so, not that the signal is zero."""
        signal = tmp_path / "sig.csv"
        signal.write_text("1e-300\n0\n")
        spec = tmp_path / "overflow.spec"
        spec.write_text(
            "[experiment]\nname = overflow\nseed = 0\nrepeats = 1\n\n"
            "[graph]\nkind = grid\nheight = 1\nwidth = 2\n\n"
            f"[signal]\nsource = file\npath = {signal}\n\n"
            "[noise]\nkind = gaussian\nlevels = 1e300\n\n"
            "[metrics]\nnames = relative-error\n\n[method.noisy]\n"
        )
        out = tmp_path / "o"
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "table.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[4], r[5]) for r in rows] == [("noisy", "error", "nan")]
        assert "relative error overflows" in caplog.text
        assert "zero signal" not in caplog.text

    def test_salt_pepper_is_an_unknown_noise_kind(self, tmp_path, capsys):
        spec = tmp_path / "sp.spec"
        spec.write_text(TINY_SPEC.replace("kind = gaussian", "kind = salt-pepper"))
        rc = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "[noise] kind must be one of" in capsys.readouterr().err
