"""Command-line interface: denoise matrix columns or run experiment specs.

Exit codes: 0 on success, 2 on input/usage errors, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .bernoulli import bernoulli_denoise, dropout_penalty
from .errors import (
    ConvergenceError,
    GraphDenoiseError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
    NumericalFailureError,
)
from .experiments import parse_experiment_spec, run_experiment
from .gaussian import denoise_gaussian, estimate_tau
from .graphs import Graph, build_grid_graph, build_knn_graph
from .matrixio import read_matrix, write_matrix
from .solvers import harmonic_interpolate
from .uniform import ccp_denoise

MODELS = ("gaussian", "uniform", "bernoulli", "no-trust", "interpolate")

_NUMERICAL_ERRORS = (
    NumericalFailureError,
    NotPositiveDefiniteError,
    ConvergenceError,
)


def _thread_count(text: str) -> int:
    """Parse --threads: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdenoise",
        description="Graph-signal denoising under a spectral smoothness prior.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    den = sub.add_parser("denoise", help="denoise the columns of a matrix file")
    den.add_argument("model", choices=MODELS)
    den.add_argument(
        "--graph",
        nargs="+",
        required=True,
        metavar=("KIND", "ARG"),
        help="grid HxW | knn K | edge-list FILE",
    )
    den.add_argument("--input", required=True, help="matrix file (delimited or PGM)")
    den.add_argument("--output", required=True, help="where to write the result")
    den.add_argument("--columns", help="column selection: I, A:B, or I,J,K")
    den.add_argument("--tau", type=float, help="smoothing / penalty strength")
    den.add_argument("--kappa", type=float, help="prior smoothness weight")
    den.add_argument("--p", type=float, help="dropout probability in (0,1)")
    den.add_argument("--mode", choices=("l1", "l0"), default="l1")
    den.add_argument("--zeta", help="suspicion set: 'zeros' or a 0/1 mask file")
    den.add_argument(
        "--estimate-tau",
        action="store_true",
        help="estimate tau per column by the method of moments (gaussian model)",
    )
    den.add_argument("--seed", type=int, default=0)
    den.add_argument("--threads", type=_thread_count, default=1)

    exp = sub.add_parser("experiment", help="run a declarative experiment spec")
    exp.add_argument("--spec", required=True)
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--seed", type=int, default=None, help="override the spec seed")
    exp.add_argument("--threads", type=_thread_count, default=1)
    return parser


def _parse_graph_arg(tokens: list[str], n_rows: int, matrix: np.ndarray) -> Graph:
    kind = tokens[0]
    if kind == "grid":
        if len(tokens) != 2 or "x" not in tokens[1]:
            raise InvalidArgumentError("--graph grid needs a HxW argument")
        h_s, w_s = tokens[1].lower().split("x", 1)
        try:
            h, w = int(h_s), int(w_s)
        except ValueError:
            raise InvalidArgumentError(
                f"--graph grid needs integers HxW, got {tokens[1]!r}"
            ) from None
        if h * w != n_rows:
            raise InvalidArgumentError(
                f"grid {h}x{w} has {h * w} vertices but the input has {n_rows} rows"
            )
        return build_grid_graph(h, w)
    if kind == "knn":
        if len(tokens) != 2:
            raise InvalidArgumentError("--graph knn needs a neighbor count")
        try:
            k = int(tokens[1])
        except ValueError:
            raise InvalidArgumentError(
                f"--graph knn needs an integer neighbor count, got {tokens[1]!r}"
            ) from None
        return build_knn_graph(matrix, k)
    if kind == "edge-list":
        if len(tokens) != 2:
            raise InvalidArgumentError("--graph edge-list needs a file path")
        return _read_edge_list(tokens[1], n_rows)
    raise InvalidArgumentError(f"unknown graph kind {kind!r}")


def _read_edge_list(path: str, n: int) -> Graph:
    p = Path(path)
    if not p.exists():
        raise InvalidArgumentError(f"edge-list file not found: {p}")
    a, b, w = [], [], []
    for ln_no, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise InvalidArgumentError(
                f"{p}: line {ln_no}: expected 'a b [w]', got {line!r}"
            )
        try:
            a.append(int(parts[0]))
            b.append(int(parts[1]))
            w.append(float(parts[2]) if len(parts) == 3 else 1.0)
        except ValueError:
            raise InvalidArgumentError(
                f"{p}: line {ln_no}: cannot parse {line!r}"
            ) from None
        for v in (a[-1], b[-1]):
            if not 0 <= v < n:
                raise InvalidArgumentError(
                    f"{p}: line {ln_no}: vertex id {v} out of range [0, {n})"
                )
    return Graph.from_edges(n, a, b, w)


def _parse_columns(arg: str | None, width: int) -> list[int]:
    if arg is None:
        return list(range(width))
    arg = arg.strip()
    try:
        if ":" in arg:
            lo_s, hi_s = arg.split(":", 1)
            lo = int(lo_s) if lo_s else 0
            hi = int(hi_s) if hi_s else width
            cols = list(range(lo, hi))
        elif "," in arg:
            cols = [int(t) for t in arg.split(",")]
        else:
            cols = [int(arg)]
    except ValueError:
        raise InvalidArgumentError(f"cannot parse column range {arg!r}") from None
    for c in cols:
        if not 0 <= c < width:
            raise InvalidArgumentError(f"column {c} out of range [0, {width})")
    if not cols:
        raise InvalidArgumentError("empty column selection")
    return cols


def _load_zeta_mask(arg: str | None, n: int) -> np.ndarray | None:
    """The suspicion mask of a 0/1 mask file; None for 'zeros' (per column)."""
    if arg is None or arg == "zeros":
        return None
    path = Path(arg)
    mfile = read_matrix(path)
    mat = mfile.values
    flat = mat.ravel()
    if flat.size != n:
        raise InvalidArgumentError(
            f"mask {path} has {flat.size} entries, expected {n}"
        )
    bad = np.argwhere((mat != 0.0) & (mat != 1.0))
    if bad.size:
        i, j = bad[0]
        # rows are counted as read_matrix counts them, header included
        row = i + 1 + (mfile.header is not None)
        raise InvalidArgumentError(
            f"mask {path}: entry {float(mat[i, j])!r} at row {row}, column "
            f"{j + 1} is not 0 or 1"
        )
    return flat != 0.0


def cmd_denoise(args) -> int:
    if args.model == "gaussian":
        if (args.tau is not None) == bool(args.estimate_tau):
            raise InvalidArgumentError(
                "gaussian model needs exactly one of --tau or --estimate-tau"
            )
    elif args.estimate_tau:
        raise InvalidArgumentError("--estimate-tau applies to the gaussian model only")
    if args.model in ("no-trust",) and args.tau is None:
        raise InvalidArgumentError("no-trust model needs --tau")
    if args.model == "bernoulli":
        has_tau = args.tau is not None
        has_pk = args.p is not None
        if has_tau == has_pk:
            raise InvalidArgumentError(
                "bernoulli model needs exactly one of --tau or --p (with --kappa)"
            )

    infile = read_matrix(args.input)
    if infile.kind == "pgm":
        matrix = infile.values.reshape(-1, 1)
    else:
        matrix = infile.values
    n_rows = matrix.shape[0]
    graph = _parse_graph_arg(args.graph, n_rows, matrix)
    cols = _parse_columns(args.columns, matrix.shape[1])
    mask = _load_zeta_mask(args.zeta, n_rows)
    if args.model == "no-trust":  # every vertex is suspected
        mask = np.ones(n_rows, dtype=bool)
    kappa = args.kappa if args.kappa is not None else 1.0
    # the dropout models' penalty weight, given as --tau or as --p/--kappa
    if args.model == "bernoulli" and args.tau is None:
        penalty = dropout_penalty(args.p, kappa)
    else:
        penalty = args.tau

    summaries: list[str] = []

    def work(c: int):
        g = matrix[:, c].astype(np.float64)
        if args.model == "gaussian":
            tau = estimate_tau(g, graph) if args.estimate_tau else args.tau
            res = denoise_gaussian(g, graph, tau)
            return c, res, tau if args.estimate_tau else None
        if args.model == "uniform":
            res, _ = ccp_denoise(g, graph, kappa=kappa, rng_seed=args.seed)
            return c, res, None
        zeta = (g == 0.0) if mask is None else mask
        if args.model in ("bernoulli", "no-trust"):
            return c, bernoulli_denoise(g, graph, zeta, penalty, args.mode), None
        # interpolate: fill the masked set from the trusted complement
        return c, harmonic_interpolate(graph, ~zeta, g[~zeta]), None

    start = time.perf_counter()
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(work, cols))
    else:
        results = [work(c) for c in cols]
    elapsed = time.perf_counter() - start

    out = matrix.copy()
    total_iters = 0
    unconverged = 0
    taus = []
    for c, res, tau in results:
        out[:, c] = res.signal
        total_iters += res.iterations
        unconverged += not res.converged
        if tau is not None:
            taus.append(tau)
    if taus:
        shown = ",".join(f"{t:.6g}" for t in taus[:8])
        if len(taus) > 8:
            shown += f",... ({len(taus)} columns)"
        summaries.append(f"tau_hat={shown}")
    summaries.append(f"columns={len(cols)}")
    summaries.append(f"iterations={total_iters}")
    if unconverged:
        summaries.append(f"unconverged={unconverged}")
    summaries.append(f"time={elapsed:.3f}s")
    print(f"{args.model}: " + " ".join(summaries), file=sys.stderr)

    if infile.kind == "pgm":
        write_matrix(args.output, out.reshape(infile.values.shape), infile)
    else:
        write_matrix(args.output, out, infile)
    return 0


def cmd_experiment(args) -> int:
    spec = parse_experiment_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = run_experiment(spec, threads=args.threads)
    table.to_csv(out_dir / "table.csv")
    if table.benchmark is not None:
        table.benchmark.write_traces_csv(out_dir / "traces.csv")
    print(
        f"experiment {spec.name}: {len(table.rows)} rows -> {out_dir / 'table.csv'}",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        if args.command == "denoise":
            return cmd_denoise(args)
        return cmd_experiment(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"graphdenoise: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (InvalidArgumentError, GraphDenoiseError) as exc:
        print(f"graphdenoise: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"graphdenoise: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
