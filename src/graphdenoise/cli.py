"""Command-line interface: denoise matrix columns or run experiment specs.

Exit codes: 0 on success, 2 on input/usage errors, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bernoulli import bernoulli_denoise, dropout_penalty
from .errors import GraphDenoiseError, InvalidArgumentError, NumericalFailureError
from .experiments import parse_experiment_spec, run_experiment
from .gaussian import denoise_gaussian, estimate_tau
from .graphs import Graph, build_grid_graph, build_knn_graph
from .matrixio import read_mask, read_matrix, read_text, select_columns, write_matrix
from .uniform import ccp_denoise


def _at_least(minimum: int, text: str) -> int:
    """Parse an option's integer of at least ``minimum``."""
    if not text.isdecimal() or int(text) < minimum:
        raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
    return int(text)


@contextlib.contextmanager
def _named(source: str):
    """Prefix the message of a package error raised in the block with ``source``."""
    try:
        yield
    except GraphDenoiseError as exc:
        exc.args = (f"{source}: {exc}",)
        raise


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
    models = den.add_subparsers(dest="model", required=True)
    # the options every model takes
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--graph",
        nargs=2,
        required=True,
        metavar=("KIND", "ARG"),
        help="grid HxW | knn K | edge-list FILE",
    )
    common.add_argument("--input", required=True, help="matrix file (delimited or PGM)")
    common.add_argument("--output", required=True, help="where to write the result")
    common.add_argument(
        "--columns", default=":", help="column selection: I, A:B, or I,J,K (default all)"
    )
    # every solve holds the GIL, so columns and cells run one after another
    unused_help = "no effect; kept only until the benchmark stops passing it"
    count, seed = functools.partial(_at_least, 1), functools.partial(_at_least, 0)
    common.add_argument("--threads", type=count, default=1, help=unused_help)
    zeta_help = "suspicion set: 'zeros' or a 0/1 mask file"

    gauss = models.add_parser("gaussian", parents=[common])
    tau = gauss.add_mutually_exclusive_group(required=True)
    tau.add_argument("--tau", type=float, help="smoothing strength")
    tau.add_argument("--estimate-tau", action="store_true", help="per-column estimate")

    uni = models.add_parser("uniform", parents=[common])
    uni.add_argument("--kappa", type=float, default=1.0, help="prior smoothness weight")
    uni.add_argument("--seed", type=seed, default=0, help=unused_help)

    ber = models.add_parser("bernoulli", parents=[common])
    weight = ber.add_mutually_exclusive_group(required=True)
    weight.add_argument("--tau", type=float, help="penalty weight")
    weight.add_argument("--p", type=float, help="dropout probability in (0,1)")
    ber.add_argument("--kappa", type=float, help="with --p (default 1.0)")
    ber.add_argument("--mode", choices=("l1", "l0"), default="l1")
    ber.add_argument("--zeta", help=zeta_help)

    trust = models.add_parser("no-trust", parents=[common])
    trust.add_argument("--tau", type=float, required=True, help="penalty weight")
    trust.add_argument("--mode", choices=("l1", "l0"), default="l1")

    interp = models.add_parser("interpolate", parents=[common])
    interp.add_argument("--zeta", help=zeta_help)
    # the dropout model with no penalty: a harmonic refill of the suspicion set
    interp.set_defaults(tau=0.0, mode="l1")

    exp = sub.add_parser("experiment", help="run a declarative experiment spec")
    exp.add_argument("--spec", required=True)
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--seed", type=seed, default=None, help="override the spec seed")
    exp.add_argument("--threads", type=count, default=1, help=unused_help)
    return parser


def _parse_graph_arg(kind: str, arg: str, n_rows: int, matrix: np.ndarray) -> Graph:
    if kind == "grid":
        h_s, _, w_s = arg.partition("x")
        try:
            h, w = int(h_s), int(w_s)
        except ValueError:
            raise InvalidArgumentError(
                f"--graph grid needs integers HxW, got {arg!r}"
            ) from None
        if h * w != n_rows:
            raise InvalidArgumentError(
                f"grid {h}x{w} has {h * w} vertices but the input has {n_rows} rows"
            )
        with _named(f"--graph grid {arg}"):
            return build_grid_graph(h, w)
    if kind == "knn":
        try:
            k = int(arg)
        except ValueError:
            raise InvalidArgumentError(
                f"--graph knn needs an integer neighbor count, got {arg!r}"
            ) from None
        with _named(f"--graph knn {arg}"):
            return build_knn_graph(matrix, k)
    if kind == "edge-list":
        return _read_edge_list(arg, n_rows)
    raise InvalidArgumentError(f"unknown graph kind {kind!r}")


def _read_edge_list(path: str, n: int) -> Graph:
    a, b, w = [], [], []
    first_line = {}  # unordered pair -> the line that named it first
    for ln_no, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise InvalidArgumentError(
                f"{path}: line {ln_no}: expected 'a b [w]', got {line!r}"
            )
        try:
            a.append(int(parts[0]))
            b.append(int(parts[1]))
            w.append(float(parts[2]) if len(parts) == 3 else 1.0)
        except ValueError:
            raise InvalidArgumentError(
                f"{path}: line {ln_no}: cannot parse {line!r}"
            ) from None
        for v in (a[-1], b[-1]):
            if not 0 <= v < n:
                raise InvalidArgumentError(
                    f"{path}: line {ln_no}: vertex id {v} out of range [0, {n})"
                )
        if not 0.0 < w[-1] < math.inf:
            raise InvalidArgumentError(
                f"{path}: line {ln_no}: edge weight {parts[2]} is not finite and positive"
            )
        if a[-1] == b[-1]:
            raise InvalidArgumentError(f"{path}: line {ln_no}: self-loop at vertex {a[-1]}")
        pair = (min(a[-1], b[-1]), max(a[-1], b[-1]))
        if pair in first_line:
            raise InvalidArgumentError(
                f"{path}: line {ln_no}: duplicate edge {pair}, first on line {first_line[pair]}"
            )
        first_line[pair] = ln_no
    with _named(path):
        return Graph.from_edges(n, a, b, w)


def cmd_denoise(args) -> int:
    if args.model == "bernoulli" and args.kappa is not None and args.p is None:
        raise InvalidArgumentError("bernoulli --kappa goes with --p, not --tau")
    output = Path(args.output)
    if output.is_dir() or not output.parent.is_dir():
        raise InvalidArgumentError(f"--output {args.output} is not a file in a directory")

    infile = read_matrix(args.input)
    n_rows, width = infile.signals.shape
    graph = _parse_graph_arg(*args.graph, n_rows, infile.signals)
    matrix = infile.signals_for(graph)
    cols = select_columns(args.columns, width)
    # the dropout family (bernoulli, no-trust, interpolate): the suspicion
    # mask, None for each column's zeros, and the penalty weight
    mask = None
    if args.model == "no-trust":  # every vertex is suspected
        mask = np.ones(n_rows, dtype=bool)
    elif getattr(args, "zeta", None) not in (None, "zeros"):
        mask = read_mask(args.zeta, n_rows)
    penalty = getattr(args, "tau", None)
    if getattr(args, "p", None) is not None:
        penalty = dropout_penalty(args.p, 1.0 if args.kappa is None else args.kappa)

    out = matrix.copy()
    total_iters = unconverged = 0
    taus = []
    start = time.perf_counter()
    for c in cols:
        g = matrix[:, c].astype(np.float64)
        with _named(f"column index {c}"):  # the index --columns takes
            if args.model == "gaussian":
                tau = args.tau
                if args.estimate_tau:
                    tau = estimate_tau(g, graph)
                    taus.append(tau)
                res = denoise_gaussian(g, graph, tau)
            elif args.model == "uniform":
                res, _ = ccp_denoise(g, graph, kappa=args.kappa)
            else:
                zeta = (g == 0.0) if mask is None else mask
                res = bernoulli_denoise(g, graph, zeta, penalty, args.mode)
        out[:, c] = res.signal
        total_iters += res.iterations
        unconverged += not res.converged
    elapsed = time.perf_counter() - start

    summaries: list[str] = []
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

    write_matrix(args.output, out, infile)
    return 0


def cmd_experiment(args) -> int:
    out_dir = Path(args.out)
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise InvalidArgumentError(f"--out {args.out}: {nearest} is not a directory")
    spec = parse_experiment_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    table = run_experiment(spec)
    # made only now, so a spec refused before any cell leaves no directory
    out_dir.mkdir(parents=True, exist_ok=True)
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
    except NumericalFailureError as exc:
        print(f"graphdenoise: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (GraphDenoiseError, OSError) as exc:
        print(f"graphdenoise: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
