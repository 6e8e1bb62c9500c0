"""Noise generators, metrics, synthetic data, and the experiment runner.

An experiment is a declarative sweep: one graph, one family of ground-truth
signals, a grid of noise levels, and a list of methods with parameter
grids.  Every cell of the sweep draws its randomness from its own
counter-based stream derived from the root seed and the cell's coordinates,
so tables are reproducible regardless of execution order or thread count.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import itertools
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, bernoulli, gaussian, uniform
from .errors import GraphDenoiseError, InvalidArgumentError
from .graphs import (
    Graph,
    VertexSet,
    as_signal,
    build_grid_graph,
    build_knn_graph,
    dirichlet_energy,
)
from .matrixio import format_float, read_matrix
from .spectral import SpectralBasis, eigendecompose, sample_prior
from .uniform import ccp_denoise, projected_gradient_denoise, uniform_loss

__all__ = [
    "NoiseSpec",
    "add_noise",
    "relative_error",
    "pearson_correlation",
    "make_cluster_data",
    "derive_rng",
    "MethodSpec",
    "ExperimentSpec",
    "TableRow",
    "ExperimentTable",
    "parse_experiment_spec",
    "run_experiment",
    "BenchmarkReport",
    "ccp_vs_pg_benchmark",
    "DEFAULT_GRIDS",
]

logger = logging.getLogger(__name__)

NOISE_KINDS = ("gaussian", "uniform-scale", "bernoulli-dropout", "salt-pepper")

# parameter grids used when a comparison method is run "at its defaults"
DEFAULT_GRIDS = {
    "local-average": {"t": (1, 2, 5)},
    "magic": {"t": (1, 5, 10)},
    "band-low": {"k": (5, 25, 100)},
    "band-high": {"k": (5, 25, 100)},
    "nuclear": {"tau": (1.0, 25.0, 50.0)},
}

_SEED_MASK = (1 << 63) - 1


def derive_rng(root_seed: int, *path) -> np.random.Generator:
    """Independent counter-based stream for a cell of the experiment.

    The stream depends only on the root seed and the path coordinates
    (ints or strings), never on execution order.
    """
    parts = [int(root_seed) & _SEED_MASK]
    for p in path:
        if isinstance(p, str):
            digest = hashlib.sha256(p.encode("utf-8")).digest()
            parts.append(int.from_bytes(digest[:8], "big") & _SEED_MASK)
        else:
            parts.append(int(p) & _SEED_MASK)
    seq = np.random.SeedSequence(parts)
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class NoiseSpec:
    """One corruption process: kind, parameters, and its own seed."""

    kind: str
    sigma: float = 0.0
    p: float = 0.0
    fill: float = 0.0
    lo: float = 0.0
    hi: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidArgumentError(
                f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}"
            )
        if self.sigma < 0:
            raise InvalidArgumentError("sigma must be nonnegative")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidArgumentError("p must be in [0, 1]")


def add_noise(f, spec: NoiseSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """Corrupt a signal; deterministic for a fixed spec (and its seed)."""
    f = np.asarray(f, dtype=np.float64)
    if rng is None:
        rng = derive_rng(spec.seed, "noise", spec.kind)
    if spec.kind == "gaussian":
        if spec.sigma == 0.0:
            return f.copy()
        return f + spec.sigma * rng.standard_normal(f.shape)
    if spec.kind == "uniform-scale":
        return rng.uniform(0.0, 1.0, size=f.shape) * f
    if spec.kind == "bernoulli-dropout":
        out = f.copy()
        if spec.p > 0.0:
            hit = rng.uniform(size=f.shape) < spec.p
            out[hit] = spec.fill
        return out
    # salt-pepper
    out = f.copy()
    if spec.p > 0.0:
        hit = rng.uniform(size=f.shape) < spec.p
        salt = rng.uniform(size=f.shape) < 0.5
        out[hit & salt] = spec.hi
        out[hit & ~salt] = spec.lo
    return out


def relative_error(f_true, f_est) -> float:
    """||f_true - f_est||_2 / ||f_true||_2."""
    t = np.asarray(f_true, dtype=np.float64)
    e = np.asarray(f_est, dtype=np.float64)
    if t.shape != e.shape:
        raise InvalidArgumentError("signals must have matching shapes")
    denom = float(np.linalg.norm(t))
    if denom == 0.0:
        raise InvalidArgumentError("relative error undefined for a zero signal")
    return float(np.linalg.norm(t - e)) / denom


def pearson_correlation(f_true, f_est) -> float:
    t = np.asarray(f_true, dtype=np.float64)
    e = np.asarray(f_est, dtype=np.float64)
    if t.shape != e.shape:
        raise InvalidArgumentError("signals must have matching shapes")
    tc = t - t.mean()
    ec = e - e.mean()
    st = float(np.linalg.norm(tc))
    se = float(np.linalg.norm(ec))
    if st == 0.0 or se == 0.0:
        raise InvalidArgumentError(
            "correlation undefined for a constant signal"
        )
    return float(np.clip(np.dot(tc, ec) / (st * se), -1.0, 1.0))


def make_cluster_data(
    c: int,
    m: int,
    spread: float = 1.0,
    seed: int = 0,
    n_signals: int = 3,
):
    """Synthetic clustered point cloud with slow and fast test signals.

    Returns (points, low_signals, high_signals).  Cluster centers sit on a
    circle sized so a k=10 neighborhood graph keeps the clusters visually
    distinct while boundary points still bridge them (the denoisers require
    a connected graph).  Low-frequency signals are constant per cluster
    with distinct values; high-frequency signals oscillate along each
    cluster's first local coordinate, roughly two periods across the
    cluster, with a fresh phase per signal.
    """
    if c < 1 or m < 1:
        raise InvalidArgumentError("cluster counts must be positive")
    if spread <= 0:
        raise InvalidArgumentError("spread must be positive")
    rng = derive_rng(seed, "cluster-data")
    radius = 4.0 * spread
    angles = 2.0 * np.pi * np.arange(c) / c
    centers = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if c == 1:
        centers = np.zeros((1, 2))
    points = np.concatenate(
        [centers[i] + spread * rng.standard_normal((m, 2)) for i in range(c)]
    )
    n = c * m
    labels = np.repeat(np.arange(c), m)
    base = np.linspace(-1.0, 1.0, c)
    low = np.empty((n_signals, n))
    for s in range(n_signals):
        vals = rng.permutation(base)
        low[s] = vals[labels]
    high = np.empty((n_signals, n))
    local = points - centers[labels]
    omega = np.empty(c)
    for i in range(c):
        r = np.linalg.norm(local[labels == i], axis=1)
        diam = 2.0 * float(r.max()) if r.max() > 0 else 1.0
        omega[i] = 4.0 * np.pi / diam
    for s in range(n_signals):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=c)
        high[s] = np.sin(omega[labels] * local[:, 0] + phases[labels])
    return points, low, high


# ---------------------------------------------------------------------------
# Declarative experiment specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSpec:
    """A method name plus a parameter grid (each key maps to a value tuple)."""

    name: str
    grid: tuple[tuple[str, tuple], ...] = ()

    def combinations(self):
        if not self.grid:
            yield {}
            return
        keys = [k for k, _ in self.grid]
        for combo in itertools.product(*[vals for _, vals in self.grid]):
            yield dict(zip(keys, combo))


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    seed: int
    repeats: int
    graph: tuple[tuple[str, str], ...]
    signal: tuple[tuple[str, str], ...]
    noise_kind: str
    noise_levels: tuple[float, ...]
    noise_opts: tuple[tuple[str, float], ...]
    methods: tuple[MethodSpec, ...]
    metrics: tuple[str, ...]
    benchmark: tuple[tuple[str, str], ...] | None = None

    def graph_opts(self) -> dict:
        return dict(self.graph)

    def signal_opts(self) -> dict:
        return dict(self.signal)


@dataclass(frozen=True)
class TableRow:
    method: str
    param_json: str
    noise_kind: str
    noise_level: float
    metric: str
    value: float
    runtime_s: float
    seed: int


CSV_COLUMNS = (
    "method",
    "param_json",
    "noise_kind",
    "noise_level",
    "metric",
    "value",
    "runtime_s",
    "seed",
)


@dataclass(frozen=True)
class ExperimentTable:
    """The sweep's rows, plus the CCP-vs-PG report when the spec asks for one."""

    rows: tuple[TableRow, ...]
    benchmark: BenchmarkReport | None = None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.rows:
                writer.writerow(
                    [
                        r.method,
                        r.param_json,
                        r.noise_kind,
                        format_float(r.noise_level),
                        r.metric,
                        format_float(r.value),
                        format_float(round(r.runtime_s, 6)),
                        r.seed,
                    ]
                )

    def values(self, method: str, metric: str, level: float | None = None):
        out = []
        for r in self.rows:
            if r.method != method or r.metric != metric:
                continue
            if level is not None and r.noise_level != level:
                continue
            out.append(r.value)
        return out


def _parse_scalar(tok: str):
    for cast in (int, float):
        try:
            return cast(tok)
        except ValueError:
            continue
    return tok


def parse_experiment_spec(path) -> ExperimentSpec:
    """Read a key-value spec with nested sections (see the README schema)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    path = Path(path)
    if not path.exists():
        raise InvalidArgumentError(f"spec file not found: {path}")
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise InvalidArgumentError(f"malformed spec: {exc}") from exc
    for section in ("experiment", "graph", "signal", "noise", "metrics"):
        if section not in parser:
            raise InvalidArgumentError(f"spec is missing the [{section}] section")
    exp = parser["experiment"]
    noise = parser["noise"]
    kind = noise.get("kind", "").strip()
    if kind not in NOISE_KINDS:
        raise InvalidArgumentError(
            f"[noise] kind must be one of {NOISE_KINDS}, got {kind!r}"
        )
    levels = tuple(float(t) for t in noise.get("levels", "0").split())
    if not levels:
        raise InvalidArgumentError("[noise] levels must be nonempty")
    noise_opts = tuple(
        (k, float(v)) for k, v in noise.items() if k not in ("kind", "levels")
    )
    methods = []
    for section in parser.sections():
        if not section.startswith("method."):
            continue
        name = section.split(".", 1)[1]
        if name not in METHOD_REGISTRY:
            raise InvalidArgumentError(
                f"unknown method {name!r} in [{section}]; "
                f"known methods: {sorted(METHOD_REGISTRY)}"
            )
        grid = tuple(
            (key, tuple(_parse_scalar(t) for t in val.split()))
            for key, val in parser[section].items()
        )
        for key, vals in grid:
            if not vals:
                raise InvalidArgumentError(f"[{section}] {key} has an empty grid")
        methods.append(MethodSpec(name=name, grid=grid))
    metrics = tuple(parser["metrics"].get("names", "relative-error").split())
    for metric in metrics:
        if metric not in METRIC_REGISTRY:
            raise InvalidArgumentError(
                f"unknown metric {metric!r}; known: {sorted(METRIC_REGISTRY)}"
            )
    benchmark = (
        tuple(parser["benchmark"].items()) if "benchmark" in parser else None
    )
    return ExperimentSpec(
        name=exp.get("name", path.stem),
        seed=exp.getint("seed", 0),
        repeats=exp.getint("repeats", 1),
        graph=tuple(parser["graph"].items()),
        signal=tuple(parser["signal"].items()),
        noise_kind=kind,
        noise_levels=levels,
        noise_opts=noise_opts,
        methods=tuple(methods),
        metrics=metrics,
        benchmark=benchmark,
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class _Context:
    """Shared immutable state handed to every method call."""

    graph: Graph
    shape: baselines.GridShape | None
    level: float
    noise_kind: str
    _basis: SpectralBasis | None = None

    def basis(self) -> SpectralBasis:
        if self._basis is None:
            self._basis = eigendecompose(self.graph)
        return self._basis


def _method_noisy(noisy, ctx, params):
    return noisy.copy()


def _method_gaussian(noisy, ctx, params):
    tau = params.get("tau", "estimate")
    if tau == "estimate":
        tau = gaussian.estimate_tau(noisy, ctx.graph)
    return gaussian.denoise_gaussian(noisy, ctx.graph, float(tau)).signal


def _method_local_average(noisy, ctx, params):
    return baselines.local_average(noisy, ctx.graph, int(params["t"]))


def _method_magic(noisy, ctx, params):
    return baselines.magic_filter(noisy, ctx.graph, int(params["t"]))


def _method_band(keep):
    def run(noisy, ctx, params):
        k = min(int(params["k"]), ctx.graph.n)
        return baselines.band_filter(noisy, ctx.basis(), k, keep=keep)

    return run


def _method_nuclear(noisy, ctx, params):
    if ctx.shape is None:
        raise InvalidArgumentError("nuclear method needs a grid graph")
    return baselines.nuclear_norm_denoise(noisy, ctx.shape, float(params["tau"]))


def _method_bernoulli(noisy, ctx, params):
    zeta_mode = params.get("zeta", "zeros")
    if zeta_mode != "zeros":
        raise InvalidArgumentError("experiment runner supports zeta = zeros only")
    zeta = VertexSet.from_mask(np.asarray(noisy) == 0.0)
    p = params.get("p")
    if p == "level":
        p = ctx.level
    if p is not None:
        cfg = bernoulli.BernoulliConfig(
            zeta=zeta,
            p=float(p),
            kappa=float(params.get("kappa", 1.0)),
            mode=params.get("mode", "l1"),
        )
    else:
        cfg = bernoulli.BernoulliConfig(
            zeta=zeta, tau=float(params["tau"]), mode=params.get("mode", "l1")
        )
    return bernoulli.bernoulli_denoise(noisy, ctx.graph, cfg).signal


def _method_uniform_ccp(noisy, ctx, params):
    result, _ = ccp_denoise(
        noisy,
        ctx.graph,
        kappa=float(params.get("kappa", 1.0)),
        max_outer=int(params.get("max_outer", 50)),
    )
    return result.signal


def _method_uniform_pg(noisy, ctx, params):
    result, _ = projected_gradient_denoise(
        noisy,
        ctx.graph,
        kappa=float(params.get("kappa", 1.0)),
        step=float(params.get("step", 1.0)),
        max_iter=int(params.get("max_iter", 5000)),
    )
    return result.signal


METHOD_REGISTRY = {
    "noisy": _method_noisy,
    "gaussian": _method_gaussian,
    "local-average": _method_local_average,
    "magic": _method_magic,
    "band-low": _method_band("low"),
    "band-high": _method_band("high"),
    "nuclear": _method_nuclear,
    "bernoulli": _method_bernoulli,
    "uniform-ccp": _method_uniform_ccp,
    "uniform-pg": _method_uniform_pg,
}

METRIC_REGISTRY = {
    "relative-error": relative_error,
    "pearson": pearson_correlation,
}


def _build_graph(spec: ExperimentSpec):
    opts = spec.graph_opts()
    kind = opts.get("kind", "").strip()
    if kind == "grid":
        h, w = int(opts["height"]), int(opts["width"])
        return build_grid_graph(h, w), baselines.GridShape(h, w), None
    if kind == "knn-from-file":
        pts = read_matrix(opts["path"]).values
        return build_knn_graph(pts, int(opts.get("knn", 10))), None, pts
    if kind == "synthetic-clusters":
        c = int(opts.get("clusters", 5))
        m = int(opts.get("points-per-cluster", 200))
        spread = float(opts.get("spread", 1.0))
        points, low, high = make_cluster_data(
            c,
            m,
            spread=spread,
            seed=spec.seed,
            n_signals=int(dict(spec.signal).get("count", 3)),
        )
        graph = build_knn_graph(points, int(opts.get("knn", 10)))
        return graph, None, (points, low, high)
    raise InvalidArgumentError(f"unknown graph kind {kind!r}")


def _build_signals(spec: ExperimentSpec, graph: Graph, cluster_data) -> np.ndarray:
    opts = spec.signal_opts()
    source = opts.get("source", "").strip()
    count = int(opts.get("count", 1))
    if source == "prior-sample":
        basis = eigendecompose(graph)
        kappa = float(opts.get("kappa", 1.0))
        mean = float(opts.get("mean", 0.0))
        rng = derive_rng(spec.seed, "signals")
        signals = np.empty((count, graph.n))
        for j in range(count):
            signals[j] = sample_prior(
                basis,
                kappa,
                mean_coeff=mean * np.sqrt(graph.n),
                rng_seed=rng.integers(0, 2**63 - 1),
            )
        if opts.get("nonneg", "false").lower() in ("true", "1", "yes"):
            for j in range(count):
                lo, hi = signals[j].min(), signals[j].max()
                signals[j] += 0.05 * (hi - lo) - lo
        return signals
    if source in ("cluster-low-freq", "cluster-high-freq"):
        if cluster_data is None:
            raise InvalidArgumentError(
                f"signal source {source!r} requires a synthetic-clusters graph"
            )
        _, low, high = cluster_data
        sig = low if source == "cluster-low-freq" else high
        return sig[:count]
    if source == "file":
        mat = read_matrix(opts["path"]).values
        if mat.shape[0] != graph.n:
            raise InvalidArgumentError(
                f"signal file has {mat.shape[0]} rows, graph has {graph.n} vertices"
            )
        cols = opts.get("columns")
        if cols:
            lo, hi = (int(t) for t in cols.split(":"))
            mat = mat[:, lo:hi]
        return mat.T.copy()
    raise InvalidArgumentError(f"unknown signal source {source!r}")


def _noise_for_cell(spec: ExperimentSpec, level: float) -> dict:
    opts = dict(spec.noise_opts)
    fields = {"fill": opts.get("fill", 0.0), "lo": opts.get("lo", 0.0),
              "hi": opts.get("hi", 1.0)}
    if spec.noise_kind == "gaussian":
        fields["sigma"] = level
    elif spec.noise_kind in ("bernoulli-dropout", "salt-pepper"):
        fields["p"] = level
    return fields


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> ExperimentTable:
    """Run the sweep and return one row per (method, params, level, metric, repeat).

    Method failures become rows with metric ``error`` and a NaN value rather
    than aborting the sweep.  All rows are reproducible from (spec, seed);
    the runtime column is wall-clock and is the one nondeterministic field.
    A ``[benchmark]`` section also runs :func:`ccp_vs_pg_benchmark` on the
    first ground-truth signal over the same graph.
    """
    graph, shape, cluster_data = _build_graph(spec)
    truths = _build_signals(spec, graph, cluster_data)
    basis_holder = _Context(graph=graph, shape=shape, level=0.0, noise_kind=spec.noise_kind)

    cells = []
    for mi, method in enumerate(spec.methods):
        for pi, params in enumerate(method.combinations()):
            for li, level in enumerate(spec.noise_levels):
                for rep in range(spec.repeats):
                    cells.append((mi, pi, li, rep, method, params, level))

    def run_cell(cell):
        mi, pi, li, rep, method, params, level = cell
        ctx = _Context(
            graph=graph,
            shape=shape,
            level=level,
            noise_kind=spec.noise_kind,
            _basis=basis_holder._basis,
        )
        fields = _noise_for_cell(spec, level)
        fn = METHOD_REGISTRY[method.name]
        start = time.perf_counter()
        sums = {metric: 0.0 for metric in spec.metrics}
        try:
            for j, truth in enumerate(truths):
                rng = derive_rng(spec.seed, "cell", method.name, pi, li, rep, j)
                noisy = add_noise(truth, NoiseSpec(kind=spec.noise_kind, **fields), rng=rng)
                estimate = fn(noisy, ctx, params)
                for metric in spec.metrics:
                    sums[metric] += METRIC_REGISTRY[metric](truth, estimate)
        except GraphDenoiseError as exc:
            logger.warning("method %s failed: %s", method.name, exc)
            elapsed = time.perf_counter() - start
            return [
                TableRow(
                    method=method.name,
                    param_json=json.dumps(params, sort_keys=True),
                    noise_kind=spec.noise_kind,
                    noise_level=level,
                    metric="error",
                    value=float("nan"),
                    runtime_s=elapsed,
                    seed=spec.seed,
                )
            ]
        elapsed = time.perf_counter() - start
        return [
            TableRow(
                method=method.name,
                param_json=json.dumps(params, sort_keys=True),
                noise_kind=spec.noise_kind,
                noise_level=level,
                metric=metric,
                value=sums[metric] / max(len(truths), 1),
                runtime_s=elapsed,
                seed=spec.seed,
            )
            for metric in spec.metrics
        ]

    needs_basis = any(m.name in ("band-low", "band-high") for m in spec.methods)
    if needs_basis:
        basis_holder.basis()

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(c) for c in cells]
    rows = tuple(itertools.chain.from_iterable(results))
    benchmark = None
    if spec.benchmark is not None:
        opts = dict(spec.benchmark)
        benchmark = ccp_vs_pg_benchmark(
            truths[0],
            graph,
            kappa=float(opts.get("kappa", 1.0)),
            seed=spec.seed,
            max_outer=int(opts.get("max-outer", 50)),
            pg_step=float(opts["pg-step"]) if "pg-step" in opts else None,
            pg_max_iter=int(opts.get("pg-max-iter", 5000)),
        )
    return ExperimentTable(rows=rows, benchmark=benchmark)


# ---------------------------------------------------------------------------
# CCP vs projected-gradient benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkReport:
    """Loss curves and summary numbers for the two uniform-noise solvers."""

    truth_loss: float
    noisy: np.ndarray
    ccp_losses: np.ndarray
    ccp_final_loss: float
    ccp_outer_iterations: int
    ccp_time_s: float
    pg_losses: np.ndarray
    pg_final_loss: float
    pg_iterations: int
    pg_time_s: float

    def trace_rows(self):
        rows = []
        for name, losses, total in (
            ("ccp", self.ccp_losses, self.ccp_time_s),
            ("projected-gradient", self.pg_losses, self.pg_time_s),
        ):
            steps = max(len(losses) - 1, 1)
            for i, loss in enumerate(losses):
                rows.append((name, i, float(loss), total * i / steps))
        return rows

    def write_traces_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "iteration", "loss", "elapsed_s"])
            for name, i, loss, elapsed in self.trace_rows():
                writer.writerow([name, i, format_float(loss), format_float(round(elapsed, 6))])


def ccp_vs_pg_benchmark(
    truth,
    graph: Graph,
    kappa: float = 1.0,
    seed: int = 0,
    max_outer: int = 50,
    pg_step: float | None = None,
    pg_max_iter: int = 5000,
) -> BenchmarkReport:
    """Corrupt the signal with uniform scaling noise and run both solvers.

    ``pg_step=None`` picks a stable step from the Gershgorin bound on the
    quadratic term's curvature; pass an explicit step to override.
    """
    truth = as_signal(truth, graph.n)
    rng = derive_rng(seed, "ccp-benchmark")
    noisy = add_noise(truth, NoiseSpec(kind="uniform-scale"), rng=rng)
    truth_loss = uniform_loss(truth, graph, kappa)
    ccp_res, ccp_tr = ccp_denoise(noisy, graph, kappa=kappa, max_outer=max_outer)
    if pg_step is None:
        lmax_bound = 2.0 * float(graph.degrees.max())
        pg_step = min(1.0, 1.0 / (2.0 * kappa * lmax_bound))
    pg_res, pg_tr = projected_gradient_denoise(
        noisy, graph, kappa=kappa, step=pg_step, max_iter=pg_max_iter
    )
    return BenchmarkReport(
        truth_loss=truth_loss,
        noisy=noisy,
        ccp_losses=ccp_tr.losses,
        ccp_final_loss=float(ccp_tr.losses[-1]),
        ccp_outer_iterations=ccp_res.iterations,
        ccp_time_s=ccp_tr.wall_time_s,
        pg_losses=pg_tr.losses,
        pg_final_loss=float(np.min(pg_tr.losses)),
        pg_iterations=pg_res.iterations,
        pg_time_s=pg_tr.wall_time_s,
    )
