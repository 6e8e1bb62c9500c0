"""Noise generators, metrics, synthetic data, and the experiment runner.

An experiment is a declarative sweep: one graph, one family of ground-truth
signals, a grid of noise levels, and a list of methods with parameter
grids.  The cells run one after another, in spec order.  Each draws its
randomness from its own counter-based stream derived from the root seed and
the cell's coordinates, so its values do not depend on the cells before it.
"""

from __future__ import annotations

import configparser
import csv
import functools
import hashlib
import itertools
import json
import logging
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import baselines, bernoulli, gaussian
from .errors import GraphDenoiseError, InvalidArgumentError, NumericalFailureError
from .errors import overflow_guard
from .graphs import Graph, as_seed, as_signal, build_grid_graph, build_knn_graph, check_kappa
from .graphs import pow2_exponent
from .matrixio import format_float, read_matrix, read_text, select_columns
from .result import DenoiseResult
from .spectral import SpectralBasis, eigendecompose, sample_prior
from .uniform import _scaled_loss, ccp_denoise, projected_gradient_denoise

__all__ = [
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
]

logger = logging.getLogger(__name__)

NOISE_KINDS = ("gaussian", "uniform-scale", "bernoulli-dropout")

_SEED_MASK = (1 << 63) - 1


def derive_rng(root_seed: int, *path) -> np.random.Generator:
    """Independent counter-based stream for a cell of the experiment.

    The stream depends only on the root seed (a nonnegative integer) and
    the path coordinates (strings or nonnegative integers, not bools), never
    on execution order.
    """
    if as_seed(root_seed) is None:
        raise InvalidArgumentError("a stream needs a seed")
    parts = [int(root_seed)]
    for i, p in enumerate(path):
        if isinstance(p, str):
            digest = hashlib.sha256(p.encode("utf-8")).digest()
            parts.append(int.from_bytes(digest[:8], "big") & _SEED_MASK)
        elif isinstance(p, (int, np.integer)) and not isinstance(p, bool) and p >= 0:
            parts.append(int(p))
        else:
            raise InvalidArgumentError(
                f"stream path coordinate {i} must be a string or a nonnegative integer, got {p!r}"
            )
    seq = np.random.SeedSequence(parts)
    return np.random.Generator(np.random.Philox(seq))


def _check_noise_level(kind: str, level: float) -> float:
    """``level`` if it lies in the domain of the noise kind's parameter.

    sigma (``gaussian``) is nonnegative and p (``bernoulli-dropout``) lies
    in [0, 1]; ``uniform-scale`` takes any level.
    """
    if kind == "gaussian" and not level >= 0:
        raise InvalidArgumentError(f"sigma must be nonnegative, got {level:g}")
    if kind == "bernoulli-dropout" and not 0.0 <= level <= 1.0:
        raise InvalidArgumentError(f"p must be in [0, 1], got {level:g}")
    return level


def add_noise(
    f,
    kind: str,
    level: float,
    rng: np.random.Generator,
    fill: float = 0.0,
) -> np.ndarray:
    """Corrupt a signal with draws from ``rng``.

    ``level`` is the standard deviation sigma for ``gaussian`` and the
    dropout probability p for ``bernoulli-dropout``, whose dropped entries
    take ``fill``; ``uniform-scale`` ignores it.
    """
    if kind not in NOISE_KINDS:
        raise InvalidArgumentError(
            f"noise kind must be one of {NOISE_KINDS}, got {kind!r}"
        )
    _check_noise_level(kind, level)
    f = np.asarray(f, dtype=np.float64)
    if kind == "gaussian":
        if level == 0.0:
            return f.copy()
        with overflow_guard("gaussian noise"):
            return f + level * rng.standard_normal(f.shape)
    if kind == "uniform-scale":
        return rng.uniform(0.0, 1.0, size=f.shape) * f
    out = f.copy()
    if level > 0.0:
        out[rng.uniform(size=f.shape) < level] = fill
    return out


def relative_error(f_true, f_est) -> float:
    """||f_true - f_est||_2 / ||f_true||_2.

    Raises :class:`InvalidArgumentError` for an all-zero ``f_true`` and
    :class:`NumericalFailureError` when the ratio overflows.
    """
    t = np.asarray(f_true, dtype=np.float64)
    e = np.asarray(f_est, dtype=np.float64)
    if t.shape != e.shape:
        raise InvalidArgumentError("signals must have matching shapes")
    # f_true on its own scale, since it can sit far below f_est
    kt = pow2_exponent(t)
    k = max(kt, pow2_exponent(e))
    den = float(np.linalg.norm(np.ldexp(t, -kt)))
    if den == 0.0:
        raise InvalidArgumentError("relative error undefined for a zero signal")
    num = float(np.linalg.norm(np.ldexp(t, -k) - np.ldexp(e, -k)))
    try:
        return math.ldexp(num / den, k - kt)
    except OverflowError:
        raise NumericalFailureError("relative error overflows: f_est dwarfs f_true") from None


def pearson_correlation(f_true, f_est) -> float:
    t = np.asarray(f_true, dtype=np.float64)
    e = np.asarray(f_est, dtype=np.float64)
    if t.shape != e.shape:
        raise InvalidArgumentError("signals must have matching shapes")
    t, e = np.ldexp(t, -pow2_exponent(t)), np.ldexp(e, -pow2_exponent(e))
    tc = t - t.mean()
    ec = e - e.mean()
    st = float(np.linalg.norm(tc))
    se = float(np.linalg.norm(ec))
    if st == 0.0 or se == 0.0:
        raise InvalidArgumentError(
            "correlation undefined for a constant signal"
        )
    return float(np.clip(np.dot(tc, ec) / (st * se), -1.0, 1.0))


def _signal_rows(count: int, n: int, what: str) -> np.ndarray:
    """Uninitialised rows for ``count`` signals on n vertices."""
    try:
        return np.empty((count, n))
    except (ValueError, MemoryError):
        raise InvalidArgumentError(
            f"{what} = {count}: {count} signals of {n} values cannot be allocated"
        ) from None


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
    with np.errstate(over="ignore", invalid="ignore"):
        radius = 4.0 * spread
        angles = 2.0 * np.pi * np.arange(c) / c
        centers = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        if c == 1:
            centers = np.zeros((1, 2))
        points = np.concatenate(
            [centers[i] + spread * rng.standard_normal((m, 2)) for i in range(c)]
        )
    if not np.all(np.isfinite(points)):
        raise InvalidArgumentError(f"spread {spread:g} overflows the point coordinates")
    n = c * m
    labels = np.repeat(np.arange(c), m)
    base = np.linspace(-1.0, 1.0, c)
    low = _signal_rows(n_signals, n, "n_signals")
    for s in range(n_signals):
        vals = rng.permutation(base)
        low[s] = vals[labels]
    high = _signal_rows(n_signals, n, "n_signals")
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
    """A method name plus a parameter grid: each key maps to its values as
    written, which the method casts when it reads them."""

    name: str
    grid: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def combinations(self):
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
    methods: tuple[MethodSpec, ...]
    metrics: tuple[str, ...]
    noise_fill: float = 0.0  # the value a dropped bernoulli-dropout entry takes
    benchmark_kappa: float | None = None  # None without a [benchmark] section

    def graph_opts(self) -> _Section:
        return _Section("graph", self.graph)

    def signal_opts(self) -> _Section:
        return _Section("signal", self.signal)


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


CSV_COLUMNS = tuple(f.name for f in fields(TableRow))


@dataclass(frozen=True)
class ExperimentTable:
    """The sweep's rows, plus the CCP-vs-PG report when the spec asks for one."""

    rows: tuple[TableRow, ...]
    benchmark: BenchmarkReport | None = None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
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


def _parse_scalar(tok: str):
    for cast in (int, float):
        try:
            return cast(tok)
        except ValueError:
            continue
    return tok


class _Section(dict):
    """The values of one spec section; it records which keys were looked up."""

    def __init__(self, name: str, items):
        super().__init__(items)
        self.name = name
        self.looked_up: set[str] = set()

    def __contains__(self, key) -> bool:
        self.looked_up.add(key)
        return super().__contains__(key)

    def check_all_read(self) -> None:
        """A key nothing looked up is a typo or a value no code uses."""
        for key in self:
            if key not in self.looked_up:
                raise InvalidArgumentError(f"[{self.name}] {key}: unknown key")


_REQUIRED = object()


def _spec_value(opts: _Section, key: str, cast=str, default=_REQUIRED):
    """``cast(opts[key])``; a missing or unreadable value names its section and key."""
    if key not in opts:
        if default is _REQUIRED:
            raise InvalidArgumentError(f"[{opts.name}] needs {key}")
        return default
    try:
        return cast(opts[key])
    except (TypeError, ValueError) as exc:
        why = f" ({exc})" if isinstance(exc, InvalidArgumentError) else ""
        raise InvalidArgumentError(
            f"[{opts.name}] {key}: cannot read {opts[key]!r}{why}"
        ) from None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise InvalidArgumentError(f"{text.strip()!r} is not finite")
    return value


def _finites(text: str) -> tuple[float, ...]:
    return tuple(_finite(t) for t in text.split())


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(text)
    return states[text.lower()]


def _at_least(opts: _Section, key: str, least: int = 1) -> int:
    """An integer of at least ``least``, by default ``least``."""
    value = _spec_value(opts, key, int, least)
    if value < least:
        raise InvalidArgumentError(f"[{opts.name}] {key} must be at least {least}, got {value}")
    return value


def parse_experiment_spec(path) -> ExperimentSpec:
    """Read a plain-INI spec with nested sections (see the README schema)."""
    # '%' is literal, and no header names the empty section, so [DEFAULT] is
    # an unknown section like any other
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None, default_section=""
    )
    path = Path(path)
    try:
        parser.read_string(read_text(path), source=str(path))
    except configparser.Error as exc:
        raise InvalidArgumentError(f"malformed spec: {exc}") from exc
    required = ("experiment", "graph", "signal", "noise", "metrics")
    for section in required:
        if section not in parser:
            raise InvalidArgumentError(f"spec is missing the [{section}] section")
    for section in parser.sections():
        if section not in (*required, "benchmark") and not section.startswith("method."):
            raise InvalidArgumentError(f"[{section}]: unknown section")
    exp = _Section("experiment", parser["experiment"])
    noise = _Section("noise", parser["noise"])
    kind = _spec_value(noise, "kind", default="").strip()
    if kind not in NOISE_KINDS:
        raise InvalidArgumentError(
            f"[noise] kind must be one of {NOISE_KINDS}, got {kind!r}"
        )
    levels = _spec_value(
        noise,
        "levels",
        lambda text: tuple(_check_noise_level(kind, v) for v in _finites(text)),
        (0.0,),
    )
    if not levels:
        raise InvalidArgumentError("[noise] levels must be nonempty")
    fill = _spec_value(noise, "fill", _finite, 0.0)
    noise.check_all_read()
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
        grid = tuple((key, tuple(val.split())) for key, val in parser[section].items())
        for key, vals in grid:
            if not vals:
                raise InvalidArgumentError(f"[{section}] {key} has an empty grid")
        methods.append(MethodSpec(name=name, grid=grid))
    metric_opts = _Section("metrics", parser["metrics"])
    metrics = tuple(_spec_value(metric_opts, "names", default="relative-error").split())
    metric_opts.check_all_read()
    for metric in metrics:
        if metric not in METRIC_REGISTRY:
            raise InvalidArgumentError(
                f"unknown metric {metric!r}; known: {sorted(METRIC_REGISTRY)}"
            )
    benchmark_kappa = None
    if "benchmark" in parser:
        bench = _Section("benchmark", parser["benchmark"])
        benchmark_kappa = _spec_value(bench, "kappa", _finite, 1.0)
        bench.check_all_read()
    spec = ExperimentSpec(
        name=_spec_value(exp, "name", default=path.stem),
        seed=_at_least(exp, "seed", 0),
        repeats=_at_least(exp, "repeats"),
        graph=tuple(parser["graph"].items()),
        signal=tuple(parser["signal"].items()),
        noise_kind=kind,
        noise_levels=levels,
        methods=tuple(methods),
        metrics=metrics,
        noise_fill=fill,
        benchmark_kappa=benchmark_kappa,
    )
    exp.check_all_read()
    return spec


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


# Each method gets the noisy signal, the sweep's graph, its spectral basis
# (None unless a method or the signal source needs one) and ``param``, a
# reader of its [method.NAME] values: param(key, cast=str, default).


def _method_noisy(noisy, graph, basis, param):
    return noisy.copy()


def _method_gaussian(noisy, graph, basis, param):
    if param("tau", default="estimate") == "estimate":
        tau = gaussian.estimate_tau(noisy, graph)
    else:
        tau = param("tau", float)
    return gaussian.denoise_gaussian(noisy, graph, tau).signal


def _method_local_average(noisy, graph, basis, param):
    return baselines.local_average(noisy, graph, param("t", int))


def _method_magic(noisy, graph, basis, param):
    return baselines.magic_filter(noisy, graph, param("t", int))


def _method_band(keep):
    def run(noisy, graph, basis, param):
        k = min(param("k", int), graph.n)
        return baselines.band_filter(noisy, basis, k, keep=keep)

    return run


def _method_nuclear(noisy, graph, basis, param):
    return baselines.nuclear_norm_denoise(noisy, graph, param("tau", float))


def _method_bernoulli(noisy, graph, basis, param):
    if param("zeta", default="zeros") != "zeros":
        raise InvalidArgumentError("experiment runner supports zeta = zeros only")
    zeta = np.asarray(noisy) == 0.0
    mode = param("mode", default="l1")
    if param("p", default=None) is not None:
        tau = bernoulli.dropout_penalty(param("p", float), param("kappa", float, 1.0))
    elif param("tau", default=None) is not None:
        tau = param("tau", float)
    else:
        raise InvalidArgumentError("[method.bernoulli] needs p or tau")
    return bernoulli.bernoulli_denoise(noisy, graph, zeta, tau, mode).signal


def _method_uniform_ccp(noisy, graph, basis, param):
    result, _ = ccp_denoise(noisy, graph, kappa=param("kappa", float, 1.0))
    return result.signal


def _method_uniform_pg(noisy, graph, basis, param):
    result, _ = projected_gradient_denoise(
        noisy,
        graph,
        kappa=param("kappa", float, 1.0),
        step=param("step", float, None),
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


def _build_graph(spec: ExperimentSpec, opts: _Section, signal: _Section):
    """The sweep's graph and, for synthetic-clusters graphs only, the
    (low, high) cluster signals."""
    value = functools.partial(_spec_value, opts)
    kind = value("kind", default="").strip()
    if kind == "grid":
        return build_grid_graph(value("height", int), value("width", int)), None
    if kind == "knn-from-file":
        pts = read_matrix(value("path")).values
        return build_knn_graph(pts, value("knn", int, 10)), None
    if kind == "synthetic-clusters":
        points, low, high = make_cluster_data(
            value("clusters", int, 5),
            value("points-per-cluster", int, 200),
            spread=value("spread", _finite, 1.0),
            seed=spec.seed,
            n_signals=_at_least(signal, "count"),
        )
        return build_knn_graph(points, value("knn", int, 10)), (low, high)
    raise InvalidArgumentError(f"unknown graph kind {kind!r}")


def _build_signals(
    spec: ExperimentSpec,
    opts: _Section,
    graph: Graph,
    cluster_signals,
    basis: SpectralBasis | None,
) -> np.ndarray:
    value = functools.partial(_spec_value, opts)
    source = value("source", default="").strip()
    if source == "prior-sample":
        count = _at_least(opts, "count")
        kappa = value("kappa", _finite, 1.0)
        mean = value("mean", _finite, 0.0)
        mean_coeff = mean * math.sqrt(graph.n)  # Python floats: inf, no warning
        if not math.isfinite(mean_coeff):
            raise InvalidArgumentError(
                f"[{opts.name}] mean = {mean:g} overflows mean * sqrt(n)"
            )
        rng = derive_rng(spec.seed, "signals")
        signals = _signal_rows(count, graph.n, f"[{opts.name}] count")
        for j in range(count):
            signals[j] = sample_prior(
                basis,
                kappa,
                mean_coeff=mean_coeff,
                rng_seed=rng.integers(0, 2**63 - 1),
            )
        if value("nonneg", _boolean, False):
            for j in range(count):
                lo, hi = signals[j].min(), signals[j].max()
                signals[j] += 0.05 * (hi - lo) - lo
        return signals
    if source in ("cluster-low-freq", "cluster-high-freq"):
        if cluster_signals is None:
            raise InvalidArgumentError(
                f"signal source {source!r} requires a synthetic-clusters graph"
            )
        low, high = cluster_signals
        sig = low if source == "cluster-low-freq" else high
        return sig[: _at_least(opts, "count")]
    if source == "file":
        mat = read_matrix(value("path")).signals_for(graph)
        columns = functools.partial(select_columns, width=mat.shape[1])
        return mat[:, value("columns", columns, slice(None))].T.copy()
    raise InvalidArgumentError(f"unknown signal source {source!r}")


def run_experiment(spec: ExperimentSpec) -> ExperimentTable:
    """Run the sweep: one row per (method, params, level, repeat, metric), in that order.

    Method failures become rows with metric ``error`` and a NaN value rather
    than aborting the sweep.  All rows are reproducible from (spec, seed);
    the runtime column is wall-clock and is the one nondeterministic field.
    A ``[benchmark]`` section also runs :func:`ccp_vs_pg_benchmark` on the
    first ground-truth signal over the same graph.
    """
    # the spec's seed, or the CLI's override of it, is checked before any work
    if as_seed(spec.seed) is None:
        raise InvalidArgumentError("an experiment needs a seed")
    graph_opts, signal_opts = spec.graph_opts(), spec.signal_opts()
    graph, cluster_signals = _build_graph(spec, graph_opts, signal_opts)
    # prior samples and the band methods share one eigendecomposition
    source = _spec_value(signal_opts, "source", default="")
    needs_basis = source.strip() == "prior-sample" or any(
        m.name in ("band-low", "band-high") for m in spec.methods
    )
    basis = eigendecompose(graph) if needs_basis else None
    truths = _build_signals(spec, signal_opts, graph, cluster_signals, basis)
    graph_opts.check_all_read()
    signal_opts.check_all_read()

    rows = []
    for method in spec.methods:
        for pi, params in enumerate(method.combinations()):
            param_json = json.dumps(
                {k: _parse_scalar(v) for k, v in params.items()}, sort_keys=True
            )
            for li, level in enumerate(spec.noise_levels):
                # a value written as "level" is the cell's noise level, for any key
                text = format_float(level)
                items = {k: text if v == "level" else v for k, v in params.items()}
                for rep in range(spec.repeats):
                    method_opts = _Section(f"method.{method.name}", items)
                    param = functools.partial(_spec_value, method_opts)
                    start = time.perf_counter()
                    sums = {metric: 0.0 for metric in spec.metrics}
                    try:
                        for j, truth in enumerate(truths):
                            rng = derive_rng(spec.seed, "cell", method.name, pi, li, rep, j)
                            noisy = add_noise(
                                truth, spec.noise_kind, level, rng, fill=spec.noise_fill
                            )
                            estimate = METHOD_REGISTRY[method.name](noisy, graph, basis, param)
                            for metric in spec.metrics:
                                sums[metric] += METRIC_REGISTRY[metric](truth, estimate)
                        method_opts.check_all_read()
                        values = [(m, sums[m] / len(truths)) for m in spec.metrics]
                    except GraphDenoiseError as exc:
                        logger.warning("method %s failed: %s", method.name, exc)
                        values = [("error", float("nan"))]
                    elapsed = time.perf_counter() - start
                    rows.extend(
                        TableRow(
                            method=method.name,
                            param_json=param_json,
                            noise_kind=spec.noise_kind,
                            noise_level=level,
                            metric=metric,
                            value=value,
                            runtime_s=elapsed,
                            seed=spec.seed,
                        )
                        for metric, value in values
                    )
    benchmark = None
    if spec.benchmark_kappa is not None:
        benchmark = ccp_vs_pg_benchmark(truths[0], graph, spec.benchmark_kappa, seed=spec.seed)
    return ExperimentTable(rows=tuple(rows), benchmark=benchmark)


# ---------------------------------------------------------------------------
# CCP vs projected-gradient benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkReport:
    """The two uniform-noise solvers' results on one corrupted signal.

    Each result's ``trace`` is its loss curve and ``truth_loss`` the loss at
    the uncorrupted signal, both over max(1, kappa).  The CCP returns its
    last iterate, so its final loss is ``ccp.trace[-1]``; projected gradient
    returns its best iterate, whose loss is ``pg.trace.min()``.  The times
    are each solver's ``DescentTrace.wall_time_s``: the seconds elapsed at
    each loss of its trace, the last entry the whole solve's.
    """

    truth_loss: float
    ccp: DenoiseResult
    ccp_time_s: tuple[float, ...]
    pg: DenoiseResult
    pg_time_s: tuple[float, ...]

    def write_traces_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "iteration", "loss", "elapsed_s"])
            for name, losses, times in (
                ("ccp", self.ccp.trace, self.ccp_time_s),
                ("projected-gradient", self.pg.trace, self.pg_time_s),
            ):
                for i, (loss, elapsed) in enumerate(zip(losses, times)):
                    elapsed = round(elapsed, 6)
                    writer.writerow([name, i, format_float(loss), format_float(elapsed)])


def ccp_vs_pg_benchmark(
    truth, graph: Graph, kappa: float = 1.0, seed: int = 0
) -> BenchmarkReport:
    """Corrupt the signal with uniform scaling noise and run both solvers,
    projected gradient at its default stable step."""
    truth = as_signal(truth, graph.n)
    rng = derive_rng(seed, "ccp-benchmark")
    noisy = add_noise(truth, "uniform-scale", 0.0, rng)
    truth_loss = _scaled_loss(truth, graph, *check_kappa(kappa))
    ccp_res, ccp_tr = ccp_denoise(noisy, graph, kappa=kappa)
    pg_res, pg_tr = projected_gradient_denoise(noisy, graph, kappa=kappa)
    return BenchmarkReport(
        truth_loss=truth_loss,
        ccp=ccp_res,
        ccp_time_s=ccp_tr.wall_time_s,
        pg=pg_res,
        pg_time_s=pg_tr.wall_time_s,
    )
