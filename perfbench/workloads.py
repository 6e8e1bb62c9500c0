"""The benchmark's four workloads: seeded inputs, CLI invocations, oracles.

Each ``make_*`` function writes its inputs into a work directory and
returns a :class:`Plan`.  The CLI sees only those files; the ground truth
and the oracle operators stay in this process.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.fft

import oracles

# pinned copies of the bundled specs, so an edit to specs/ cannot change the workload
SPECS_DIR = Path(__file__).resolve().parent / "specs"
SPEC_NAMES = ("table1", "table3", "table3_high", "table4", "ccp_benchmark")
# the specs rows whose value is averaged into rel_err
SPEC_REL_ERR_METHODS = ("gaussian", "bernoulli", "uniform-ccp")


@dataclass
class Op:
    """One operation: an output column or a spec table."""

    ok: bool
    detail: str
    rel_errs: tuple[float, ...] = ()


@dataclass
class Invocation:
    """One CLI call (the arguments after ``graphdenoise``) and its checks."""

    name: str
    argv: list[str]
    output: Path
    ops: int  # operations the invocation produces
    check: Callable[[], list[Op]]
    fingerprint: Callable[[], str] = None

    def __post_init__(self):
        if self.fingerprint is None:
            self.fingerprint = lambda: _file_digest(self.output)


@dataclass
class Plan:
    invocations: list[Invocation]
    probe: dict  # set-up plan for setup_probe.py
    sizes: dict
    # an invocation rerun with --threads 2 whose output must match byte for byte
    thread_check: str | None = None


def _rng(seed: int, name: str) -> np.random.Generator:
    salt = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, salt])


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_csv(path: Path, values: np.ndarray) -> None:
    np.savetxt(path, values, delimiter=",", fmt="%.17g")


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def grid_prior(rng, height, width, kappa, count) -> np.ndarray:
    """``count`` zero-mean draws from the grid smoothness prior, as columns.

    The grid Laplacian is diagonalised by the 2-D DCT-II, so each nonzero
    frequency gets an independent N(0, 1/(2 kappa lambda)) coefficient.
    """
    lam = (2 - 2 * np.cos(np.pi * np.arange(height) / height))[:, None] + (
        2 - 2 * np.cos(np.pi * np.arange(width) / width)
    )[None, :]
    lam[0, 0] = np.inf  # the mean frequency is pinned to zero
    coeffs = rng.standard_normal((count, height, width)) / np.sqrt(2 * kappa * lam)
    draws = scipy.fft.idctn(coeffs, axes=(1, 2), norm="ortho")
    return draws.reshape(count, height * width).T.copy()


def _positive(signals: np.ndarray, floor: float = 1.0) -> np.ndarray:
    """Shift each column up so its minimum is at least ``floor``."""
    return signals + np.maximum(floor - signals.min(axis=0), 0.0)


def _penalty(p: float, kappa: float) -> float:
    """The dropout model's sparsity weight tau = (log(1 - p) - log p) / kappa."""
    return (math.log(1.0 - p) - math.log(p)) / kappa


def _denoise_argv(model, graph, inp, out, *opts):
    return ["denoise", model, "--graph", *graph, "--input", str(inp), *opts,
            "--output", str(out), "--threads", "1"]


def _column_ops(out_path, truth, check_column) -> list[Op]:
    """Read an output matrix and check each column against its truth."""
    out = _read_csv(out_path)
    if out.shape != truth.shape:
        return [Op(False, f"output shape {out.shape}, expected {truth.shape}")] * truth.shape[1]
    ops = []
    for c in range(truth.shape[1]):
        ok, detail = check_column(c, out[:, c])
        ops.append(Op(ok, detail, (oracles.relative_error(truth[:, c], out[:, c]),)))
    return ops


# ---------------------------------------------------------------------------
# grid-filter: Gaussian denoising and inpainting on a 256x256 image grid
# ---------------------------------------------------------------------------

GRID_FILTER = dict(side=256, columns=4, kappa=0.5, sigma=1.0, mean=20.0, tau=50.0,
                   missing=0.4)


def make_grid_filter(seed: int, work: Path) -> Plan:
    p = GRID_FILTER
    side, k = p["side"], p["columns"]
    rng = _rng(seed, "grid-filter")
    truth = p["mean"] + grid_prior(rng, side, side, p["kappa"], k)
    noisy = truth + p["sigma"] * rng.standard_normal(truth.shape)
    missing = rng.uniform(size=side * side) < p["missing"]
    holes = np.where(missing[:, None], 0.0, truth)
    files = {name: work / f"{name}.csv" for name in ("noisy", "holes", "mask")}
    _write_csv(files["noisy"], noisy)
    _write_csv(files["holes"], holes)
    np.savetxt(files["mask"], missing.astype(int)[:, None], fmt="%d")
    lap = oracles.grid_laplacian(side, side)
    graph = ["grid", f"{side}x{side}"]

    out_tau, out_est, out_fill = (work / f"out-{n}.csv" for n in ("tau", "estimate", "fill"))
    tau = p["tau"]
    invocations = [
        Invocation("gaussian-tau", _denoise_argv("gaussian", graph, files["noisy"], out_tau,
                                                 "--tau", repr(tau)), out_tau, k,
                   lambda: _column_ops(out_tau, truth, lambda c, f: oracles.gaussian_check(
                       lap, noisy[:, c], f, tau))),
        Invocation("gaussian-estimate", _denoise_argv("gaussian", graph, files["noisy"], out_est,
                                                      "--estimate-tau"), out_est, k,
                   lambda: _column_ops(out_est, truth, lambda c, f: oracles.gaussian_check(
                       lap, noisy[:, c], f, oracles.moment_tau(lap, noisy[:, c])))),
        Invocation("interpolate", _denoise_argv("interpolate", graph, files["holes"], out_fill,
                                                "--zeta", str(files["mask"])), out_fill, k,
                   lambda: _column_ops(out_fill, truth, lambda c, f: oracles.harmonic_check(
                       lap, ~missing, holes[:, c], f))),
    ]
    probe = {"read": [str(f) for f in files.values()], "grid": [[side, side]]}
    sizes = {"grid": f"{side}x{side}", "vertices": side * side, "columns": k,
             "noise_sigma": p["sigma"], "prior_kappa": p["kappa"], "tau": tau,
             "missing_fraction": p["missing"]}
    return Plan(invocations, probe, sizes, thread_check="gaussian-tau")


# ---------------------------------------------------------------------------
# knn-dropout: count imputation on a k-NN graph built over the rows
# ---------------------------------------------------------------------------

KNN_DROPOUT = dict(rows=3000, columns=8, knn=10, dropout=0.2, p_lasso=0.2, p_refill=0.6,
                   kappa=1.0)


def make_knn_dropout(seed: int, work: Path) -> Plan:
    p = KNN_DROPOUT
    n, k = p["rows"], p["columns"]
    rng = _rng(seed, "knn-dropout")
    # smooth bumps over a latent unit square: expression-like profiles
    latent = rng.uniform(size=(n, 2))
    centers = rng.uniform(size=(k, 2))
    widths = rng.uniform(0.2, 0.4, size=k)
    d2 = ((latent[:, None, :] - centers[None]) ** 2).sum(axis=2)
    truth = 1.0 + 4.0 * np.exp(-d2 / (2 * widths**2))
    observed = np.where(rng.uniform(size=truth.shape) < p["dropout"], 0.0, truth)
    counts = work / "counts.csv"
    _write_csv(counts, observed)
    lap = oracles.knn_laplacian(observed, p["knn"])
    graph = ["knn", str(p["knn"])]
    kappa = p["kappa"]
    tau = _penalty(p["p_lasso"], kappa)
    out_l1, out_fill = work / "out-lasso.csv", work / "out-refill.csv"
    invocations = [
        Invocation("bernoulli-lasso", _denoise_argv(
            "bernoulli", graph, counts, out_l1, "--p", repr(p["p_lasso"]), "--kappa", repr(kappa),
            "--zeta", "zeros"), out_l1, k,
            lambda: _column_ops(out_l1, truth, lambda c, f: oracles.lasso_check(
                lap, observed[:, c] == 0.0, observed[:, c], f, tau))),
        Invocation("bernoulli-refill", _denoise_argv(
            "bernoulli", graph, counts, out_fill, "--p", repr(p["p_refill"]), "--kappa",
            repr(kappa), "--zeta", "zeros"), out_fill, k,
            lambda: _column_ops(out_fill, truth, lambda c, f: oracles.harmonic_check(
                lap, observed[:, c] != 0.0, observed[:, c], f))),
    ]
    probe = {"read": [str(counts)], "knn": [[str(counts), p["knn"]]]}
    sizes = {"rows": n, "columns": k, "knn": p["knn"], "dropout": p["dropout"],
             "zeta_per_column": [int(v) for v in (observed == 0).sum(axis=0)],
             "p_lasso": p["p_lasso"], "p_refill": p["p_refill"]}
    return Plan(invocations, probe, sizes)


# ---------------------------------------------------------------------------
# grid-descent: the Python-loop optimisers (l0 stepwise search, CCP)
# ---------------------------------------------------------------------------

# per-column |zeta| straddles the l0 search's 64-column small-design cutoff
GRID_DESCENT = dict(l0_side=48, l0_zeros=(48, 80), p=0.1, kappa=1.0,
                    ccp_side=128, ccp_columns=4, mean=5.0, prior_kappa=0.5)


def make_grid_descent(seed: int, work: Path) -> Plan:
    p = GRID_DESCENT
    rng = _rng(seed, "grid-descent")
    side = p["l0_side"]
    zeros = p["l0_zeros"]
    l0_truth = _positive(p["mean"] + grid_prior(rng, side, side, p["prior_kappa"], len(zeros)))
    l0_obs = l0_truth.copy()
    for c, m in enumerate(zeros):
        l0_obs[rng.choice(side * side, size=m, replace=False), c] = 0.0
    csize = p["ccp_side"]
    ccp_truth = _positive(p["mean"] + grid_prior(rng, csize, csize, p["prior_kappa"],
                                                 p["ccp_columns"]))
    ccp_obs = ccp_truth * rng.uniform(size=ccp_truth.shape)
    l0_in, ccp_in = work / "saltpepper.csv", work / "scaled.csv"
    _write_csv(l0_in, l0_obs)
    _write_csv(ccp_in, ccp_obs)
    lap_l0 = oracles.grid_laplacian(side, side)
    lap_ccp = oracles.grid_laplacian(csize, csize)
    kappa = p["kappa"]
    tau = _penalty(p["p"], kappa)
    out_l0, out_ccp = work / "out-l0.csv", work / "out-ccp.csv"
    invocations = [
        Invocation("bernoulli-l0", _denoise_argv(
            "bernoulli", ["grid", f"{side}x{side}"], l0_in, out_l0, "--mode", "l0",
            "--p", repr(p["p"]), "--kappa", repr(kappa), "--zeta", "zeros"), out_l0, len(zeros),
            lambda: _column_ops(out_l0, l0_truth, lambda c, f: oracles.l0_check(
                lap_l0, l0_obs[:, c] == 0.0, l0_obs[:, c], f, tau))),
        Invocation("uniform-ccp", _denoise_argv(
            "uniform", ["grid", f"{csize}x{csize}"], ccp_in, out_ccp, "--kappa", repr(kappa),
            "--seed", str(seed)), out_ccp, p["ccp_columns"],
            lambda: _column_ops(out_ccp, ccp_truth, lambda c, f: oracles.ccp_check(
                lap_ccp, ccp_obs[:, c], f, kappa))),
    ]
    probe = {"read": [str(l0_in), str(ccp_in)], "grid": [[side, side], [csize, csize]]}
    sizes = {"l0_grid": f"{side}x{side}", "l0_zeta_per_column": list(zeros), "p": p["p"],
             "ccp_grid": f"{csize}x{csize}", "ccp_columns": p["ccp_columns"], "kappa": kappa}
    return Plan(invocations, probe, sizes)


# ---------------------------------------------------------------------------
# specs: the paper-reproduction tables through `graphdenoise experiment`
# ---------------------------------------------------------------------------


def expected_rows(spec_path: Path) -> int:
    """Rows of table.csv: methods x parameter combos x levels x repeats x metrics."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(spec_path)
    levels = len(parser["noise"]["levels"].split())
    repeats = int(parser["experiment"].get("repeats", "1"))
    metrics = len(parser["metrics"].get("names", "relative-error").split())
    combos = 0
    for section in parser.sections():
        if section.startswith("method."):
            combos += math.prod(len(v.split()) for v in parser[section].values())
    return combos * levels * repeats * metrics


def _table_rows(out_dir: Path) -> list[dict]:
    with open(out_dir / "table.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _spec_fingerprint(out_dir: Path) -> str:
    """Digest of table.csv without the wall-clock runtime_s column."""
    rows = [{k: v for k, v in r.items() if k != "runtime_s"} for r in _table_rows(out_dir)]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _spec_check(spec_path: Path, out_dir: Path) -> list[Op]:
    rows = _table_rows(out_dir)
    want = expected_rows(spec_path)
    errors = [r for r in rows if r["metric"] == "error"]
    values = [float(r["value"]) for r in rows]
    rel = tuple(float(r["value"]) for r in rows
                if r["metric"] == "relative-error" and r["method"] in SPEC_REL_ERR_METHODS)
    problems = []
    if len(rows) != want:
        problems.append(f"{len(rows)} rows, expected {want}")
    if errors:
        problems.append(f"{len(errors)} error rows")
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite values")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(spec_path)
    if "benchmark" in parser and not (out_dir / "traces.csv").is_file():
        problems.append("traces.csv missing")
    return [Op(not problems, "; ".join(problems) or f"{len(rows)} rows", rel)]


def make_specs(seed: int, work: Path) -> Plan:
    invocations = []
    for name in SPEC_NAMES:
        spec, out = SPECS_DIR / f"{name}.spec", work / name
        invocations.append(Invocation(
            name,
            ["experiment", "--spec", str(spec), "--out", str(out), "--seed", str(seed),
             "--threads", "1"],
            out, 1,
            lambda spec=spec, out=out: _spec_check(spec, out),
            lambda out=out: _spec_fingerprint(out),
        ))
    probe = {"specs": [str(SPECS_DIR / f"{n}.spec") for n in SPEC_NAMES], "seed": seed}
    sizes = {"specs": list(SPEC_NAMES), "rows": {n: expected_rows(SPECS_DIR / f"{n}.spec")
                                                 for n in SPEC_NAMES}}
    return Plan(invocations, probe, sizes)


WORKLOADS = {
    "grid-filter": make_grid_filter,
    "knn-dropout": make_knn_dropout,
    "grid-descent": make_grid_descent,
    "specs": make_specs,
}
