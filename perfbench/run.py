"""Benchmark of the graphdenoise CLI on four seeded workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Each CLI invocation is a fresh process, run one at a time (a closed loop
with one client) with ``--threads 1``.  With ``--trace 0`` a run repeats
rounds of one set-up probe and one pass over the workload's invocations
for about ``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` each round is one untraced and one traced pass, and the run
reports per-layer metrics from the traced spans.  Every output is checked
by the oracles in ``oracles.py``.  A human-readable report goes to stderr
and to ``.perfbench/results/``; the last line of stdout is the result as
one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

# untraced rounds per run, so every wall-time median is over two passes or more
MIN_ROUNDS = 2
MIN_PROBES = 3
INVOCATION_TIMEOUT_S = 150.0
# one BLAS/OpenMP thread; no bytecode cache, so every invocation imports
# graphdenoise the same way whether or not an earlier run left .pyc files
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONDONTWRITEBYTECODE": "1"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "rel_err": "1",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}

# per-layer times are reported as a percentage of cli.main.s, the traced
# root span, so a layer a workload never enters reads 0 %
SHARE_OF_ROOT = (
    "matrixio.read_matrix", "matrixio.write_matrix",
    "graphs.build_grid_graph", "graphs.build_knn_graph",
    "solvers.cg_solve", "solvers.harmonic_interpolate",
    "gaussian.denoise_gaussian", "gaussian.estimate_tau",
    "bernoulli.lasso_coordinate_descent", "bernoulli.l0_greedy",
    "uniform.ccp_denoise", "uniform.minimize_box_qp",
    "spectral.eigendecompose", "spectral.sample_prior",
    "baselines.local_average", "baselines.magic_filter", "baselines.band_filter",
    "baselines.nuclear_norm_denoise",
    "experiments.run_experiment", "experiments.ccp_vs_pg_benchmark",
)
COUNTS = (
    ("cli.main", "calls"),
    ("solvers.cg_solve", "calls"), ("solvers.cg_solve", "iterations"),
    ("solvers.harmonic_interpolate", "calls"),
    ("solvers.pcg", "calls"), ("solvers.pcg", "iterations"),
    ("bernoulli.lasso_coordinate_descent", "sweeps"),
    ("bernoulli.lasso_coordinate_descent", "unconverged"),
    ("bernoulli.l0_greedy", "moves"),
    ("uniform.ccp_denoise", "outer_iterations"), ("uniform.ccp_denoise", "unconverged"),
    ("uniform.minimize_box_qp", "iterations"),
    ("spectral.eigendecompose", "calls"),
)


def per_layer_units() -> dict:
    units = {"cli.main.s": "s"}
    units.update({f"{layer}.self_pct": "%" for layer in tracing.LAYERS})
    units.update({f"{fn}.pct": "%" for fn in SHARE_OF_ROOT})
    units.update({f"{fn}.{key}": "count" for fn, key in COUNTS})
    units.update({
        "matrixio.bytes": "B",
        "bernoulli.refits_per_move": "1",
        "spectral.eigendecompose.calls_ccp_spec": "count",
        "trace.spans": "count",
        "trace.overhead_pct": "%",
    })
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("GRAPHDENOISE_THREADS", None)
    env.update(PINNED_ENV)
    return env


def invoke(cmd: list[str], log: Path, extra_env: dict | None = None) -> dict:
    """Run one child process to completion; wall time, max RSS and exit code."""
    env = child_env()
    env.update(extra_env or {})
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_kb": usage.ru_maxrss, "exit": proc.returncode}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.work = WORK / f"{name}-{seed}-{os.getpid()}"
        self.ops: list[Op] = []
        self.first: dict[str, tuple[str, list[Op]]] = {}  # fingerprint, checked ops
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.probes: list[float] = []

    def invoke_cli(self, inv, traced: bool, tag: str, argv=None) -> dict:
        argv = argv or inv.argv
        log = self.work / f"{inv.name}-{tag}.log"
        if not traced:
            return invoke([sys.executable, "-m", "graphdenoise.cli", *argv], log)
        spans = self.work / f"{inv.name}-{tag}.spans.json"
        rec = invoke([sys.executable, str(HERE / "tracing.py"), *argv], log,
                     {"PERFBENCH_SPANS": str(spans), "PERFBENCH_INVOCATION": f"{inv.name}-{tag}"})
        if spans.exists():
            with open(spans) as fh:
                rec["functions"] = tracing.summarize(json.load(fh))
            spans.unlink()
        return rec

    def check(self, inv, rec: dict) -> list[Op]:
        """Operations of one invocation; the first pass's output is checked
        by the oracles, later passes must reproduce it exactly."""
        if rec["exit"] != 0:
            return [Op(False, f"{inv.name}: exit code {rec['exit']}")] * inv.ops
        try:
            fingerprint = inv.fingerprint()
            if inv.name not in self.first:
                self.first[inv.name] = (fingerprint, inv.check())
        except (OSError, ValueError) as exc:
            return [Op(False, f"{inv.name}: unreadable output: {exc}")] * inv.ops
        first, ops = self.first[inv.name]
        if fingerprint != first:
            return [Op(False, f"{inv.name}: output differs from the first pass")] * inv.ops
        return ops

    def run_pass(self, plan, traced: bool) -> float:
        """Run every invocation once; returns their summed wall time."""
        tag = f"{'t' if traced else 'u'}{len(self.traced if traced else self.untraced)}"
        recs = {}
        for inv in plan.invocations:
            recs[inv.name] = rec = self.invoke_cli(inv, traced, tag)
            self.ops.extend(self.check(inv, rec))
        (self.traced if traced else self.untraced).append(recs)
        return sum(rec["wall_s"] for rec in recs.values())

    def probe(self, plan_file: Path) -> float:
        """Time set-up once in a fresh process; returns the child's wall time."""
        out = self.work / "probe.out"
        rec = invoke([sys.executable, str(HERE / "setup_probe.py"), str(plan_file)], out)
        if rec["exit"] != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.read_text()}")
        self.probes.append(float(out.read_text().strip().splitlines()[-1]))
        return rec["wall_s"]

    def thread_check(self, plan) -> None:
        """Rerun one invocation with --threads 2; each column must match byte for byte."""
        inv = next(i for i in plan.invocations if i.name == plan.thread_check)
        other = inv.output.with_name(inv.output.stem + "-threads2" + inv.output.suffix)
        argv = [str(other) if a == str(inv.output) else a for a in inv.argv]
        argv[argv.index("--threads") + 1] = "2"
        rec = self.invoke_cli(inv, False, "threads2", argv)
        if rec["exit"] != 0:
            self.ops.extend([Op(False, f"threads 2: exit code {rec['exit']}")] * inv.ops)
            return
        one = [line.split(",") for line in inv.output.read_text().splitlines()]
        two = [line.split(",") for line in other.read_text().splitlines()]
        for c in range(inv.ops):
            same = len(one) == len(two) and all(
                a[c:c + 1] == b[c:c + 1] for a, b in zip(one, two))
            self.ops.append(Op(same, f"threads 2 column {c}: {'identical' if same else 'differs'}"))

    def execute(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            plan = WORKLOADS[self.name](self.seed, self.work)
            plan_file = self.work / "probe.json"
            plan_file.write_text(json.dumps(plan.probe))
            deadline = time.perf_counter() + self.seconds
            min_rounds = 1 if self.trace else MIN_ROUNDS
            while True:
                # the next round is expected to last as long as this one's
                # child processes; output checks are cached after the first
                if self.trace:
                    cost = self.run_pass(plan, traced=False) + self.run_pass(plan, traced=True)
                else:
                    cost = self.probe(plan_file) + self.run_pass(plan, traced=False)
                rounds = len(self.traced if self.trace else self.untraced)
                if rounds >= min_rounds and time.perf_counter() + cost > deadline:
                    break
            while not self.trace and len(self.probes) < MIN_PROBES:
                self.probe(plan_file)
            if plan.thread_check:
                self.thread_check(plan)
            return self.report(plan)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    # -- metrics ----------------------------------------------------------

    def end_to_end(self) -> dict:
        invocations = self.untraced[0].keys()
        wall = sum(statistics.median(p[name]["wall_s"] for p in self.untraced)
                   for name in invocations)
        rel = [e for op in self.ops for e in op.rel_errs]
        failed = sum(not op.ok for op in self.ops)
        return {
            "wall_s": wall,
            "setup_s": statistics.median(self.probes),
            "rel_err": float(np.mean(rel)) if rel else None,  # every operation failed
            "ok_frac": 1.0 - failed / len(self.ops),
            "peak_rss_mb": max(r["rss_kb"] for p in self.untraced for r in p.values()) / 1024.0,
        }

    def per_layer(self) -> dict:
        per_pass = [layer_metrics(recs) for recs in self.traced]
        out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        untraced = statistics.median(sum(r["wall_s"] for r in p.values()) for p in self.untraced)
        traced = statistics.median(sum(r["wall_s"] for r in p.values()) for p in self.traced)
        out["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        return out

    def report(self, plan) -> dict:
        values = self.per_layer() if self.trace else self.end_to_end()
        units = per_layer_units() if self.trace else END_TO_END
        failed = [op for op in self.ops if not op.ok]
        result = {
            "correct": not failed,
            "attempted": len(self.ops),
            "failed": len(failed),
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
        details = {
            "workload": self.name, "seed": self.seed, "trace": int(self.trace),
            "seconds": self.seconds, "machine": machine_info(), "sizes": plan.sizes,
            "passes": len(self.traced if self.trace else self.untraced),
            "setup_probes_s": self.probes,
            "wall_s_per_pass": {inv.name: [p[inv.name]["wall_s"] for p in self.untraced]
                                for inv in plan.invocations},
            "invocations": {inv.name: inv.argv for inv in plan.invocations},
            "failures": sorted({op.detail for op in failed}),
        }
        if self.trace:
            details["functions"] = {
                name: merge_functions(recs) for name, recs in
                ((inv.name, [p[inv.name] for p in self.traced]) for inv in plan.invocations)}
        print_report(result, details)
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        path = WORK / "results" / f"{self.name}-seed{self.seed}-trace{int(self.trace)}.json"
        path.write_text(json.dumps({"result": result, **details}, indent=1))
        return result


def merge_functions(recs: list[dict]) -> dict:
    """Median over passes of each function's calls, seconds and counts."""
    funcs = [r.get("functions", {}) for r in recs]
    names = sorted(set().union(*funcs))
    return {name: {key: statistics.median(f.get(name, {}).get(key, 0) for f in funcs)
                   for key in sorted(set().union(*(f.get(name, {}) for f in funcs)))}
            for name in names}


def layer_metrics(recs: dict) -> dict:
    """Per-layer metrics of one traced pass (a dict of invocation records)."""
    total: dict[str, dict] = {}
    for rec in recs.values():
        for name, entry in rec.get("functions", {}).items():
            agg = total.setdefault(name, {})
            for key, value in entry.items():
                agg[key] = agg.get(key, 0) + value

    def get(fn, key):
        return total.get(fn, {}).get(key, 0)

    root = get("cli.main", "s")
    out = {"cli.main.s": root}
    for layer in tracing.LAYERS:
        busy = sum(e["self_s"] for n, e in total.items() if n.split(".")[0] == layer)
        out[f"{layer}.self_pct"] = 100.0 * busy / root
    out.update({f"{fn}.pct": 100.0 * get(fn, "s") / root for fn in SHARE_OF_ROOT})
    out.update({f"{fn}.{key}": get(fn, key) for fn, key in COUNTS})
    moves = get("bernoulli.l0_greedy", "moves")
    ccp_spec = recs.get("ccp_benchmark", {}).get("functions", {})
    out.update({
        "matrixio.bytes": get("matrixio.read_matrix", "bytes") + get("matrixio.write_matrix", "bytes"),
        "bernoulli.refits_per_move": get("solvers.pcg", "calls") / moves if moves else 0.0,
        "spectral.eigendecompose.calls_ccp_spec":
            ccp_spec.get("spectral.eigendecompose", {}).get("calls", 0),
        "trace.spans": sum(e["calls"] for e in total.values()),
    })
    return out


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "pinned_env": PINNED_ENV,
        "cli_threads": 1,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")]
        info["cpu_model"] = models[0] if models else info["cpu_model"]
    except OSError:
        pass
    caches = {"LEVEL2_CACHE_SIZE": "l2_bytes", "LEVEL3_CACHE_SIZE": "l3_bytes"}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
        for line in conf.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in caches:
                info[caches[parts[0]]] = int(parts[1])
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return info


def print_report(result: dict, details: dict) -> None:
    err = sys.stderr
    print(f"== {details['workload']} seed={details['seed']} trace={details['trace']} "
          f"passes={details['passes']} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}", file=err)
    print(f"   machine: {json.dumps(details['machine'])}", file=err)
    print(f"   sizes: {json.dumps(details['sizes'])}", file=err)
    for name, m in result["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {name:45s} {value:>14s} {m['unit']}", file=err)
    if details["trace"]:
        print(f"   {'function':45s} {'calls':>8s} {'s':>9s} {'self_s':>9s}  counts", file=err)
        for inv, funcs in details["functions"].items():
            print(f"   [{inv}]", file=err)
            for fn, e in funcs.items():
                extra = {k: v for k, v in e.items() if k not in ("calls", "s", "self_s")}
                print(f"   {fn:45s} {e['calls']:8.0f} {e['s']:9.4f} {e['self_s']:9.4f}  "
                      f"{json.dumps(extra) if extra else ''}", file=err)
    for detail in details["failures"]:
        print(f"   FAILED: {detail}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphdenoise" / "cli.py").is_file():
        print(f"perfbench: no graphdenoise sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
        print(json.dumps(result))
        return 0
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = Run(name, args.seed, args.seconds, trace).execute()
            print(json.dumps({"workload": name, "trace": int(trace), **result}))
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
