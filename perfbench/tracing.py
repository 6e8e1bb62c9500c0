"""Span tracing around the public functions of each graphdenoise module.

Run as ``python3 perfbench/tracing.py <graphdenoise CLI arguments>``: this
wraps every public function of the layers below, runs the CLI's ``main``
and, when it returns, writes the spans it kept in memory to the JSON file
named by ``PERFBENCH_SPANS``.  A span is ``[name, start, end, parent,
invocation, counts]``; ``parent`` indexes the enclosing span (-1 for the
root) and ``counts`` holds work counts read from the return value.

:func:`summarize` turns spans into per-function calls, seconds, self
seconds and counts.  A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

LAYERS = ("cli", "matrixio", "graphs", "solvers", "gaussian", "bernoulli", "uniform",
          "spectral", "baselines", "experiments")

# format_float runs once per matrix entry; a span around it would cost more
# than the write it is part of
SKIP = {"matrixio.format_float"}


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# work counts read from return values (and, for matrix files, from the path)
COUNTERS = {
    "matrixio.read_matrix": lambda a, kw, r: {"bytes": _path_bytes(a[0])},
    "matrixio.write_matrix": lambda a, kw, r: {"bytes": _path_bytes(a[0])},
    "solvers.cg_solve": lambda a, kw, r: {"iterations": r.iterations},
    "solvers.pcg": lambda a, kw, r: {"iterations": r[1]},
    "gaussian.denoise_gaussian": lambda a, kw, r: {"iterations": r.iterations},
    "bernoulli.lasso_coordinate_descent": lambda a, kw, r: {
        "sweeps": r.iterations, "unconverged": int(not r.converged),
        "support": len(r.support)},
    "bernoulli.l0_greedy": lambda a, kw, r: {"moves": r.iterations, "support": len(r.support)},
    "uniform.ccp_denoise": lambda a, kw, r: {
        "outer_iterations": r[0].iterations, "unconverged": int(not r[0].converged)},
    "uniform.minimize_box_qp": lambda a, kw, r: {"iterations": r[1]},
}


class Tracer:
    """Records one span per wrapped call; spans stay in memory until dumped."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list = []
        self._local = threading.local()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions wherever graphdenoise binds them.

    Names imported with ``from .x import f`` are rebound too, so calls
    across modules pass through the wrapper.  ``pcg`` stays unwrapped in
    ``solvers``, where it is the inner loop of ``cg_solve`` (whose
    iterations are counted already); its calls from ``bernoulli``, the l0
    refits, are traced as ``solvers.pcg``.
    """
    import graphdenoise

    modules = {layer: importlib.import_module(f"graphdenoise.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for attr in names:
            fn = getattr(mod, attr)
            name = f"{layer}.{attr}"
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in SKIP:
                wrappers[id(fn)] = tracer.wrap(name, fn)
    for mod in (graphdenoise, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and not (mod is modules["solvers"] and attr == "pcg"):
                setattr(mod, attr, wrappers[id(value)])


def _covered(intervals) -> float:
    """Length of the union of [start, end] intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans) -> dict:
    """Per function: calls, s, self_s and summed counts."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out: dict[str, dict] = {}
    for i, (name, start, end, _parent, _inv, counts) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - _covered(children.get(i, ()))
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out


def main(argv) -> int:
    tracer = Tracer(os.environ.get("PERFBENCH_INVOCATION", ""))
    install(tracer)
    from graphdenoise import cli

    try:
        return cli.main(argv)
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
