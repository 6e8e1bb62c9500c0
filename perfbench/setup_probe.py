"""Time graphdenoise's set-up in a fresh process.

Usage: python3 perfbench/setup_probe.py PLAN.json

Set-up is everything before the first denoiser call: importing
graphdenoise, reading the input matrices and building the graphs; for
experiment specs also the spec parse, the cluster data, the dense
eigenbasis and the prior samples.  It is timed through the library's
public functions and printed as seconds, one JSON number on stdout.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time


def spec_setup(gd, path: str, seed: int) -> None:
    """Build what ``graphdenoise experiment`` builds before its first cell."""
    spec = dataclasses.replace(gd.parse_experiment_spec(path), seed=seed)
    g, s = spec.graph_opts(), spec.signal_opts()
    if g["kind"] == "grid":
        graph = gd.build_grid_graph(int(g["height"]), int(g["width"]))
    elif g["kind"] == "synthetic-clusters":
        points, _, _ = gd.make_cluster_data(
            int(g["clusters"]), int(g["points-per-cluster"]), spread=float(g["spread"]),
            seed=seed, n_signals=int(s.get("count", 3)),
        )
        graph = gd.build_knn_graph(points, int(g["knn"]))
    else:
        raise ValueError(f"no set-up recipe for graph kind {g['kind']!r}")
    if s["source"] == "prior-sample":
        basis = gd.eigendecompose(graph)
        rng = gd.experiments.derive_rng(seed, "signals")
        mean = float(s.get("mean", 0.0)) * math.sqrt(graph.n)
        for _ in range(int(s.get("count", 1))):
            gd.sample_prior(basis, float(s.get("kappa", 1.0)), mean_coeff=mean,
                            rng_seed=rng.integers(0, 2**63 - 1))


def main(plan_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    import graphdenoise as gd
    from graphdenoise.matrixio import read_matrix

    matrices = {path: read_matrix(path).values for path in plan.get("read", [])}
    for height, width in plan.get("grid", []):
        gd.build_grid_graph(height, width)
    for path, k in plan.get("knn", []):
        gd.build_knn_graph(matrices[path], k)
    for path in plan.get("specs", []):
        spec_setup(gd, path, plan["seed"])
    print(json.dumps(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1])
