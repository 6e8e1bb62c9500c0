"""Structural properties of the estimators on random connected graphs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdenoise import (
    BernoulliConfig,
    Graph,
    VertexSet,
    bernoulli_denoise,
    denoise_gaussian,
    harmonic_interpolate,
)

from conftest import random_connected_graph

GRAPHS = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30))


def _graph(seed, n):
    rng = np.random.default_rng(seed)
    return random_connected_graph(n, int(rng.integers(0, 2 * n)), rng), rng


def _subset(rng, n, size) -> VertexSet:
    return VertexSet(np.sort(rng.choice(n, size=size, replace=False)).astype(np.int64))


@settings(max_examples=60, deadline=None)
@given(**GRAPHS, tau=st.floats(0.0, 1e3))
def test_gaussian_estimate_preserves_the_mean(seed, n, tau):
    g, rng = _graph(seed, n)
    sig = rng.normal(size=n) * rng.uniform(0.1, 10.0) + rng.normal()
    out = denoise_gaussian(sig, g, tau, tol=1e-12).signal
    assert abs(out.mean() - sig.mean()) <= 1e-10 * (1.0 + np.abs(sig).max())


@settings(max_examples=60, deadline=None)
@given(**GRAPHS, data=st.data())
def test_harmonic_interpolation_obeys_the_maximum_principle(seed, n, data):
    g, rng = _graph(seed, n)
    known = _subset(rng, n, data.draw(st.integers(1, n)))
    obs = rng.normal(size=len(known)) * rng.uniform(0.1, 10.0)
    out = harmonic_interpolate(g, known, obs, tol=1e-12).signal
    slack = 1e-8 * (1.0 + np.abs(obs).max())
    assert np.array_equal(out[known.members], obs)
    assert out.min() >= obs.min() - slack
    assert out.max() <= obs.max() + slack


@settings(max_examples=40, deadline=None)
@given(
    **GRAPHS,
    mode=st.sampled_from(["l1", "l0"]),
    p=st.floats(0.05, 0.95),
    data=st.data(),
)
def test_dropout_estimate_is_invariant_to_edge_orientation(seed, n, mode, p, data):
    g, rng = _graph(seed, n)
    # p >= 1/2 refills zeta from its complement, which must be nonempty
    zeta = _subset(rng, n, data.draw(st.integers(0, n - 1)))
    cfg = BernoulliConfig(zeta=zeta, p=p, kappa=1.0, mode=mode)
    sig = rng.normal(size=n)
    flip = rng.uniform(size=g.m) < 0.5
    flipped = Graph.from_edges(
        n,
        [
            (b, a, w) if fl else (a, b, w)
            for a, b, w, fl in zip(g.edge_a, g.edge_b, g.edge_w, flip)
        ],
    )
    base = bernoulli_denoise(sig, g, cfg).signal
    assert np.array_equal(base, bernoulli_denoise(sig, flipped, cfg).signal)
