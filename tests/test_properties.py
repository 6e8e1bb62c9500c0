"""Structural properties of the estimators on random connected graphs,
and the CLI's exit contract on extreme columns."""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from graphdenoise import (
    Graph,
    bernoulli_denoise,
    build_grid_graph,
    cg_solve,
    denoise_gaussian,
    dropout_penalty,
    estimate_tau,
    harmonic_interpolate,
)
from graphdenoise.cli import main
from graphdenoise.matrixio import read_matrix

from conftest import (
    dense_laplacian,
    random_connected_graph,
    shifted_laplacian,
    vertex_mask,
)

GRAPHS = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30))


def _graph(seed, n):
    rng = np.random.default_rng(seed)
    return random_connected_graph(n, int(rng.integers(0, 2 * n)), rng), rng


def _subset(rng, n, size) -> np.ndarray:
    return vertex_mask(n, rng.choice(n, size=size, replace=False))


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
    obs = rng.normal(size=int(known.sum())) * rng.uniform(0.1, 10.0)
    out = harmonic_interpolate(g, known, obs, tol=1e-12).signal
    slack = 1e-8 * (1.0 + np.abs(obs).max())
    assert np.array_equal(out[known], obs)
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
    tau = dropout_penalty(p, 1.0)
    sig = rng.normal(size=n)
    flip = rng.uniform(size=g.edge_w.size) < 0.5
    flipped = Graph.from_edges(
        n,
        np.where(flip, g.edge_b, g.edge_a),
        np.where(flip, g.edge_a, g.edge_b),
        g.edge_w,
    )
    base = bernoulli_denoise(sig, g, zeta, tau, mode).signal
    assert np.array_equal(base, bernoulli_denoise(sig, flipped, zeta, tau, mode).signal)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    height=st.integers(1, 9),
    width=st.integers(1, 9),
    tau=st.one_of(st.floats(0.0, 1e3), st.just(0.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_gaussian_grid_solve_matches_the_dense_solve(height, width, tau, seed):
    """On a grid, 1 x n included, the DCT solve is (I + tau L)^-1 g, keeps
    the mean and reports no iterations."""
    assume(height * width >= 2)
    g = build_grid_graph(height, width)
    rng = np.random.default_rng(seed)
    sig = rng.normal(size=g.n) * rng.uniform(0.1, 10.0) + rng.normal()
    res = denoise_gaussian(sig, g, tau)
    dense = np.linalg.solve(np.eye(g.n) + tau * dense_laplacian(g), sig)
    scale = 1.0 + np.abs(sig).max()
    assert np.abs(res.signal - dense).max() <= 1e-10 * scale
    assert abs(res.signal.mean() - sig.mean()) <= 1e-12 * scale
    assert (res.iterations, res.trace.size, res.converged) == (0, 0, True)


@st.composite
def _scaled_inputs(draw):
    """A random connected weighted graph on 4-30 vertices, a signal whose
    entries have magnitudes in [2^-20, 2^20] and a nonempty known set."""
    g, rng = _graph(draw(GRAPHS["seed"]), draw(st.integers(4, 30)))
    x = rng.choice([-1.0, 1.0], g.n) * np.exp2(rng.uniform(-20.0, 20.0, g.n))
    return g, x, _subset(rng, g.n, int(rng.integers(1, g.n + 1)))


def _path(n):
    return Graph.from_edges(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))


def _ends(n):
    return vertex_mask(n, [0, n - 1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(inputs=_scaled_inputs(), tau=st.floats(1e-3, 1e3), k=st.integers(-900, 900))
# 2^k x is the column of each case: ends 1e200 and -1e200 on a 4-path, ends
# +-1e-161 on a 6-path, and a 4-cycle column near 1e-170 filtered at tau 1
@example(
    inputs=(_path(4), np.ldexp([1e200, 0.0, 0.0, -1e200], -664), _ends(4)),
    tau=1.0,
    k=664,
)
@example(
    inputs=(_path(6), np.ldexp([1e-161, 0, 0, 0, 0, -1e-161], 534), _ends(6)),
    tau=1.0,
    k=-534,
)
@example(
    inputs=(
        Graph.from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], np.ones(4)),
        np.ldexp([5e-171, 1e-170, 0.0, -3e-170], 564),
        _ends(4),
    ),
    tau=1.0,
    k=-564,
)
def test_solves_are_scale_free(inputs, tau, k):
    """Scaling by 2^k is exact, and the solves commute with it bitwise:
    f(2^k x) == 2^k f(x), and the estimated tau does not move; scaling the
    weights by 2^k divides it by 2^k."""
    g, x, known = inputs
    h = max(d for d in range(1, int(np.sqrt(g.n)) + 1) if g.n % d == 0)
    grid = build_grid_graph(h, g.n // h)

    def scale_free(f):
        assert np.array_equal(f(np.ldexp(x, k)), np.ldexp(f(x), k))

    system = shifted_laplacian(g, np.ones(g.n), 1.0)
    scale_free(lambda v: cg_solve(system, v).signal)
    scale_free(lambda v: harmonic_interpolate(g, known, v[known]).signal)
    for graph in (g, grid):  # the CG path and the grid's DCT path
        scale_free(lambda v: denoise_gaussian(v, graph, tau).signal)
    assert estimate_tau(np.ldexp(x, k), g) == estimate_tau(x, g)
    heavy = Graph.from_edges(g.n, g.edge_a, g.edge_b, np.ldexp(g.edge_w, k))
    with np.errstate(over="ignore"):
        assert estimate_tau(x, heavy) == np.ldexp(estimate_tau(x, g), -k)


# zero, the subnormals, the unit and magnitudes whose squares or sums overflow
EXTREMES = [
    v for m in (5e-324, 1e-310, 1.0, 1e155, 1e200, 1e308) for v in (m, -m)
] + [0.0]
MODELS = {
    "uniform": ["uniform"],
    "gaussian-tau": ["gaussian", "--tau", "2"],
    "gaussian-estimate": ["gaussian", "--estimate-tau"],
}


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    model=st.sampled_from(sorted(MODELS)),
    column=st.lists(st.sampled_from(EXTREMES), min_size=2, max_size=6),
)
# each printed a RuntimeWarning, and the first two then wrote the input back
# reported converged or unconverged; all four exit 3
@example(model="uniform", column=[3.0, 1e-310, 2.0])
@example(model="uniform", column=[5e-324, 1.0, 2.0])
@example(model="uniform", column=[1e155, -1e155, 2.0])
@example(model="uniform", column=[1e200, 1.0, 2.0])
def test_denoise_exit_contract_on_extreme_columns(model, column):
    """``denoise`` on a 1 x N grid exits 0, 2 or 3 with no warning, and a
    run that exits 0 writes only finite values."""
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "g.csv"), Path(tmp, "o.csv")
        src.write_text("".join(f"{v!r}\n" for v in column))
        name, *opts = MODELS[model]
        argv = ["denoise", name, "--graph", "grid", f"1x{len(column)}",
                "--input", str(src), "--output", str(out), *opts]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc in (0, 2, 3) and not caught, (rc, err.getvalue())
        if rc == 0:
            assert np.all(np.isfinite(read_matrix(out).values))


# the 4 x 4 column that exited 3 from kappa = 1e110, and a constant column
# that exited 3 at kappa = 1e308
G16 = tuple(np.random.default_rng(0).uniform(0.1, 2.0, 16).tolist())
CONSTANT16 = (1.5,) * 16


@st.composite
def _grid_columns(draw):
    """A column on an h x w grid, up to 5 x 6: signed magnitudes in
    [0.1, 2], about a fifth of them zero, or one signed value throughout."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sign = rng.choice([-1.0, 1.0], h * w)
    if draw(st.integers(0, 4)) == 0:
        return h, w, (float(sign[0] * rng.uniform(0.1, 2.0)),) * (h * w)
    values = sign * rng.uniform(0.1, 2.0, h * w) * (rng.uniform(size=h * w) >= 0.2)
    return h, w, tuple(values.tolist())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_grid_columns(), exponent=st.floats(-300.0, 308.0))
# each exited 3: at 1e110 and 1e200 the box QP's products overflowed, at
# 1e308 kappa * f'Lf of the start did, and on the constant column 2 kappa did
@example(case=(4, 4, G16), exponent=110.0)
@example(case=(4, 4, G16), exponent=200.0)
@example(case=(4, 4, G16), exponent=308.0)
@example(case=(4, 4, CONSTANT16), exponent=308.0)
def test_uniform_exits_0_for_every_kappa(case, exponent):
    """``denoise uniform --kappa 10^e`` exits 0 with no warning for every
    finite positive kappa and writes a finite signal in the box: each
    entry keeps its observed sign and at least its magnitude, zeros stay."""
    h, w, column = case
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "g.csv"), Path(tmp, "o.csv")
        src.write_text("".join(f"{v!r}\n" for v in column))
        argv = ["denoise", "uniform", "--graph", "grid", f"{h}x{w}", "--kappa",
                repr(10.0**exponent), "--input", str(src), "--output", str(out)]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc == 0 and not caught, (rc, err.getvalue())
        g, f = np.array(column), read_matrix(out).values[:, 0]
        assert np.all(np.isfinite(f))
        assert np.all(np.where(g > 0, f >= g, np.where(g < 0, f <= g, f == 0.0)))


# the edge-list tests run on four vertices, whose six possible edges these are
K4_EDGES = [(a, b) for a in range(4) for b in range(a + 1, 4)]
# lines the reader must refuse or skip, and a second copy of an edge
EDGE_FAULTS = st.one_of(
    st.builds("{} {}".format, st.sampled_from([-1, 4]), st.integers(0, 3)),
    st.builds("{0} {0}".format, st.integers(0, 3)),
    st.builds("0 1 {}".format, st.sampled_from(["0", "-1", "inf", "nan", "-inf"])),
    st.sampled_from(["", "   ", "# comment"]),
    st.builds("{0[1]} {0[0]}".format, st.sampled_from(K4_EDGES)),
)


@st.composite
def _edge_files(draw):
    """Distinct edges of K4 in either orientation, weighted 0.5 to 1e308,
    so that disconnected and connected graphs both come up, shuffled with
    at most two lines of ``EDGE_FAULTS``."""
    lines = []
    for a, b in draw(st.lists(st.sampled_from(K4_EDGES), unique=True, max_size=6)):
        if draw(st.booleans()):
            a, b = b, a
        weight = draw(st.sampled_from(["", " 1", " 0.5", " 1e308"]))
        lines.append(f"{a} {b}{weight}{draw(st.sampled_from(['', '  # note']))}")
    return draw(st.permutations(lines + draw(st.lists(EDGE_FAULTS, max_size=2))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=_edge_files())
# each exited 2 without naming the file
@example(lines=["0 1", "2 3"])
@example(lines=["# comment", ""])
def test_edge_list_exit_contract(lines):
    """``denoise`` on a generated edge list exits 0 or 2 with no warning,
    and every exit 2 names the file.  tau = 0 returns the input, so the
    exit is the edge list's alone: under a positive tau, 1e308 weights
    may overflow the solve, which is the contract's numerical failure."""
    with tempfile.TemporaryDirectory() as tmp:
        src, edges, out = Path(tmp, "g.csv"), Path(tmp, "g.edges"), Path(tmp, "o.csv")
        src.write_text("1\n2\n3\n4\n")
        edges.write_text("\n".join(lines))
        argv = ["denoise", "gaussian", "--tau", "0", "--graph", "edge-list", str(edges),
                "--input", str(src), "--output", str(out)]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc in (0, 2) and not caught, (rc, err.getvalue())
        assert rc == 0 or str(edges) in err.getvalue(), err.getvalue()


@st.composite
def _uniform_runs(draw):
    """``denoise uniform`` inputs: one to three columns on a grid up to 6 x 8
    or on a weighted edge list of a random connected graph, signed values
    in [0.1, 2] with about a fifth exactly zero, and kappa in [1e-3, 1e6]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        h, w = draw(st.integers(1, 6)), draw(st.integers(2, 8))
        graph = build_grid_graph(h, w)
        spec = ["grid", f"{h}x{w}"]
    else:
        n = draw(st.integers(2, 40))
        graph = random_connected_graph(n, int(rng.integers(0, 2 * n)), rng)
        spec = None
    k = draw(st.integers(1, 3))
    sign = rng.choice([-1.0, 1.0], (graph.n, k))
    values = sign * rng.uniform(0.1, 2.0, (graph.n, k)) * (rng.uniform(size=(graph.n, k)) >= 0.2)
    return graph, spec, values, 10.0 ** draw(st.floats(-3.0, 6.0))


def _stationarity_excess(graph, g, f, kappa) -> float:
    """The unit-step projected gradient of the loss over max(1, kappa) at f,
    on a scipy Laplacian, over the box QP's stop at f: 1e-8 * a * max(1,
    max 1/|f|) or its round-off floor, plus twice the floor for this
    product's own round-off.  At most 1 at a certified point."""
    import scipy.sparse as sp

    a, b = min(1.0, 1.0 / kappa), min(1.0, kappa)
    ends = np.r_[graph.edge_a, graph.edge_b], np.r_[graph.edge_b, graph.edge_a]
    adj = sp.csr_matrix((np.r_[graph.edge_w, graph.edge_w], ends), shape=(graph.n, graph.n))
    lap = sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj
    lower = np.where(g > 0, g, np.where(g == 0, 0.0, -np.inf))
    upper = np.where(g < 0, g, np.where(g == 0, 0.0, np.inf))
    inv = np.divide(1.0, f, out=np.zeros_like(f), where=f != 0.0)
    grad = 2.0 * b * (lap @ f) + a * inv
    excess = np.max(np.abs(f - np.clip(f - grad, lower, upper)))
    rows = np.diff(sp.csr_matrix(lap).indptr).max()
    floor = (rows + 2) * np.finfo(float).eps / 2 * 2.0 * b * 2.0 * lap.diagonal().max()
    floor *= np.max(np.abs(f))
    return excess / (max(1e-8 * a * max(1.0, np.max(np.abs(inv))), floor) + 2.0 * floor)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run=_uniform_runs())
def test_uniform_converged_columns_are_stationary(run):
    """``denoise uniform`` exits 0 with no warning and writes each column in
    its box, and every column the summary does not count as unconverged is
    a KKT point of the loss, checked apart from the package.  The loss-stall
    stop called columns converged 10-1000x off stationarity."""
    graph, spec, values, kappa = run
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "g.csv"), Path(tmp, "o.csv")
        np.savetxt(src, values, delimiter=",", fmt="%.17g")
        if spec is None:
            edges = Path(tmp, "g.edges")
            np.savetxt(edges, np.c_[graph.edge_a, graph.edge_b, graph.edge_w],
                       fmt=["%d", "%d", "%.17g"])
            spec = ["edge-list", str(edges)]
        argv = ["denoise", "uniform", "--graph", *spec, "--kappa", repr(kappa),
                "--input", str(src), "--output", str(out)]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc == 0 and not caught, (rc, err.getvalue())
        f = read_matrix(out).values.reshape(values.shape)
    g = values
    assert np.all(np.where(g > 0, f >= g, np.where(g < 0, f <= g, f == 0.0)))
    found = re.search(r"unconverged=(\d+)", err.getvalue())
    unconverged = int(found.group(1)) if found else 0
    excess = [_stationarity_excess(graph, g[:, c], f[:, c], kappa) for c in range(g.shape[1])]
    assert sum(e > 1.0 for e in excess) <= unconverged, (excess, err.getvalue())
