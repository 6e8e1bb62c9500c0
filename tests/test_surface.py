"""Census of the public surface.

A name in a module's ``__all__`` earns its place by use in the package (a
name or attribute reference found in the syntax tree of a module; the
re-exports in ``__init__`` do not count) or by being named in the README's
"Reference oracles" section.  Tests alone do not keep a name, and neither
does a mention elsewhere in the README.  The
public members of an exported class (annotated fields, methods and
properties) are counted too: each is read as an attribute in the package or
named in the README as ``Class.member``.  The options of each ``denoise``
model are counted the same way: the parser and the README's per-model table
must name the same ones.  Every exported function that takes a vertex
signal, right-hand side, linear term, coefficient vector or response is
listed with a call that refuses NaN and inf in it, and the census fails on
one that is not.
"""

import argparse
import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphdenoise import (
    InvalidArgumentError,
    apply_filter,
    band_filter,
    bernoulli_denoise,
    build_grid_graph,
    ccp_denoise,
    ccp_vs_pg_benchmark,
    cg_solve,
    denoise_gaussian,
    dirichlet_energy,
    dirichlet_system,
    eigendecompose,
    gft,
    harmonic_interpolate,
    igft,
    l0_greedy,
    lasso_coordinate_descent,
    local_average,
    magic_filter,
    nuclear_norm_denoise,
    projected_gradient_denoise,
    uniform_loss,
)
from graphdenoise.bernoulli import lasso_kkt_violation
from graphdenoise.cli import build_parser
from graphdenoise.uniform import minimize_box_qp

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphdenoise"
README = (ROOT / "README.md").read_text()
ORACLES = re.search(r"^### Reference oracles\n(.*?)^#", README, re.S | re.M).group(1)
MODULES = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _exported(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _referenced(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


REFERENCES = set().union(
    *(_referenced(tree) for mod, tree in MODULES.items() if mod != "__init__")
)
EXPORTS = [
    (mod, name) for mod, tree in MODULES.items() for name in _exported(tree)
]
ATTRIBUTE_READS = {
    node.attr
    for mod, tree in MODULES.items()
    if mod != "__init__"
    for node in ast.walk(tree)
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
}


def _public_members(cls: ast.ClassDef) -> list[str]:
    """Annotated fields, methods and properties not named with a leading _."""
    names = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        elif isinstance(node, ast.FunctionDef):
            names.append(node.name)
    return [n for n in names if not n.startswith("_")]


MEMBERS = [
    (node.name, member)
    for mod, tree in MODULES.items()
    for node in tree.body
    if isinstance(node, ast.ClassDef) and node.name in _exported(tree)
    for member in _public_members(node)
]


def test_census_finds_the_exports():
    assert len(EXPORTS) > 40


@pytest.mark.parametrize("mod,name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_public_name_is_used_or_documented(mod, name):
    oracle = re.search(rf"`{re.escape(name)}\b", ORACLES) is not None
    assert name in REFERENCES or oracle, (
        f"{mod}.{name} is neither used in the package nor a listed reference oracle"
    )


def test_census_finds_the_members():
    assert len(MEMBERS) > 30


@pytest.mark.parametrize("cls,member", MEMBERS, ids=[f"{c}.{m}" for c, m in MEMBERS])
def test_public_member_is_read_or_documented(cls, member):
    documented = f"`{cls}.{member}`" in README
    assert member in ATTRIBUTE_READS or documented, (
        f"{cls}.{member} is neither read in the package nor named in the README"
    )


def _subcommands(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _readme_option_rows() -> dict[str, set[str]]:
    """The README's `denoise` option table: first cell -> the options it names."""
    rows = re.findall(r"^\| (`[a-z-]+`|every model) \| (.+) \|$", README, re.M)
    return {
        first.strip("`"): set(re.findall(r"`(--[a-z][a-z-]*)`", cell))
        for first, cell in rows
    }


def test_each_denoise_model_takes_the_options_the_readme_lists():
    """The census of settable values: the parser and the README table agree
    on every model's options, so neither can drift from the other."""
    documented = _readme_option_rows()
    shared = documented.pop("every model")
    models = _subcommands(_subcommands(build_parser())["denoise"])
    parsed = {
        name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, sub in models.items()
    }
    assert parsed == {name: opts | shared for name, opts in documented.items()}


# The finite rule: graphs.as_signal refuses a vector with a NaN or an inf
# and names the entry's index, whichever public function it is handed to.
GRID = build_grid_graph(3, 4)
BASIS = eigendecompose(GRID)
SIGNAL = np.linspace(1.0, 2.0, GRID.n)
ZETA = np.arange(GRID.n) % 3 == 1  # no two of these vertices are adjacent
GRAM, LINEAR, ENERGY = dirichlet_system(GRID, SIGNAL, ZETA)
COEFFS = np.zeros(LINEAR.size)
BOX = (SIGNAL, np.full(GRID.n, np.inf))

# (id, function, the parameter the vector goes to, a finite value, the call)
VECTOR_CALLS = [
    ("gaussian", denoise_gaussian, "g_signal", SIGNAL, lambda v: denoise_gaussian(v, GRID, 1.0)),
    ("gaussian-tau-0", denoise_gaussian, "g_signal", SIGNAL,
     lambda v: denoise_gaussian(v, GRID, 0.0)),
    ("bernoulli-l1", bernoulli_denoise, "g_signal", SIGNAL,
     lambda v: bernoulli_denoise(v, GRID, ZETA, 1.0, "l1")),
    ("bernoulli-l0", bernoulli_denoise, "g_signal", SIGNAL,
     lambda v: bernoulli_denoise(v, GRID, ZETA, 1.0, "l0")),
    ("bernoulli-refill", bernoulli_denoise, "g_signal", SIGNAL,
     lambda v: bernoulli_denoise(v, GRID, ZETA, -1.0)),
    ("harmonic", harmonic_interpolate, "obs", SIGNAL[~ZETA],
     lambda v: harmonic_interpolate(GRID, ~ZETA, v)),
    ("ccp", ccp_denoise, "g_signal", SIGNAL, lambda v: ccp_denoise(v, GRID)),
    ("pg", projected_gradient_denoise, "g_signal", SIGNAL,
     lambda v: projected_gradient_denoise(v, GRID)),
    ("uniform-loss", uniform_loss, "f", SIGNAL, lambda v: uniform_loss(v, GRID, 1.0)),
    ("box-qp-linear", minimize_box_qp, "linear", SIGNAL,
     lambda v: minimize_box_qp(GRID, 1.0, v, BOX, SIGNAL)),
    ("box-qp-x0", minimize_box_qp, "x0", SIGNAL,
     lambda v: minimize_box_qp(GRID, 1.0, SIGNAL, BOX, v)),
    ("local-average", local_average, "g_signal", SIGNAL, lambda v: local_average(v, GRID, 2)),
    ("magic", magic_filter, "g_signal", SIGNAL, lambda v: magic_filter(v, GRID, 2)),
    ("band", band_filter, "g_signal", SIGNAL, lambda v: band_filter(v, BASIS, 3)),
    ("nuclear", nuclear_norm_denoise, "g_signal", SIGNAL,
     lambda v: nuclear_norm_denoise(v, GRID, 0.1)),
    ("energy", dirichlet_energy, "f", SIGNAL, lambda v: dirichlet_energy(GRID, v)),
    ("system", dirichlet_system, "f", SIGNAL, lambda v: dirichlet_system(GRID, v, ZETA)),
    ("gft", gft, "f", SIGNAL, lambda v: gft(BASIS, v)),
    ("igft", igft, "coeffs", SIGNAL, lambda v: igft(BASIS, v)),
    ("filter-response", apply_filter, "response", SIGNAL,
     lambda v: apply_filter(BASIS, v, SIGNAL)),
    ("filter-signal", apply_filter, "f", SIGNAL, lambda v: apply_filter(BASIS, SIGNAL, v)),
    ("cg", cg_solve, "b", LINEAR, lambda v: cg_solve(GRAM, v)),
    ("lasso", lasso_coordinate_descent, "linear", LINEAR,
     lambda v: lasso_coordinate_descent(GRAM, v, 1.0)),
    ("l0", l0_greedy, "linear", LINEAR, lambda v: l0_greedy(GRAM, v, 1.0, ENERGY)),
    ("kkt-linear", lasso_kkt_violation, "linear", LINEAR,
     lambda v: lasso_kkt_violation(GRAM, v, 1.0, COEFFS)),
    ("kkt-x", lasso_kkt_violation, "x", COEFFS,
     lambda v: lasso_kkt_violation(GRAM, LINEAR, 1.0, v)),
    ("benchmark", ccp_vs_pg_benchmark, "truth", SIGNAL, lambda v: ccp_vs_pg_benchmark(v, GRID)),
]

# the parameter names that take such a vector
VECTOR_PARAMETERS = {
    "g_signal", "f", "obs", "b", "linear", "x", "x0", "coeffs", "response", "truth",
    "signals", "f_true", "f_est",
}
# outside the rule: the graph-free metrics and noise, and estimate_tau's
# (k, n) rows, which it checks itself
OUTSIDE_THE_RULE = {
    ("estimate_tau", "signals"),
    ("relative_error", "f_true"),
    ("relative_error", "f_est"),
    ("pearson_correlation", "f_true"),
    ("pearson_correlation", "f_est"),
    ("add_noise", "f"),
}


def test_every_vector_parameter_is_under_the_finite_rule():
    found = {
        (node.name, arg.arg)
        for tree in MODULES.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in _exported(tree)
        for arg in node.args.args + node.args.kwonlyargs
        if arg.arg in VECTOR_PARAMETERS
    }
    listed = {(function.__name__, parameter) for _, function, parameter, _, _ in VECTOR_CALLS}
    assert found == listed | OUTSIDE_THE_RULE


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize(
    "value,call", [c[3:] for c in VECTOR_CALLS], ids=[c[0] for c in VECTOR_CALLS]
)
def test_nan_and_inf_are_refused_by_index(value, call, bad):
    """An interior NaN or inf is an InvalidArgumentError naming its index,
    with no warning, where the finite vector is accepted."""
    call(value.copy())
    v = value.copy()
    i = v.size // 2
    v[i] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match=rf"^signal value -?(nan|inf) at index {i} "):
            call(v)


# The tolerance rule: graphs.check_tol refuses a stopping tolerance that is
# not finite and positive, in every exported function that takes one.
# (id, function, the call with tol = t)
TOL_CALLS = [
    ("cg", cg_solve, lambda t: cg_solve(GRAM, LINEAR, tol=t)),
    ("harmonic", harmonic_interpolate,
     lambda t: harmonic_interpolate(GRID, ~ZETA, SIGNAL[~ZETA], tol=t)),
    # the grid's DCT path and tau = 0 run no CG
    ("gaussian", denoise_gaussian, lambda t: denoise_gaussian(SIGNAL, GRID, 1.0, tol=t)),
    ("gaussian-tau-0", denoise_gaussian, lambda t: denoise_gaussian(SIGNAL, GRID, 0.0, tol=t)),
    ("lasso", lasso_coordinate_descent,
     lambda t: lasso_coordinate_descent(GRAM, LINEAR, 1.0, tol=t)),
    ("ccp", ccp_denoise, lambda t: ccp_denoise(SIGNAL, GRID, tol=t)),
    ("pg", projected_gradient_denoise, lambda t: projected_gradient_denoise(SIGNAL, GRID, tol=t)),
    ("box-qp", minimize_box_qp, lambda t: minimize_box_qp(GRID, 1.0, SIGNAL, BOX, SIGNAL, tol=t)),
]


def test_every_tol_parameter_is_under_the_tolerance_rule():
    found = {
        node.name
        for tree in MODULES.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in _exported(tree)
        for arg in node.args.args + node.args.kwonlyargs
        if arg.arg == "tol"
    }
    assert found == {function.__name__ for _, function, _ in TOL_CALLS}


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan], ids=["zero", "negative", "inf", "nan"])
@pytest.mark.parametrize("call", [c[2] for c in TOL_CALLS], ids=[c[0] for c in TOL_CALLS])
def test_tol_must_be_finite_and_positive(call, bad):
    """An infinite tol stopped a solver after one step and reported it
    converged; a NaN or negative one ran it to its cap.  Each is now an
    InvalidArgumentError naming tol, with no warning."""
    call(1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match=r"^tol must be finite and positive"):
            call(bad)
