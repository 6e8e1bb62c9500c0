"""Census of the public surface.

A name in a module's ``__all__`` earns its place by use in the package (a
name or attribute reference found in the syntax tree of a module; the
re-exports in ``__init__`` do not count) or by being named in the README,
as API or as a reference oracle.  Tests alone do not keep a name.  The
public members of an exported class (annotated fields, methods and
properties) are counted too: each is read as an attribute in the package or
named in the README as ``Class.member``.  The options of each ``denoise``
model are counted the same way: the parser and the README's per-model table
must name the same ones.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

from graphdenoise.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphdenoise"
README = (ROOT / "README.md").read_text()
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
    documented = re.search(rf"`{re.escape(name)}\b", README) is not None
    assert name in REFERENCES or documented, (
        f"{mod}.{name} is neither used in the package nor named in the README"
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
