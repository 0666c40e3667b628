"""Raw formula trees are built only at the edges of the program.

Past the parser, every formula is a normal form that ``meet``, ``join``,
``exists`` and ``reindex`` build.  A call to ``substitute``, ``shift``,
``conj``, ``disj`` or to the ``And``, ``Or`` and ``Exists`` classes makes a
raw tree; such calls may appear only in ``syntax`` (the parser,
``build_lattice_theory`` and the raw substitution itself) and in the
derivation checker: ``calculus._check_node`` and the ``make_pattern`` and
``plug`` helpers that build its ``eq_subst`` patterns.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cohlogic"
RAW = {"substitute", "shift", "conj", "disj", "And", "Or", "Exists"}
ALLOWED = {("calculus", "_check_node"), ("calculus", "make_pattern"),
           ("calculus", "plug")}


def _called_name(call):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def raw_calls(module, tree):
    """(module, top-level definition, name, line) of each call that makes a
    raw tree outside the allowed definitions."""
    out = []
    for top in tree.body:
        where = getattr(top, "name", None)
        if (module, where) in ALLOWED:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _called_name(node) in RAW:
                out.append((module, where, _called_name(node), node.lineno))
    return out


def test_raw_trees_only_at_the_edge():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "syntax":
            found += raw_calls(path.stem, ast.parse(path.read_text()))
    assert not found, f"raw formula trees built past the edge: {found}"


def test_the_guard_sees_calls():
    """The scan finds plain and qualified calls, also in nested functions."""
    tree = ast.parse(
        "def f(x):\n"
        "    def g():\n"
        "        return syntax.conj([x])\n"
        "    return And((x,)), g\n"
    )
    assert [c[2] for c in raw_calls("m", tree)] == ["conj", "And"]
