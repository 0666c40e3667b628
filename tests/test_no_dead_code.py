"""Every function, method and class in ``src/cohlogic`` is used somewhere.

A definition counts as used when its name appears as a name, an attribute
or an imported name anywhere in ``src/`` or ``tests/`` outside the
definition itself (so recursion alone does not count).  Dunder methods are
called by Python, ``cli.main`` is the console-script entry point of
``pyproject.toml`` and ``_Parser.error`` is called by argparse; they are
exempt.

Every parameter of a ``def`` in ``src/cohlogic`` is read in its body;
lambdas are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cohlogic"
EXEMPT = {("cli", "main"), ("cli", "_Parser.error")}


def _used_names(tree):
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def _definitions(tree):
    """(qualified name, node) of every function and class, methods and
    nested functions included."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, defs):
                qual = f"{prefix}{child.name}"
                yield qual, child
                yield from walk(child, f"{qual}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def test_every_definition_is_used():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    used = Counter()
    for path in files:
        used += _used_names(ast.parse(path.read_text()))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, node in _definitions(ast.parse(path.read_text())):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if (path.stem, qual) in EXEMPT:
                continue
            if used[name] - _used_names(node)[name] <= 0:
                unused.append(f"{path.stem}.{qual}")
    assert not unused, f"defined but never used: {unused}"


def _unread_parameters(fn):
    """Names of the parameters of fn that its body never reads."""
    a = fn.args
    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [p for p in params if p not in read]


def test_every_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, node in _definitions(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                unread += [f"{path.stem}.{qual}({p})" for p in _unread_parameters(node)]
    assert not unread, f"parameters never read: {unread}"
