"""No module in ``src/cohlogic`` loops over all relabellings.

Every isomorphism question is answered by comparing canonical keys, which
``FinPoset.canonical`` finds by a pruned search and ``enumerate_models`` by
closing orbits under two generators.  A loop over all n! permutations would
be a second way to answer the same question, so no module imports
``itertools.permutations`` or calls it, under any spelling.  The loops kept
as references live in ``tests/test_iso_reference.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cohlogic"


def _permutation_uses(tree):
    """Line numbers of the imports, names and attributes called
    ``permutations`` in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name == "permutations":
            yield node.lineno


def test_no_module_uses_permutations():
    found = [f"{path.stem}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _permutation_uses(ast.parse(path.read_text()))]
    assert not found, f"permutations used at {found}"

