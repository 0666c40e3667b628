"""Line counts of each module of ``src/cohlogic``: ``wc -l`` and its AST split.

A line is a docstring line if it lies in the string that is the first
statement of a module, class or function; else blank if it holds only
whitespace; else a comment line if it starts with ``#``; else code.

    python tools/src_lines.py [package directory]
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def split(source):
    """The number of lines of each of KINDS in source."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        kind = ("docstring" if number in doc else "blank" if not text
                else "comment" if text.startswith("#") else "code")
        counts[kind] += 1
    return len(lines), counts


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "cohlogic")
    rows = [(path.name, *split(path.read_text()))
            for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(n for _, n, _ in rows),
                 {k: sum(counts[k] for _, _, counts in rows) for k in KINDS}))
    print(f"{'module':<20}{'wc -l':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name, n, counts in rows:
        print(f"{name:<20}{n:>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main(sys.argv)
