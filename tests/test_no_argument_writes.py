"""No function in ``src/cohlogic`` writes an attribute of its argument.

A memo that outlives a call belongs to the ``syntax.cached`` registry, which
``clear_caches`` empties, or to an object's own methods; a function never
hangs state on an object it was handed.  So, for every parameter of every
``def`` other than ``self`` and ``cls``, its body (nested functions included)
may not

- assign, augment or delete an attribute of the parameter;
- read the parameter's ``__dict__``;
- call ``setattr``, ``delattr``, ``object.__setattr__`` or
  ``object.__delattr__`` on the parameter.

Writing into a container that an attribute holds (``args.inputs[k] = v``)
is not an attribute write and is allowed.
"""

import ast
from pathlib import Path

from test_no_dead_code import PACKAGE, _definitions

SETTERS = {"setattr", "delattr"}
OBJECT_SETTERS = {"__setattr__", "__delattr__"}


def _parameters(fn):
    a = fn.args
    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return set(params) - {"self", "cls"}


def _is_setter(func):
    if isinstance(func, ast.Name):
        return func.id in SETTERS
    return (isinstance(func, ast.Attribute) and func.attr in OBJECT_SETTERS
            and isinstance(func.value, ast.Name) and func.value.id == "object")


def argument_writes(source):
    """(function, parameter, what) for each write the module docstring
    forbids, in source order."""
    out = []
    for qual, fn in _definitions(ast.parse(source)):
        if isinstance(fn, ast.ClassDef):
            continue
        params = _parameters(fn)

        def param(node):
            return node.id if isinstance(node, ast.Name) and node.id in params else None

        for stmt in fn.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and param(node.value):
                    if node.attr == "__dict__":
                        out.append((qual, node.value.id, "__dict__"))
                    elif isinstance(node.ctx, (ast.Store, ast.Del)):
                        out.append((qual, node.value.id, node.attr))
                elif (isinstance(node, ast.Call) and _is_setter(node.func)
                      and node.args and param(node.args[0])):
                    out.append((qual, node.args[0].id, ast.unparse(node.func)))
    return out


def test_no_function_writes_an_attribute_of_its_argument():
    found = [f"{path.stem}.{qual}: {name}.{what}"
             for path in sorted(PACKAGE.glob("*.py"))
             for qual, name, what in argument_writes(path.read_text())]
    assert not found, f"functions that write an attribute of an argument: {found}"


def test_every_kind_of_write_is_caught():
    source = '''
def assign(a, self):
    a.x = 1
    self.y = 2
def augment(a):
    a.n -= 1
def delete(a):
    del a.x
def unpack(a, b):
    a.x, b.y = 1, 2
def read_dict(a):
    return a.__dict__.get("x")
def calls(a, b, c, d):
    setattr(a, "x", 1)
    delattr(b, "x")
    object.__setattr__(c, "x", 1)
    object.__delattr__(d, "x")
def nested(a):
    def inner():
        a.x = 1
    return inner
def allowed(a, cls):
    a.table[1] = 2
    b = a
    cls.z = 3
    return a.x
'''
    assert argument_writes(source) == [
        ("assign", "a", "x"),
        ("augment", "a", "n"),
        ("delete", "a", "x"),
        ("unpack", "a", "x"),
        ("unpack", "b", "y"),
        ("read_dict", "a", "__dict__"),
        ("calls", "a", "setattr"),
        ("calls", "b", "delattr"),
        ("calls", "c", "object.__setattr__"),
        ("calls", "d", "object.__delattr__"),
        ("nested", "a", "x"),
    ]
