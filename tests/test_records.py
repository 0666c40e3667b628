"""The value records keep the semantics their classes promise, and a fresh
``import cohlogic.cli`` loads none of the modules that generated them.

Frozen records compare field by field, only with their own type, hash on
their fields, refuse assignment and survive pickling and copying.  Mutable
records compare the same way and are unhashable.  A presentation is equal
only to itself.  Theories and presentations can be weakly referenced,
which ``cached_per_owner`` needs.
"""

import copy
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from cohlogic import calculus, internal_logic, semantics, syntax, typespace
from cohlogic.syntax import BOT, TOP, And, Atom, Eq, Exists, Or, Sequent

PQR = "theory pqr\nsig { P/1, Q/1, R/1 }\naxiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
EMPTY = "theory nothing\nsig { }\n"
P1, R12 = Atom("P", (1,)), Atom("R", (1, 2))


def _derivation():
    return calculus.Derivation("id", Sequent(1, P1, P1))


# name -> (a maker of equal, distinct records; a record unequal to them)
FROZEN = {
    "Atom": (lambda: Atom("P", (1,)), Atom("P", (2,))),
    "Eq": (lambda: Eq(1, 2), Eq(1, 3)),
    "Top": (syntax.Top, BOT),
    "And": (lambda: And((P1, R12)), And((R12, P1))),
    "Or": (lambda: Or((P1, R12)), Or((P1, P1))),
    "Exists": (lambda: Exists(R12), Exists(P1)),
    "Signature": (lambda: syntax.Signature("s", (("P", 1),)),
                  syntax.Signature("s", (("P", 2),))),
    "Sequent": (lambda: Sequent(2, P1, R12), Sequent(3, P1, R12)),
    "Theory": (lambda: syntax.parse_theory(PQR), syntax.parse_theory(EMPTY)),
    "Derivation": (_derivation, calculus.Derivation("id", Sequent(1, P1, P1), (1,))),
    "Budgets": (calculus.Budgets, calculus.Budgets(depth=9)),
    "Proved": (lambda: calculus.Proved(_derivation()), calculus.Proved(None)),
    "Refuted": (lambda: calculus.Refuted(semantics.FiniteModel(1, {}), (0,)),
                calculus.Refuted(semantics.FiniteModel(1, {}), (1,))),
    "Unknown": (lambda: calculus.Unknown("size"), calculus.Unknown("depth")),
    "EquivalenceVerdict": (lambda: calculus.EquivalenceVerdict("Unknown", None, None),
                           calculus.EquivalenceVerdict("Equivalent", None, None)),
}


def _approx():
    return typespace.compute_typespace(syntax.parse_theory(EMPTY), N=1, B=2)


def _interpretation():
    return typespace.identity_interpretation(syntax.parse_theory(PQR))


def _partial_map_data():
    g = typespace.identity_interpretation(syntax.parse_theory(EMPTY))
    return typespace.s_of_interpretation(g, _approx(), _approx(), N=1)


_PRES = internal_logic.trivial_presentation(1)  # equal only to itself


# name -> (a maker of equal, distinct records; a field to change)
MUTABLE = {
    "Tally": (calculus.Tally, "unknown"),
    "Interpretation": (_interpretation, "k"),
    "Morphism2Cell": (lambda: typespace.identity_2cell(_interpretation()), "formula"),
    "TypeSpaceApprox": (_approx, "stable"),
    "PartialMapData": (_partial_map_data, "domains"),
    "BetaFamily": (lambda: internal_logic.identity_beta(_PRES), "homs"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_record(name):
    make, other = FROZEN[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b, other}) == 2
    assert a != other and other != a and a != object()
    for field in a._fields:
        value = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, other)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is value
    assert a == b == pickle.loads(pickle.dumps(a)) == copy.deepcopy(a)


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_record(name):
    make, field = MUTABLE[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b and a != object()
    with pytest.raises(TypeError):
        hash(a)
    setattr(a, field, "changed")
    assert a != b
    setattr(a, field, getattr(b, field))
    assert a == b


def test_records_equal_only_their_own_type():
    assert And((P1, R12)) != Or((P1, R12))
    assert TOP != BOT
    assert calculus.Proved("x") != calculus.Unknown("x")
    assert Sequent(2, P1, R12) != (2, P1, R12)
    assert calculus.Tally() != (0, 0, 0, [], None)


def test_presentation_is_equal_only_to_itself():
    f, g = (internal_logic.trivial_presentation(1) for _ in range(2))
    assert f == f and f != g and hash(f) != hash(g)
    assert len({f, g}) == 2


def test_theory_and_presentation_are_weakly_referenced():
    t = syntax.parse_theory(PQR)
    f = internal_logic.trivial_presentation(1)
    assert weakref.ref(t)() is t and weakref.ref(f)() is f


def test_theory_keeps_its_stored_hash():
    t = syntax.parse_theory(PQR)
    assert hash(t) == t._hash == hash((t.name, t.signature, t.axioms))
    assert "_hash" not in repr(t)


def test_pickled_theory_hashes_as_its_twin_under_another_seed():
    """A theory pickled in one interpreter and loaded in another, with other
    string hashing, hashes as an equal theory built there."""
    src = Path(__file__).resolve().parent.parent / "src"
    head = "import pickle, sys; from cohlogic.syntax import parse_theory; "
    dump = head + "sys.stdout.buffer.write(pickle.dumps(parse_theory(sys.argv[1])))"
    load = head + ("t, u = pickle.load(sys.stdin.buffer), parse_theory(sys.argv[1]); "
                   "print(t == u, hash(t) == hash(u), t in {u})")
    out = b""
    for seed, code in (("1", dump), ("2", load)):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", code, PQR], env=env, input=out,
                             capture_output=True, timeout=60, check=True).stdout
    assert out.split() == [b"True"] * 3


def test_budgets_replace_and_scaled():
    b = calculus.Budgets(model_size=2)
    pooled = b.replace(model_pool=(1,))
    assert pooled == calculus.Budgets(model_size=2, model_pool=(1,))
    assert b.model_pool is None
    assert b.scaled(2) == calculus.Budgets(depth=16, size=10000, model_size=2)
    with pytest.raises(TypeError):
        b.replace(width=1)


def test_formulas_keep_slots_and_a_lazy_key():
    node = And((P1, R12))
    assert not hasattr(P1, "__dict__") and not hasattr(node, "__dict__")
    key_slot = syntax._Formula.key
    with pytest.raises(AttributeError):
        key_slot.__get__(node)
    assert node.key == (4, "", (P1.key, R12.key))
    assert key_slot.__get__(node) is node.key
    assert (node.size, node.depth) == (3, 1)


def test_readable_repr():
    assert repr(P1) == "Atom(sym='P', args=(1,))"
    assert repr(Eq(1, 2)) == "Eq(i=1, j=2)"
    assert repr(Exists(And((P1, TOP)))) == (
        "Exists(body=And(parts=(Atom(sym='P', args=(1,)), Top())))")
    assert repr(Sequent(1, TOP, BOT)) == "Sequent(ctx=1, lhs=Top(), rhs=Bot())"
    assert repr(calculus.Budgets()) == (
        "Budgets(depth=8, size=5000, model_size=3, model_pool=None)")
    assert repr(calculus.Tally()) == (
        "Tally(proved=0, refuted=0, unknown=0, failures=[], first_failure=None, "
        "unknowns=[])")


def test_fresh_import_loads_no_code_generation_modules():
    """The records are plain classes: importing the CLI, which imports
    every module, needs none of ``dataclasses`` and what it pulls in."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, cohlogic.cli; print(*(m for m in ('dataclasses', 'inspect',"
            " 'ast', 'dis', 'tokenize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.split() == []
