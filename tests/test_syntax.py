import pytest
from hypothesis import assume, given, strategies as st

from cohlogic.syntax import (
    TOP,
    BOT,
    And,
    Atom,
    Eq,
    Exists,
    Or,
    Sequent,
    Signature,
    SyntaxError_,
    enum_formulas,
    formula_depth,
    formula_size,
    normalize,
    parse_formula,
    parse_theory,
    print_formula,
    print_theory,
    substitute,
)

PQR_SRC = """\
theory pqr
sig { P/1, Q/1, R/1 }
axiom [x,y] P(x) & Q(y) |- R(x) | R(y)
"""

PEQ_SRC = """\
theory peq
sig { E/2 }
axiom [x,y] E(x,y) |- E(y,x)
axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)
"""


def test_parse_pqr():
    t = parse_theory(PQR_SRC)
    assert t.name == "pqr"
    assert t.signature.relations == (("P", 1), ("Q", 1), ("R", 1))
    assert t.axioms == (
        Sequent(2, And((Atom("P", (1,)), Atom("Q", (2,)))),
                Or((Atom("R", (1,)), Atom("R", (2,))))),
    )


def test_parse_partial_equivalence():
    t = parse_theory(PEQ_SRC)
    assert len(t.axioms) == 2
    assert t.axioms[0] == Sequent(2, Atom("E", (1, 2)), Atom("E", (2, 1)))
    assert t.axioms[1].ctx == 3


def test_parse_empty_theory():
    t = parse_theory("theory nothing\nsig { }\n")
    assert t.signature.relations == ()
    assert t.axioms == ()


def test_parse_print_roundtrip():
    for src in (PQR_SRC, PEQ_SRC):
        t = parse_theory(src)
        assert parse_theory(print_theory(t)) == t


def test_parse_exists_and_equality():
    sig = Signature("s", (("P", 1),))
    phi = parse_formula("exists z. P(z) & x = z", ["x"], sig)
    assert phi == Exists(And((Atom("P", (2,)), Eq(1, 2))))


def test_parse_precedence():
    sig = Signature("s", (("P", 1), ("Q", 1), ("R", 1)))
    phi = parse_formula("P(x) & Q(x) | R(x)", ["x"], sig)
    assert phi == Or((And((Atom("P", (1,)), Atom("Q", (1,)))), Atom("R", (1,))))


def test_parse_errors():
    with pytest.raises(SyntaxError_):
        parse_theory("theory t\nsig { P/1 }\naxiom [x] P(x,x) |- true\n")
    with pytest.raises(SyntaxError_):
        parse_theory("theory t\nsig { P/1 }\naxiom [x] S(x) |- true\n")
    with pytest.raises(SyntaxError_):
        parse_theory("theory t\nsig { P/1 }\naxiom [x] P(y) |- true\n")


def test_parse_nesting_limit():
    # parentheses and existentials both count toward the 200 levels
    sig = Signature("s", (("P", 1),))
    parens = "(" * 200 + "P(x)" + ")" * 200
    assert parse_formula(parens, ["x"], sig) == Atom("P", (1,))
    exists = " ".join(f"exists y{i}." for i in range(199)) + " (P(x))"
    phi = parse_formula(exists, ["x"], sig)
    assert formula_depth(phi) == 199
    for text in ("(" + parens + ")", "exists y. " + parens,
                 "(" * 3000 + "P(x)" + ")" * 3000):
        with pytest.raises(SyntaxError_, match="nesting"):
            parse_formula(text, ["x"], sig)


def test_substitute_rename():
    phi = Atom("P", (1,))
    assert substitute(phi, (2,), 2) == Atom("P", (2,))


def test_substitute_identify():
    assert substitute(Eq(1, 2), (1, 1), 1) == Eq(1, 1)


def test_substitute_swap_involution():
    phi = And((Atom("P", (1,)), Atom("Q", (2,))))
    swapped = substitute(phi, (2, 1), 2)
    assert swapped == And((Atom("P", (2,)), Atom("Q", (1,))))
    assert substitute(swapped, (2, 1), 2) == phi


def test_substitute_under_exists():
    phi = Exists(And((Atom("E", (1, 3)), Atom("E", (3, 2)))))
    out = substitute(phi, (2, 1), 2)
    assert out == Exists(And((Atom("E", (2, 3)), Atom("E", (3, 1)))))


def test_normalize_unit_laws():
    p = Atom("P", (1,))
    assert normalize(And((TOP, p))) == p
    assert normalize(Or((p, p))) == p
    assert normalize(And((Or((p, Atom("Q", (1,)))), BOT))) == BOT
    assert normalize(Eq(1, 1)) == TOP
    assert normalize(Eq(2, 1)) == Eq(1, 2)


def test_normalize_flattens_and_sorts():
    p, q, r = Atom("P", (1,)), Atom("Q", (1,)), Atom("R", (1,))
    phi = And((r, And((q, p)), p))
    assert normalize(phi) == And((p, q, r))


_simple = st.sampled_from(
    [TOP, BOT, Atom("P", (1,)), Atom("Q", (2,)), Eq(1, 2), Eq(2, 2)]
)


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        return draw(_simple)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(_simple)
    if kind == 1:
        return And(tuple(draw(st.lists(formulas(depth - 1), min_size=1, max_size=3))))
    return Or(tuple(draw(st.lists(formulas(depth - 1), min_size=1, max_size=3))))


# normalized formulas of every shape: atoms, equalities, existentials and
# flattened meets and joins of up to depth 2 (drawn from two signatures)
_normalized = st.sampled_from(
    enum_formulas(parse_theory(PQR_SRC).signature, 1, 2, cap=200)
    + enum_formulas(parse_theory(PEQ_SRC).signature, 2, 2, cap=200)
)


@given(_normalized, _normalized, st.sampled_from([And, Or]))
def test_combination_size_bound(a, b, cons):
    # the bound that lets formula enumeration prune at its cap: a meet or
    # join of two distinct normalized formulas is one of them, top or
    # bottom, or else no smaller than the bound below (normalize does no
    # absorption), with the depth given
    assume(a != b)
    q = normalize(cons((a, b)))
    if q in (a, b, TOP, BOT):
        return
    sa, sb = formula_size(a), formula_size(b)
    da, db = formula_depth(a), formula_depth(b)
    if isinstance(a, cons) and isinstance(b, cons):
        assert formula_size(q) >= max(sa, sb) + 1
        assert formula_depth(q) == max(da, db)
    elif isinstance(a, cons):
        assert formula_size(q) >= sa + sb
        assert formula_depth(q) == max(da, db + 1)
    elif isinstance(b, cons):
        assert formula_size(q) >= sa + sb
        assert formula_depth(q) == max(da + 1, db)
    else:
        assert formula_size(q) >= sa + sb + 1
        assert formula_depth(q) == max(da, db) + 1


@given(formulas())
def test_normalize_idempotent(phi):
    assert normalize(normalize(phi)) == normalize(phi)


@given(formulas())
def test_substitute_composes(phi):
    f = (2, 1)
    g = (1, 1)
    lhs = substitute(substitute(phi, f, 2), g, 1)
    comp = tuple(g[f[i] - 1] for i in range(2))
    assert normalize(lhs) == normalize(substitute(phi, comp, 1))


def test_print_formula_names():
    phi = Exists(And((Atom("P", (2,)), Eq(1, 2))))
    assert print_formula(phi, ["x1"]) == "exists x2. P(x2) & x1 = x2"


def test_build_lattice_theory_two_chain():
    from cohlogic.lattice import chain

    t = __import__("cohlogic.syntax", fromlist=["build_lattice_theory"]).build_lattice_theory(chain(2))
    assert [s for s, _ in t.signature.relations] == ["R0", "R1"]
    assert t.axioms[0] == Sequent(0, Exists(Eq(1, 1)), BOT)
    assert Sequent(0, Atom("R0", ()), Atom("R1", ())) in t.axioms


def test_enum_formulas_small():
    sig = Signature("s", (("P", 1),))
    fs = enum_formulas(sig, 1, 0)
    assert set(fs) == {TOP, BOT, Atom("P", (1,))}
    fs1 = enum_formulas(sig, 1, 1)
    assert Exists(Atom("P", (2,))) in fs1
    assert all(formula_depth(p) <= 1 for p in fs1)
    # deterministic, simplest first
    assert fs1[0] == TOP or fs1[0] == BOT


def test_equality_is_structural_when_hashes_collide():
    # hash(-1) == hash(-2) in CPython: these formulas differ with one hash
    a, b = Atom("P", (-1,)), Atom("P", (-2,))
    assert hash(a) == hash(b) and a != b
    for cls in (And, Or):
        assert hash(cls((a, TOP))) == hash(cls((b, TOP)))
        assert cls((a, TOP)) != cls((b, TOP))
        assert cls((a, TOP)) == cls((Atom("P", (-1,)), TOP))
    assert hash(Exists(a)) == hash(Exists(b)) and Exists(a) != Exists(b)
    assert Exists(a) == Exists(Atom("P", (-1,)))
