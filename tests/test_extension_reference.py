"""Differential test: the bitset evaluator against the set-of-tuples one.

``reference_extension`` is the evaluator as first written: it builds the
frozenset of satisfying tuples bottom-up.  ``semantics.extension`` returns
an int bitset over the tuples in ``itertools.product`` order instead, and
``FiniteModel.ext`` decodes it; the decoded sets must be exactly the
reference sets, and the per-tuple profiles of ``profile_bits`` must be the
ones the reference sets give.  ``find_countermodel`` must return the model and the
lexicographically least bad tuple that the reference set difference gives.
The corpus covers every model of pqr and peq up to size 3, the empty model,
models missing a table, and the induced models of the peq presentation
(0-ary symbols and a 30-symbol signature).
"""

from functools import lru_cache
from itertools import product

import pytest
from test_internal_logic import peq_pres

from cohlogic.calculus import find_countermodel
from cohlogic.internal_logic import induced_models, th_of
from cohlogic.semantics import (
    FiniteModel,
    SemanticsError,
    enumerate_models,
    eval_formula,
    is_model,
    profile_bits,
)
from cohlogic.syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Bot,
    Eq,
    Exists,
    Or,
    Sequent,
    Top,
    enum_formulas,
    parse_theory,
)

PQR = parse_theory(
    "theory pqr\nsig { P/1, Q/1, R/1 }\naxiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
)
PEQ = parse_theory(
    "theory peq\nsig { E/2 }\n"
    "axiom [x,y] E(x,y) |- E(y,x)\n"
    "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n"
)


def reference_extension(m, phi, n, memo):
    key = (phi, n)
    out = memo.get(key)
    if out is not None:
        return out
    if isinstance(phi, Atom):
        table = m.tables.get(phi.sym, frozenset())
        out = frozenset(
            a for a in product(range(m.size), repeat=n)
            if tuple(a[i - 1] for i in phi.args) in table
        )
    elif isinstance(phi, Eq):
        out = frozenset(
            a for a in product(range(m.size), repeat=n)
            if a[phi.i - 1] == a[phi.j - 1]
        )
    elif isinstance(phi, And):
        out = frozenset(product(range(m.size), repeat=n))
        for p in phi.parts:
            out &= reference_extension(m, p, n, memo)
    elif isinstance(phi, Or):
        out = frozenset()
        for p in phi.parts:
            out |= reference_extension(m, p, n, memo)
    elif isinstance(phi, Exists):
        out = frozenset(a[:-1] for a in reference_extension(m, phi.body, n + 1, memo))
    elif isinstance(phi, Top):
        out = frozenset(product(range(m.size), repeat=n))
    elif isinstance(phi, Bot):
        out = frozenset()
    else:
        raise SemanticsError(f"not a formula: {phi!r}")
    memo[key] = out
    return out


def reference_countermodel(pool, s, memos):
    for m, memo in zip(pool, memos):
        bad = (reference_extension(m, s.lhs, s.ctx, memo)
               - reference_extension(m, s.rhs, s.ctx, memo))
        if bad:
            return m, min(bad)
    return None


def E(i, j):
    return Atom("E", (i, j))


# (formula, context) pairs the enumeration does not produce: contexts up to
# 3 with bodies at 4, repeated atom arguments, unnormalized Eq and units
HAND = [
    (TOP, 0), (BOT, 0), (TOP, 3), (BOT, 3),
    (Eq(1, 1), 1), (Eq(2, 1), 2), (Eq(1, 3), 3),
    (E(1, 1), 1), (E(1, 1), 2), (E(2, 2), 2), (E(2, 1), 2), (E(3, 1), 3),
    (Exists(E(1, 1)), 0),
    (Exists(Exists(E(1, 2))), 0),
    (Exists(Exists(Exists(And((E(1, 2), E(2, 3)))))), 0),
    (Exists(And((E(1, 2), E(2, 1)))), 1),
    (Exists(And((E(1, 3), E(3, 2)))), 2),
    (Exists(Or((E(3, 4), E(4, 1), Eq(2, 4)))), 3),
    (Exists(Exists(And((E(1, 4), E(4, 3), E(3, 2))))), 2),
    (Exists(TOP), 2), (Exists(BOT), 1), (And(()), 2), (Or(()), 2),
]
HAND_PQR = [
    (Atom(s, (i,)), n) for s in "PQR" for n in (1, 2, 3) for i in range(1, n + 1)
] + [
    (Exists(And((Atom("P", (1,)), Atom("Q", (1,))))), 0),
    (Exists(And((Atom("P", (2,)), Atom("R", (1,))))), 1),
    (Exists(Or((Atom("Q", (3,)), Eq(1, 3)))), 2),
    (Exists(Exists(And((Atom("P", (3,)), Atom("Q", (4,)), Eq(1, 4))))), 2),
]


@lru_cache(maxsize=None)
def corpus():
    """(name, models, formula/context pairs, theory) per signature."""
    out = []
    for name, t, hand, missing in (
        ("pqr", PQR, HAND_PQR, FiniteModel(2, {"P": {(0,), (1,)}, "Q": {(1,)}})),
        ("peq", PEQ, HAND, FiniteModel(2, {})),
    ):
        models = enumerate_models(t, 3) + [
            FiniteModel(0, {}), FiniteModel(1, {}), missing,
        ]
        forms = [(phi, n) for n in range(3)
                 for phi in enum_formulas(t.signature, n, 2, cap=200)]
        out.append((name, models, forms + hand, t))
    pres = peq_pres()
    tth = th_of(pres)
    forms = [(phi, n) for n in range(3)
             for phi in enum_formulas(tth.signature, n, 2, cap=200)]
    out.append(("induced-peq", list(induced_models(pres)) + [FiniteModel(0, {})],
                forms + [(TOP, 3), (BOT, 0), (Eq(1, 1), 1)], tth))
    return out


def test_corpus_is_broad():
    by_name = {name: (models, forms, t) for name, models, forms, t in corpus()}
    for models, forms, _ in by_name.values():
        assert any(m.size == 0 for m in models)
        assert any(m.size == 3 for m in models)
        assert {n for _, n in forms} >= {0, 1, 2}
    assert len(by_name["pqr"][0]) > 50 and len(by_name["peq"][0]) > 10
    induced, forms, tth = by_name["induced-peq"]
    assert any(ar == 0 for _, ar in tth.signature.relations)
    assert len(induced) > 5 and len(forms) > 500


@pytest.mark.parametrize("which", [0, 1, 2], ids=["pqr", "peq", "induced-peq"])
def test_ext_matches_reference(which):
    _, models, forms, _ = corpus()[which]
    for m in models:
        memo = {}
        fresh = FiniteModel(m.size, m.tables)  # own cache, filled in this order
        for phi, n in forms:
            want = reference_extension(m, phi, n, memo)
            assert fresh.ext(phi, n) == want, (m, phi, n)


@pytest.mark.parametrize("which", [0, 1, 2], ids=["pqr", "peq", "induced-peq"])
def test_eval_formula_matches_reference(which):
    _, models, forms, _ = corpus()[which]
    for m in models[::3]:
        memo = {}
        for phi, n in forms[::7]:
            want = reference_extension(m, phi, n, memo)
            for a in product(range(m.size), repeat=n):
                assert eval_formula(m, phi, a) == (a in want), (m, phi, a)


@pytest.mark.parametrize("which", [0, 1, 2], ids=["pqr", "peq", "induced-peq"])
def test_profile_bits_match_reference(which):
    _, models, forms, _ = corpus()[which]
    for m in models[::2]:
        memo = {}
        for n in range(3):
            arity = [phi for phi, k in forms if k == n]
            exts = [reference_extension(m, phi, n, memo) for phi in arity]
            want = [sum(1 << i for i, e in enumerate(exts) if a in e)
                    for a in product(range(m.size), repeat=n)]
            assert profile_bits(m, arity, n) == want, (m, n)


@pytest.mark.parametrize("which", [0, 1, 2], ids=["pqr", "peq", "induced-peq"])
def test_countermodel_matches_reference(which):
    _, models, forms, t = corpus()[which]
    pool = [m for m in models if is_model(m, t)]
    memos = [{} for _ in pool]
    for n in range(3):
        arity = [phi for phi, k in forms if k == n][::7][:30]
        for lhs in arity:
            for rhs in arity:
                s = Sequent(n, lhs, rhs)
                want = reference_countermodel(pool, s, memos)
                got = find_countermodel(t, s, pool=pool)
                assert got == want, s


def test_is_model_matches_reference():
    for t, sig_models in (
        (PEQ, [FiniteModel(2, {"E": {r for r, b in zip(product(range(2), repeat=2), bits) if b}})
               for bits in product((0, 1), repeat=4)]),
        (PQR, [FiniteModel(2, dict(zip("PQR", ({(v,) for v in range(2) if bits[2 * k + v]}
                                              for k in range(3)))))
               for bits in product((0, 1), repeat=6)]),
    ):
        for m in sig_models:
            memo = {}
            want = all(reference_extension(m, ax.lhs, ax.ctx, memo)
                       <= reference_extension(m, ax.rhs, ax.ctx, memo)
                       for ax in t.axioms)
            assert is_model(m, t) == want, m
