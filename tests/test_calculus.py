import pytest

from cohlogic.calculus import (
    Budgets,
    Derivation,
    EquivalenceVerdict,
    Proved,
    Refuted,
    Unknown,
    _Prover,
    check_derivation,
    check_derivation_reason,
    derivation_to_json,
    entails,
    equivalent,
    find_countermodel,
    prove,
)
from cohlogic.semantics import FiniteModel, enumerate_models, eval_formula
from cohlogic.syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Eq,
    Exists,
    Or,
    Sequent,
    normalize,
    normalize_sequent,
    parse_sequent,
    parse_theory,
)

from test_prover_reference import ReferenceProver, search

PQR = parse_theory(
    "theory pqr\nsig { P/1, Q/1, R/1 }\naxiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
)
PEQ = parse_theory(
    "theory peq\nsig { E/2 }\n"
    "axiom [x,y] E(x,y) |- E(y,x)\n"
    "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n"
)
EMPTY = parse_theory("theory nothing\nsig { }\n")
FREE = parse_theory("theory free\nsig { P/1, Q/1, R/1 }\n")


def test_check_identity_ok():
    d = Derivation("identity", Sequent(1, Atom("P", (1,)), Atom("P", (1,))))
    assert check_derivation(PQR, d)


def test_check_identity_bad():
    d = Derivation("identity", Sequent(1, Atom("P", (1,)), Atom("Q", (1,))))
    assert not check_derivation(PQR, d)
    assert "identity" in check_derivation_reason(PQR, d)


def test_check_hand_built_cut_tree():
    # top |- x1=x1, weakened through a cut with a projection
    refl = Derivation("eq_refl", Sequent(1, TOP, Eq(1, 1)), params=(1,))
    top = Derivation("top_intro", Sequent(1, Atom("P", (1,)), TOP))
    cut = Derivation(
        "cut", Sequent(1, Atom("P", (1,)), Eq(1, 1)), children=(top, refl)
    )
    assert check_derivation(PQR, cut)


def test_check_rejects_wrong_child_count():
    d = Derivation(
        "cut",
        Sequent(1, Atom("P", (1,)), Atom("P", (1,))),
        children=(Derivation("identity", Sequent(1, Atom("P", (1,)), Atom("P", (1,)))),),
    )
    assert not check_derivation(PQR, d)


def test_prove_identity():
    phi = And((Atom("P", (1,)), Atom("Q", (1,))))
    d = prove(FREE, Sequent(1, phi, phi))
    assert d is not None and d.rule == "identity"


def test_prove_pqr_collapsed_axiom():
    s = Sequent(1, And((Atom("P", (1,)), Atom("Q", (1,)))), Atom("R", (1,)))
    d = prove(PQR, s)
    assert d is not None
    assert check_derivation(PQR, d)


def test_prove_distributivity_both_ways():
    p, q, r = Atom("P", (1,)), Atom("Q", (1,)), Atom("R", (1,))
    lhs = Or((And((p, q)), And((p, r))))
    rhs = And((p, Or((q, r))))
    for a, b in ((lhs, rhs), (rhs, lhs)):
        d = prove(FREE, Sequent(1, a, b))
        assert d is not None and check_derivation(FREE, d)


def test_prove_frobenius_both_ways():
    p = Atom("P", (1,))
    e = Atom("E", (1, 2))
    lhs = And((p, Exists(e)))
    rhs = Exists(And((Atom("P", (1,)), e)))
    t = parse_theory("theory t\nsig { P/1, E/2 }\n")
    for a, b in ((lhs, rhs), (rhs, lhs)):
        d = prove(t, Sequent(1, a, b))
        assert d is not None and check_derivation(t, d)


def test_prove_equality_symmetry():
    d = prove(PEQ, Sequent(2, And((Eq(1, 2), Atom("E", (1, 1)))), Atom("E", (2, 1))))
    assert d is not None and check_derivation(PEQ, d)


def test_prove_exists_witness():
    # P(x1) |- exists y. P(y)
    s = Sequent(1, Atom("P", (1,)), Exists(Atom("P", (2,))))
    t = parse_theory("theory t\nsig { P/1 }\n")
    d = prove(t, s)
    assert d is not None and check_derivation(t, d)


def test_prove_transitivity_axiom_use():
    s = Sequent(
        3,
        And((Atom("E", (1, 2)), Atom("E", (2, 3)))),
        Atom("E", (3, 1)),
    )
    d = prove(PEQ, s, Budgets(depth=10))
    assert d is not None and check_derivation(PEQ, d)


def test_countermodel_partial_equivalence():
    s = Sequent(2, Atom("E", (1, 2)), Eq(1, 2))
    out = find_countermodel(PEQ, s, 2)
    assert out is not None
    m, a = out
    assert m.size == 2
    assert eval_formula(m, Atom("E", (1, 2)), a)
    assert a[0] != a[1]


def test_countermodel_absent_for_identity():
    s = Sequent(1, Atom("P", (1,)), Atom("P", (1,)))
    assert find_countermodel(PQR, s, 3) is None


def test_countermodel_empty_model():
    s = Sequent(0, TOP, Exists(Eq(1, 1)))
    out = find_countermodel(EMPTY, s, 2)
    assert out is not None
    assert out[0].size == 0


def test_entails_verdicts():
    assert isinstance(
        entails(PQR, Sequent(1, And((Atom("P", (1,)), Atom("Q", (1,)))), Atom("R", (1,)))),
        Proved,
    )
    assert isinstance(entails(PEQ, Sequent(2, Atom("E", (1, 2)), Eq(1, 2))), Refuted)
    phi = Atom("P", (1,))
    assert isinstance(entails(PQR, Sequent(1, phi, phi)), Proved)


# valid in peq: proved from depth 6 on, in 36 calls at the default budgets
SYMMETRIC_STEP = "[x,y] E(x, x) & (exists z. E(z, y)) |- exists z. exists w. E(y, w)"


def test_unknown_names_the_depth_bound():
    s = parse_sequent(SYMMETRIC_STEP, PEQ.signature)
    assert isinstance(entails(PEQ, s), Proved)
    assert entails(PEQ, s, Budgets(depth=5)) == Unknown(
        "no derivation within depth 5")


def test_unknown_names_the_call_budget():
    s = parse_sequent(SYMMETRIC_STEP, PEQ.signature)
    assert entails(PEQ, s, Budgets(size=30)) == Unknown(
        "call budget of 30 exhausted")


def test_equivalent_normalize():
    phi = And((TOP, Atom("P", (1,))))
    v = equivalent(PQR, phi, normalize(phi), 1)
    assert v.status == "Equivalent"


def test_equivalent_bc_fail_example():
    phi = Atom("E", (1, 2))
    psi = And((Eq(1, 2), Atom("E", (1, 1)), Atom("E", (2, 2))))
    v = equivalent(PEQ, phi, psi, 2)
    assert v.status == "Inequivalent"
    # witnessed by a size-2 countermodel
    wit = v.forward if isinstance(v.forward, Refuted) else v.backward
    assert wit.model.size == 2


def test_equivalent_distributivity():
    p, q, r = Atom("P", (1,)), Atom("Q", (1,)), Atom("R", (1,))
    v = equivalent(PQR, And((p, Or((q, r)))), Or((And((p, q)), And((p, r)))), 1)
    assert v.status == "Equivalent"


def test_proved_never_refuted_small_corpus():
    from cohlogic.syntax import enum_formulas

    fs = enum_formulas(PQR.signature, 1, 1, cap=40)
    pool = enumerate_models(PQR, 3)
    for phi in fs[:12]:
        for psi in fs[:12]:
            v = entails(PQR, Sequent(1, phi, psi), Budgets(model_pool=tuple(pool)))
            if isinstance(v, Proved):
                assert check_derivation(PQR, v.derivation)
                assert find_countermodel(PQR, Sequent(1, phi, psi), 3, pool) is None


def test_determinism():
    s = Sequent(1, And((Atom("P", (1,)), Atom("Q", (1,)))), Atom("R", (1,)))
    assert prove(PQR, s) == prove(PQR, s)


def test_derivation_json():
    s = Sequent(1, Atom("P", (1,)), Atom("P", (1,)))
    obj = derivation_to_json(prove(PQR, s))
    assert obj["rule"] == "identity"
    assert obj["children"] == []


@pytest.mark.parametrize("text", [
    "[x] P(x) & Q(x) |- S(x)",
    "[x] P(x) & R(x) |- S(x) & Q(x)",
    "[x] P(x) & Q(x) & R(x) |- S(x) | P(x)",
    "[x,y] P(x) & P(y) |- S(x) & S(y)",
])
def test_conjunctive_consequent_matches_reference(text):
    """Axioms whose consequent has several conjuncts, some of them already
    in the lhs: the forward step adds the instance exactly when one
    conjunct is new, with the reference's derivation and call count."""
    t = parse_theory(
        "theory conj\nsig { P/1, Q/1, R/1, S/1 }\n"
        "axiom [x] P(x) |- Q(x) & R(x)\n"
        "axiom [x] R(x) & Q(x) |- S(x) & Q(x)\n"
    )
    s = normalize_sequent(parse_sequent(text, t.signature))
    got = search(_Prover(t, Budgets()), s)
    assert got[0] not in (None, "calls")
    assert got == search(ReferenceProver(t, Budgets()), s)
