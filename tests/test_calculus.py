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


# ---------------------------------------------------------------------------
# every rejection of the derivation checker, on mutated prover derivations

MIXED = parse_theory("theory mixed\nsig { P/1, Q/1, R/1, E/2 }\n")
CORPUS = [
    (PQR, "[x] P(x) & Q(x) |- R(x)"),
    (MIXED, "[x] P(x) & (Q(x) | R(x)) |- P(x) & Q(x) | P(x) & R(x)"),
    (MIXED, "[x] P(x) & exists y. E(x,y) |- exists y. P(x) & E(x,y)"),
    (MIXED, "[x] exists y. P(x) & E(x,y) |- P(x) & exists y. E(x,y)"),
    (PEQ, "[x,y] x = y & E(x,x) |- E(y,x)"),
    (MIXED, "[x] false |- P(x)"),
    (MIXED, "[x] P(x) |- true"),
    (MIXED, "[x] P(x) |- P(x) | Q(x)"),
    (MIXED, "[x] P(x) | Q(x) |- P(x) | Q(x) | R(x)"),
]
# the prover builds no eq_refl node: this one is checked as the others
EQ_REFL = (MIXED, Derivation("eq_refl", Sequent(1, TOP, Eq(1, 1)), params=(1,)))


def _first(d, rule):
    """The first node of rule in d, in pre-order, or None."""
    if d.rule == rule:
        return d
    for c in d.children:
        found = _first(c, rule)
        if found is not None:
            return found
    return None


def _node(rule):
    """A theory and the first node of rule in its corpus derivations."""
    if rule == "eq_refl":
        return EQ_REFL
    for t, text in CORPUS:
        found = _first(prove(t, parse_sequent(text, t.signature)), rule)
        if found is not None:
            return t, found
    raise LookupError(rule)


def _other(phi):
    return BOT if phi != BOT else TOP


def _with(d, **changes):
    fields = dict(rule=d.rule, concl=d.concl, params=d.params, children=d.children)
    return Derivation(**{**fields, **changes})


def _side(d, **changes):
    """d with its conclusion's sides or context changed."""
    s = d.concl
    return _with(d, concl=Sequent(**{**dict(ctx=s.ctx, lhs=s.lhs, rhs=s.rhs),
                                     **changes}))


def _other_rhs(d):
    return _side(d, rhs=_other(d.concl.rhs))


def _other_lhs(d):
    return _side(d, lhs=_other(d.concl.lhs))


def _identity(n):
    return Derivation("identity", Sequent(n, TOP, TOP))


REJECTIONS = [
    ("cut", lambda d: _with(d, children=(d.children[0], "junk")),
     "child is not a derivation"),
    ("cut", lambda d: _with(d, children=(d.children[0], _identity(d.concl.ctx + 1))),
     "child context mismatch"),
    ("identity", lambda d: _with(d, children=(d,)), "expected 0 children, got 1"),
    ("identity", _other_rhs, "sides differ"),
    ("top_intro", lambda d: _side(d, rhs=d.concl.lhs), "rhs is not top"),
    ("bot_elim", lambda d: _side(d, lhs=TOP), "lhs is not bottom"),
    ("eq_refl", lambda d: _with(d, params=(2,)),
     "not an equality-reflexivity instance"),
    ("eq_subst", lambda d: _with(d, params=(d.concl.ctx + 1, *d.params[1:])),
     "indices out of context"),
    ("eq_subst", _other_rhs, "conclusion does not match the pattern instance"),
    ("axiom", lambda d: _with(d, params=(1,)), "axiom index out of range"),
    ("axiom", _other_rhs, "conclusion is not that axiom"),
    ("subst", lambda d: _with(d, params=(d.params[0] + (1,),)),
     "substitution length mismatch"),
    ("subst", lambda d: _with(d, params=((d.concl.ctx + 1,) + d.params[0][1:],)),
     "substitution image out of context"),
    ("subst", _other_rhs, "conclusion is not the substituted child"),
    ("cut", _other_rhs, "cut formula mismatch"),
    ("conj_proj", _other_rhs, "rhs is not a conjunct of lhs"),
    ("conj_rule", lambda d: _with(d, children=()), "needs at least one child"),
    ("conj_rule", _other_lhs, "children lhs differ from conclusion lhs"),
    ("conj_rule", _other_rhs, "rhs is not the conjunction of children rhs"),
    ("disj_inj", _other_lhs, "lhs is not a disjunct of rhs"),
    ("disj_rule", lambda d: _with(d, children=()), "needs at least one child"),
    ("disj_rule", _other_rhs, "children rhs differ from conclusion rhs"),
    ("disj_rule", _other_lhs, "lhs is not the disjunction of children lhs"),
    ("exists_up", lambda d: _with(d, children=(_identity(d.concl.ctx),)),
     "child context must extend conclusion context"),
    ("exists_up", _other_lhs, "lhs is not the existential of the child lhs"),
    ("exists_up", _other_rhs, "child rhs is not the shifted conclusion rhs"),
    ("exists_down", lambda d: _side(d, ctx=d.concl.ctx + 1),
     "conclusion context must extend child context"),
    ("exists_down", lambda d: _with(d, children=(_identity(d.concl.ctx - 1),)),
     "child lhs is not existential"),
    ("exists_down", _other_lhs, "lhs is not the child existential body"),
    ("exists_down", _other_rhs, "rhs is not the shifted child rhs"),
    ("distributivity", _other_rhs, "not a distributivity instance"),
    ("frobenius", _other_rhs, "not a Frobenius instance"),
    ("identity", lambda d: _with(d, rule="weakening"), "unknown rule"),
]


@pytest.mark.parametrize("rule,mutate,reason", REJECTIONS,
                         ids=[f"{r}-{why}" for r, _, why in REJECTIONS])
def test_checker_rejection_reasons(rule, mutate, reason):
    t, d = _node(rule)
    assert check_derivation_reason(t, d) is None
    bad = mutate(d)
    assert check_derivation_reason(t, bad) == f"{bad.rule}: {reason}"


P1 = Sequent(1, Atom("P", (1,)), Atom("P", (1,)))


@pytest.mark.parametrize("d,reason", [
    (Derivation("conj_rule", P1, children=(Derivation("identity", P1), "junk")),
     "conj_rule: child is not a derivation"),
    (Derivation("identity", Sequent(1, Atom("S", (1,)), Atom("S", (1,)))),
     "identity: unknown relation symbol 'S'"),
    (Derivation("axiom", P1, params=("0",)),
     "axiom: malformed node (parameters ('0',))"),
    (Derivation("eq_refl", Sequent(1, TOP, Eq(1, 1))),
     "eq_refl: malformed node (parameters ())"),
    (Derivation("distributivity", P1, params=(TOP,)),
     "distributivity: malformed node (parameters (Top(),))"),
    (Derivation("cut", "junk"), "cut: conclusion is not a sequent"),
    (Derivation("conj_rule", P1, children=(Derivation("identity", None),)),
     "identity: conclusion is not a sequent"),
    ("junk", "root is not a derivation"),
    (None, "root is not a derivation"),
], ids=["junk-child", "foreign-symbol", "string-index", "no-params", "one-param",
        "junk-conclusion", "child-without-conclusion", "junk-root", "no-root"])
def test_malformed_nodes_get_a_reason(d, reason):
    assert check_derivation_reason(PQR, d) == reason
    assert not check_derivation(PQR, d)
