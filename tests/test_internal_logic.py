import functools
import gc
import itertools
import json
import weakref

import pytest

from cohlogic import calculus, cli, internal_logic, typespace
from cohlogic.internal_logic import (
    BetaFamily,
    FunctorPresentation,
    InternalLogicError,
    beta_from_partial_map,
    check_beta_weak_bc,
    denote,
    export_presentation,
    identity_beta,
    induced_models,
    presentation_from_json,
    presentation_to_json,
    pushout_of_span,
    rel_symbol,
    roundtrip_functor,
    roundtrip_theory,
    signature_of,
    symbol_info,
    th_of,
    th_of_1cell,
    trivial_presentation,
    validate_presentation,
)
from cohlogic.semantics import FiniteModel, ResourceGuard, is_model
from cohlogic.syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Eq,
    Exists,
    Or,
    Sequent,
    Theory,
    enum_formulas,
    normalize,
    parse_theory,
    print_sequent,
    print_theory,
    substitute,
)
from cohlogic.typespace import (
    all_maps,
    check_interpretation,
    compute_typespace,
    identity_2cell,
    identity_interpretation,
    morphism_condition_sequents,
    s_of_interpretation,
)

PQR = parse_theory(
    "theory pqr\nsig { P/1, Q/1, R/1 }\naxiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
)
PEQ = parse_theory(
    "theory peq\nsig { E/2 }\n"
    "axiom [x,y] E(x,y) |- E(y,x)\n"
    "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n"
)
EMPTY = parse_theory("theory nothing\nsig { }\n")


@functools.lru_cache(maxsize=None)
def approx(which):
    t = {"pqr": PQR, "peq": PEQ, "empty": EMPTY}[which]
    return compute_typespace(t, N=2, B=3, d=2, check_stability=False)


@functools.lru_cache(maxsize=None)
def peq_pres():
    return export_presentation(approx("peq"), gen_depth=1)


@functools.lru_cache(maxsize=None)
def pqr_pres():
    return export_presentation(approx("pqr"), generators={1: [Atom("R", (1,))]})


@functools.lru_cache(maxsize=None)
def empty_pres():
    return export_presentation(approx("empty"), gen_depth=1)


def trivial_models():
    out = []
    for s in range(3):
        tables = {}
        for n in range(3):
            tables[rel_symbol(n, 1)] = set(itertools.product(range(s), repeat=n))
            tables[rel_symbol(n, 0)] = set()
        out.append(FiniteModel(s, tables))
    return out


def test_pushout_of_span():
    assert pushout_of_span((), (), 0, 1, 1) == (2, (1,), (2,))
    assert pushout_of_span((1,), (1,), 1, 1, 1) == (1, (1,), (1,))
    # collapsing one leg collapses the pushout
    an, u, v = pushout_of_span((1, 2), (1, 1), 2, 2, 1)
    assert an == 1 and u == (1, 1) and v == (1,)


def test_trivial_presentation_valid():
    rep = validate_presentation(trivial_presentation(2))
    assert rep.ok, rep.failures[:3]


def test_symbol_names_roundtrip():
    assert symbol_info(rel_symbol(2, 13)) == (2, 13)
    with pytest.raises(InternalLogicError):
        symbol_info("P")


def test_denote_units_and_equality():
    F = trivial_presentation(2)
    assert denote(F, TOP, 0) == F.lattices[0].top
    assert denote(F, BOT, 0) == F.lattices[0].bot
    assert denote(F, Eq(1, 1), 2) == F.lattices[2].top
    # the trivial one-point spaces make the diagonal everything
    assert denote(F, Eq(1, 2), 2) == F.lattices[2].top


def test_denote_meet_join():
    F = peq_pres()
    a = Atom(rel_symbol(2, 3), (1, 2))
    b = Atom(rel_symbol(2, 5), (1, 2))
    lat = F.lattices[2]
    assert denote(F, And((a, b)), 2) == lat.meet(3, 5)
    assert denote(F, Or((a, b)), 2) == lat.join(3, 5)


def test_denote_arity_overflow():
    F = trivial_presentation(1)
    with pytest.raises(InternalLogicError):
        denote(F, Exists(TOP), 1)
    with pytest.raises(InternalLogicError):
        denote(F, TOP, 2)


def test_denote_equality_matches_extent():
    F = peq_pres()
    e = denote(F, Eq(1, 2), 2)
    assert F.extents[2][e] == approx("peq").open_of(Eq(1, 2), 2)


def test_denote_respects_normalize():
    F = peq_pres()
    fs = enum_formulas(signature_of(F), 2, 2, cap=60)
    for phi in fs:
        if exists_depth(phi) > 0:
            continue
        assert denote(F, phi, 2) == denote(F, normalize(phi), 2)


def exists_depth(phi):
    if isinstance(phi, Exists):
        return 1 + exists_depth(phi.body)
    if isinstance(phi, (And, Or)):
        return max((exists_depth(p) for p in phi.parts), default=0)
    return 0


def test_substitution_lemma():
    # A_f(denote(phi)) == denote(phi substituted along f)
    F = peq_pres()
    for n in range(3):
        fs = enum_formulas(signature_of(F), n, 1, cap=25)
        for m in range(3):
            for f in all_maps(n, m):
                hom = F.hom(f, n, m)
                for phi in fs:
                    if exists_depth(phi) + max(n, m) > F.cutoff:
                        continue
                    assert hom(denote(F, phi, n)) == denote(
                        F, substitute(phi, f, m), m
                    )


def test_exported_presentations_valid():
    for F in (peq_pres(), pqr_pres(), empty_pres()):
        rep = validate_presentation(F)
        assert rep.ok, rep.failures[:3]


def test_peq_export_sizes():
    F = peq_pres()
    assert [F.lattices[n].n for n in range(3)] == [4, 4, 22]


def test_hom_and_adjoint_take_any_sequence_as_index_map():
    F = peq_pres()
    for f in ((1,), (2,)):
        assert F.hom(list(f), 1, 2) is F.hom(f, 1, 2)
        assert F.adjoint(list(f), 1, 2) == F.adjoint(f, 1, 2)


def test_presentation_memos_are_freed_with_it():
    tables = (induced_models, internal_logic._adjoint)
    before = [fn.cache_info().currsize for fn in tables]
    F = export_presentation(approx("peq"), gen_depth=1)
    induced_models(F)
    F.adjoint((1,), 1, 2)
    assert [fn.cache_info().currsize for fn in tables] == [n + 1 for n in before]
    freed = weakref.ref(F)
    del F
    gc.collect()
    assert freed() is None
    assert [fn.cache_info().currsize for fn in tables] == before


def test_theory_instance_tables_are_freed_with_it():
    """The prover's axiom instances are kept per theory object: an equal
    theory built apart gets tables of its own, and each theory's tables go
    when it does."""
    table = calculus._axiom_instances
    before = table.cache_info().currsize
    t, twin = th_of(peq_pres()), th_of(peq_pres())
    assert t == twin and t is not twin
    for n in range(3):
        assert table(t, n) == table(twin, n)
        assert table(t, n) is not table(twin, n)
    assert table.cache_info().currsize == before + 6
    freed = weakref.ref(t)
    del t, twin
    gc.collect()
    assert freed() is None
    assert table.cache_info().currsize == before


def test_theory_roundtrip_keeps_no_instance_tables():
    """th(S(T)), which roundtrip_theory builds, takes its instance tables
    with it when the call returns; so do T's, once the caller lets go of
    T.  So the functor direction of ``roundtrip --mode both`` runs without
    them."""
    table = calculus._axiom_instances
    before = table.cache_info().currsize
    theory = Theory(PEQ.name, PEQ.signature, PEQ.axioms)
    assert roundtrip_theory(theory, peq_pres(), cap=6).ok
    assert table.cache_info().currsize > before
    del theory
    gc.collect()
    assert table.cache_info().currsize == before


def test_export_size_guard():
    with pytest.raises(ResourceGuard, match="exceeds 200 elements"):
        export_presentation(
            approx("pqr"),
            generators={1: [Atom("P", (1,)), Atom("Q", (1,))]},
            max_size=200,
        )


def test_export_size_guard_admits_exactly_max_size():
    # the largest peq lattice has 22 elements
    F = export_presentation(approx("peq"), gen_depth=1, max_size=22)
    assert [F.lattices[n].n for n in range(3)] == [4, 4, 22]
    with pytest.raises(ResourceGuard, match="exceeds 21 elements"):
        export_presentation(approx("peq"), gen_depth=1, max_size=21)


def test_mutated_presentation_invalid():
    F = peq_pres()
    homs = dict(F.homs)
    # redirect one substitution hom to the one for a different index map
    homs[(1, 2, (1,))] = homs[(1, 2, (2,))]
    bad = FunctorPresentation(F.cutoff, F.lattices, homs, name="bad")
    rep = validate_presentation(bad)
    assert not rep.ok


def test_th_of_trivial():
    F = trivial_presentation(2)
    th = th_of(F)
    assert len(th.signature.relations) == 6
    d = calculus.prove(th, Sequent(0, TOP, Atom(rel_symbol(0, 1), ())))
    assert d is not None
    # the one-point arity-2 space forces collapse: two-element models fail
    ms = trivial_models()
    assert [is_model(m, th) for m in ms] == [False, True, False]


def test_induced_models_are_models():
    F = peq_pres()
    th = th_of(F)
    pool = induced_models(F)
    assert len(pool) == len(approx("peq").models)
    for m in pool[:8]:
        assert is_model(m, th)


def test_th_of_contract_peq():
    # Proved iff the denotations are ordered, over a capped formula corpus
    F = peq_pres()
    th = th_of(F)
    pool = induced_models(F)
    b = calculus.Budgets(model_pool=pool)
    for n in (0, 1, 2):
        fs = enum_formulas(th.signature, n, 1, cap=150)[:8]
        lat = F.lattices[n]
        for phi in fs:
            for psi in fs:
                expected = lat.leq[denote(F, phi, n)][denote(F, psi, n)]
                v = calculus.entails(th, Sequent(n, phi, psi), b)
                assert not isinstance(v, calculus.Unknown), (n, phi, psi)
                assert isinstance(v, calculus.Proved) == expected, (n, phi, psi)


def test_every_formula_equivalent_to_its_value_symbol():
    F = peq_pres()
    th = th_of(F)
    pool = induced_models(F)
    b = calculus.Budgets(model_pool=pool)
    fs = enum_formulas(th.signature, 1, 2, cap=150)[:6]
    for phi in fs:
        u = denote(F, phi, 1)
        v = calculus.equivalent(th, phi, Atom(rel_symbol(1, u), (1,)), 1, b)
        assert v.status == "Equivalent", (phi, u, v.status)


def test_proof_soundness_for_denote():
    # checked derivations only conclude denote-ordered sequents
    F = peq_pres()
    th = th_of(F)
    pool = induced_models(F)
    b = calculus.Budgets(model_pool=pool)
    fs = enum_formulas(th.signature, 2, 1, cap=150)[:10]
    seen = 0
    for phi in fs:
        for psi in fs:
            v = calculus.entails(th, Sequent(2, phi, psi), b)
            if isinstance(v, calculus.Proved):
                assert calculus.check_derivation(th, v.derivation)
                assert F.lattices[2].leq[denote(F, phi, 2)][denote(F, psi, 2)]
                seen += 1
    assert seen > 20


def test_identity_beta_weak_bc_and_1cell():
    F = peq_pres()
    beta = identity_beta(F)
    ok, w = check_beta_weak_bc(beta)
    assert ok, w
    g = th_of_1cell(beta)
    assert g.k == 1
    e = denote(F, Eq(1, 2), 2)
    assert g.mapping["="] == Atom(rel_symbol(2, e), (1, 2))
    # the transported equality is provably plain equality
    th = th_of(F)
    b = calculus.Budgets(model_pool=induced_models(F))
    v = calculus.equivalent(th, g.mapping["="], Eq(1, 2), 2, b)
    assert v.status == "Equivalent"


def test_beta_from_quotient_interpretation():
    from cohlogic.typespace import Interpretation

    eint = Interpretation(EMPTY, PEQ, 1, {"=": Atom("E", (1, 2))})
    pnt = s_of_interpretation(eint, approx("empty"), approx("peq"), N=2)
    beta = beta_from_partial_map(pnt, empty_pres(), peq_pres())
    ok, w = check_beta_weak_bc(beta)
    assert ok, w
    g = th_of_1cell(beta)
    # equality is transported to the relation naming [E(x,y)], which is not
    # plain equality: the interpretation is not strong
    _, v = symbol_info(g.mapping["="].sym)
    F = peq_pres()
    assert F.extents[2][v] == approx("peq").open_of(Atom("E", (1, 2)), 2)
    assert F.extents[2][v] != approx("peq").open_of(Eq(1, 2), 2)
    assert not g.strong


def test_roundtrip_theory_pqr():
    rep = roundtrip_theory(PQR, pqr_pres(), cap=6)
    assert rep.refuted == 0 and not rep.failures
    assert rep.unknown == 0
    assert rep.proved >= 150


def test_roundtrip_theory_peq():
    rep = roundtrip_theory(PEQ, peq_pres(), cap=6)
    assert rep.refuted == 0 and not rep.failures and rep.unknown == 0


def test_roundtrip_theory_empty():
    rep = roundtrip_theory(EMPTY, empty_pres(), cap=6)
    assert rep.refuted == 0 and not rep.failures


def test_roundtrip_report_names_its_unknowns(monkeypatch, tmp_path, capsys):
    """A pair the prover leaves Unknown is reported with its theory, sequent
    and reason, in the --json report and in the text lines."""
    decide, first = calculus.entails, []

    def entails(t, s, budgets):  # the first pair asked stays Unknown
        if not first:
            first.append((t.name, s))
        if (t.name, s) == first[0]:
            return calculus.Unknown("patched")
        return decide(t, s, budgets)

    monkeypatch.setattr(calculus, "entails", entails)
    path = tmp_path / "peq.thy"
    path.write_text(print_theory(PEQ))
    argv = ["roundtrip", "--theory", str(path), "--mode", "theory", "--cap", "3"]
    assert cli.main(["--json", *argv]) == 2
    (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
    name, s = first[0]
    assert verdict["unknown"] == 1
    assert verdict["unknowns"] == [
        {"theory": name, "sequent": print_sequent(s), "reason": "patched"}]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"unknown in {name}: {print_sequent(s)} (patched)")


@pytest.mark.parametrize("which", ["pqr", "peq"])
def test_enumeration_at_the_kept_cap(which):
    """roundtrip_theory (on the rebuilt theory), check_interpretation and
    morphism_condition_sequents enumerate at the cap they keep: at their
    default caps and depths that list is the head of the longer list each
    once enumerated and cut."""
    t, pres = (PQR, pqr_pres()) if which == "pqr" else (PEQ, peq_pres())
    sites = [(th_of(pres).signature, approx(which).d, range(3), 10, 200),
             (t.signature, 2, (0, 1, 2), 16, 2000),
             (t.signature, 1, (1, 2), 10, 2000)]
    for sig, depth, ctxs, cap, old in sites:
        for n in ctxs:
            kept = enum_formulas(sig, n, depth, cap)
            assert kept == enum_formulas(sig, n, depth, old)[:cap], (sig, n)


def test_caps_reach_the_enumeration_unclamped(monkeypatch):
    """roundtrip_theory, check_interpretation and morphism_condition_sequents
    enumerate at the cap they are given, also above 200 and 2000."""
    pres, seen = empty_pres(), []

    def spy(sig, n, depth, cap):
        seen.append((n, cap))
        return ()

    monkeypatch.setattr(internal_logic, "enum_formulas", spy)
    monkeypatch.setattr(typespace, "enum_formulas", spy)
    roundtrip_theory(EMPTY, pres, cap=201)
    assert seen == [(n, 201) for n in range(pres.cutoff + 1)]
    seen.clear()
    g = identity_interpretation(EMPTY)
    check_interpretation(g, cap=2001)
    morphism_condition_sequents(identity_2cell(g), cap=2002)
    assert seen == [(0, 2001), (1, 2001), (2, 2001), (1, 2002), (2, 2002)]


def test_roundtrip_functor_trivial():
    out = roundtrip_functor(trivial_presentation(2), models=trivial_models())
    assert out["ok"]
    assert out["points"] == {0: (1, 1), 1: (1, 1), 2: (1, 1)}


def test_roundtrip_functor_peq():
    out = roundtrip_functor(peq_pres())
    assert out["ok"], (out["failures"][:3], out["unrealized"][:3])
    assert out["points"] == {0: (3, 3), 1: (3, 3), 2: (9, 9)}


def test_roundtrip_functor_pqr():
    out = roundtrip_functor(pqr_pres())
    assert out["ok"], (out["failures"][:3], out["unrealized"][:3])
    for n in range(3):
        realized, filters = out["points"][n]
        assert realized == filters


def test_lattice_theory_2chain_roundtrip():
    from cohlogic.syntax import build_lattice_theory
    from cohlogic.lattice import chain

    t = build_lattice_theory(chain(2))
    a = compute_typespace(t, N=2, B=2, d=2, check_stability=False)
    F = export_presentation(a, gen_depth=1)
    out = roundtrip_functor(F)
    assert out["ok"], (out["failures"][:3], out["unrealized"][:3])


def test_presentation_json_roundtrip():
    F = trivial_presentation(2)
    G = presentation_from_json(presentation_to_json(F))
    assert G.cutoff == F.cutoff
    assert all(G.lattices[n].leq == F.lattices[n].leq for n in range(3))
    assert all(G.homs[k].values == F.homs[k].values for k in F.homs)
