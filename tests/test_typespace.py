from itertools import permutations, product

import pytest

from cohlogic import calculus, typespace
from cohlogic.semantics import (
    FiniteModel,
    SemanticsError,
    enumerate_models,
    eval_formula,
    gamma_star,
    hom_from_theta,
)
from cohlogic.lattice import chain
from cohlogic.syntax import (
    TOP,
    And,
    Atom,
    Eq,
    Exists,
    Or,
    build_lattice_theory,
    enum_formulas,
    normalize,
    parse_theory,
)
from cohlogic.typespace import (
    Interpretation,
    Morphism2Cell,
    TypeSpaceError,
    all_maps,
    apply_interpretation,
    check_cartesian_family,
    check_functor_bc,
    check_interpretation,
    check_morphism_of_interpretations,
    check_naturality,
    check_strict_bc,
    check_weak_bc,
    compose_2cells_horizontal,
    compose_2cells_vertical,
    compose_interpretations,
    compute_typespace,
    direct_image_formula,
    equal_2cells,
    identity_2cell,
    identity_interpretation,
    is_pushout,
    preimage_formula,
    pushout_of_span,
    s_of_interpretation,
    times_k,
)
from cohlogic.typespace import _collect, _stability

PQR = parse_theory(
    "theory pqr\nsig { P/1, Q/1, R/1 }\naxiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
)
PEQ = parse_theory(
    "theory peq\nsig { E/2 }\n"
    "axiom [x,y] E(x,y) |- E(y,x)\n"
    "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n"
)
EMPTY = parse_theory("theory nothing\nsig { }\n")

# the quotient-by-E interpretation from the empty theory into PEQ
EINT = Interpretation(EMPTY, PEQ, 1, {"=": Atom("E", (1, 2))})


import functools


@functools.lru_cache(maxsize=None)
def approx(which):
    t = {"pqr": PQR, "peq": PEQ, "empty": EMPTY}[which]
    return compute_typespace(t, N=2, B=3, d=2)


def test_direct_image_formula_identity():
    phi = Atom("P", (1,))
    out = direct_image_formula(phi, (1,), 1, 1)
    # equivalent to phi itself; verify extensionally
    for m in enumerate_models(PQR, 2):
        assert m.ext(out, 1) == m.ext(phi, 1)
    assert preimage_formula(phi, (1,), 1) == phi


def test_direct_image_is_projection():
    phi = And((Atom("P", (1,)), Atom("Q", (2,))))
    out = direct_image_formula(phi, (1,), 1, 2)
    for m in enumerate_models(PQR, 2):
        want = frozenset((t[0],) for t in m.ext(phi, 2))
        assert m.ext(out, 1) == want


def test_preimage_collapses_variables():
    phi = Atom("E", (1, 2))
    out = preimage_formula(phi, (1, 1), 1)
    assert out == Atom("E", (1, 1))


def test_apply_identity_interpretation():
    g = identity_interpretation(PQR)
    phi = Exists(And((Atom("P", (2,)), Eq(1, 2))))
    assert apply_interpretation(g, phi, 1) == normalize(phi)


def test_apply_e_interpretation_equality():
    assert apply_interpretation(EINT, Eq(1, 2), 2) == Atom("E", (1, 2))


def test_apply_e_interpretation_exists():
    phi = Exists(Eq(1, 2))
    out = apply_interpretation(EINT, phi, 1)
    want = normalize(Exists(And((Atom("E", (2, 2)), Atom("E", (1, 2))))))
    assert out == want


def test_transfer_law():
    # eval(Gamma*(M), phi) == eval(M, Gamma(phi)) over formulas up to depth 2
    for m in enumerate_models(PEQ, 3):
        q = gamma_star(EINT, m)
        for n in (0, 1, 2):
            fs = enum_formulas(EMPTY.signature, n, 2)[:40]
            dom = m.ext(EINT.domain_formula(), 1)
            tuples = [t for t in m.ext(TOP, n) if all((v,) in dom for v in t)]
            for phi in fs:
                gphi = apply_interpretation(EINT, phi, n)
                for t in tuples:
                    cls = tuple(q.class_of[(v,)] for v in t)
                    assert eval_formula(q, phi, cls) == eval_formula(m, gphi, t)


def test_gamma_star_total_e():
    m = FiniteModel(2, {"E": {(0, 0), (0, 1), (1, 0), (1, 1)}})
    q = gamma_star(EINT, m)
    assert q.size == 1


def test_gamma_star_partial_domain():
    m = FiniteModel(2, {"E": {(0, 0)}})
    q = gamma_star(EINT, m)
    assert q.size == 1


def test_gamma_star_identity_interpretation():
    g = identity_interpretation(PQR)
    m = FiniteModel(2, {"P": {(0,), (1,)}, "Q": {(1,)}, "R": {(1,)}})
    q = gamma_star(g, m)
    assert q.size == m.size
    assert {tuple(sorted(v)) for v in q.tables.values()} == {
        tuple(sorted(v)) for v in m.tables.values()
    }


def test_gamma_star_rejects_non_equivalence():
    t = parse_theory("theory t\nsig { S/2 }\n")
    bad = Interpretation(EMPTY, t, 1, {"=": Atom("S", (1, 2))})
    m = FiniteModel(2, {"S": {(0, 0), (1, 1), (0, 1)}})
    with pytest.raises(SemanticsError):
        gamma_star(bad, m)


def test_hom_from_theta_identity():
    g = identity_interpretation(PQR)
    theta = identity_2cell(g)
    m = FiniteModel(2, {"P": {(0,), (1,)}, "Q": {(1,)}, "R": {(1,)}})
    q1, q2, mapping = hom_from_theta(theta, m)
    assert mapping == {0: 0, 1: 1}


def test_hom_from_theta_e_quotient():
    theta = identity_2cell(EINT)
    m = FiniteModel(2, {"E": {(0, 0), (0, 1), (1, 0), (1, 1)}})
    q1, q2, mapping = hom_from_theta(theta, m)
    assert q1.size == 1 and mapping == {0: 0}


def test_typespace_pqr_maximal_zero_type():
    a = approx("pqr")
    # arity-0 and arity-1 point sets are saturated at model size 3; arity 2
    # is not (a pair of blank elements next to a Q-only and an R-only element
    # needs four elements), so only the per-arity flags hold
    assert a.stable_arities[0] and a.stable_arities[1]
    assert not a.stable_arities[2] and not a.stable
    iso = Exists(And((Atom("P", (1,)), Atom("Q", (1,)), Atom("R", (1,)))))
    pts = a.open_of(iso, 0)
    assert len(pts) == 1
    p = next(iter(pts))
    poset = a.poset(0)
    # maximal in specialization order
    assert all(not poset.leq[p][q] or q == p for q in range(poset.n))


def test_typespace_pqr_p_and_q_distinct():
    a = approx("pqr")
    m1 = FiniteModel(2, {"P": {(0,), (1,)}, "Q": {(1,)}, "R": {(1,)}})
    m2 = FiniteModel(2, {"P": {(1,)}, "Q": {(0,), (1,)}, "R": {(1,)}})
    from cohlogic.semantics import profile

    p = profile(m1, (0,), a.formulas[1])
    q = profile(m2, (0,), a.formulas[1])
    assert p != q
    idx = a.point_index(1)
    assert p in idx and q in idx


def test_typespace_empty_theory():
    a = approx("empty")
    assert len(a.points[0]) == 2  # empty vs non-empty model
    assert len(a.points[1]) == 1
    assert len(a.points[2]) == 2  # x=y or not


def test_typespace_opens_boolean_structure():
    a = approx("pqr")
    n = 1
    p, q = Atom("P", (1,)), Atom("Q", (1,))
    both = normalize(And((p, q)))
    either = normalize(Or((p, q)))
    assert {p, q, both, either} <= set(a.formulas[n])
    assert a.open_of(both, n) == a.open_of(p, n) & a.open_of(q, n)
    assert a.open_of(either, n) == a.open_of(p, n) | a.open_of(q, n)
    from cohlogic.syntax import BOT

    assert BOT in a.formulas[n] and a.open_of(BOT, n) == frozenset()


def test_restriction_maps_functorial_and_open():
    a = approx("pqr")
    from cohlogic.lattice import is_open_map

    for n in range(3):
        for m in range(3):
            for f in all_maps(n, m):
                assert is_open_map(a.s_monotone(f, n, m))
    # functoriality: S_{g.f} = S_f . S_g
    for f in all_maps(1, 2):
        for g in all_maps(2, 2):
            comp = tuple(g[v - 1] for v in f)
            sf = a.s_map(f, 1, 2)
            sg = a.s_map(g, 2, 2)
            sc = a.s_map(comp, 1, 2)
            assert tuple(sf[sg[p]] for p in range(len(a.points[2]))) == sc


def test_opens_match_image_preimage_formulas():
    a = approx("pqr")
    f = (1,)  # inclusion 1 -> 2
    smap = a.s_map(f, 1, 2)
    for phi in a.formulas[2][:60]:
        img = frozenset(smap[p] for p in a.open_of(phi, 2))
        assert img == a.open_of(direct_image_formula(phi, f, 1, 2), 1)
    for psi in a.formulas[1][:60]:
        pre = frozenset(
            p for p in range(len(a.points[2])) if smap[p] in a.open_of(psi, 1)
        )
        assert pre == a.open_of(preimage_formula(psi, f, 2), 2)


def test_pushout_recognition():
    # 1 <- 0 -> 1 has pushout 2
    assert is_pushout((), (), 0, 1, 1, 2, (1,), (2,))
    assert not is_pushout((), (), 0, 1, 1, 1, (1,), (1,))
    # identity square
    assert is_pushout((1,), (1,), 1, 1, 1, 1, (1,), (1,))


def test_pushout_recognition_all_small_spans():
    # among all pairs of maps into an apex of the pushout's size, exactly
    # the relabellings of the apex are pushouts; merging two apex points
    # gives no pushout
    for dn, bn, cn in product(range(3), repeat=3):
        for h in all_maps(dn, bn):
            for f in all_maps(dn, cn):
                an, u, v = pushout_of_span(h, f, dn, bn, cn)
                relabelled = {
                    (tuple(p[x - 1] for x in u), tuple(p[x - 1] for x in v))
                    for p in permutations(range(1, an + 1))
                }
                for pu in all_maps(bn, an):
                    for pv in all_maps(cn, an):
                        assert is_pushout(h, f, dn, bn, cn, an, pu, pv) == (
                            (pu, pv) in relabelled
                        ), (h, f, pu, pv)
                if an >= 2:
                    mu = tuple(min(x, an - 1) for x in u)
                    mv = tuple(min(x, an - 1) for x in v)
                    assert not is_pushout(h, f, dn, bn, cn, an - 1, mu, mv)


def test_functor_bc_pushout_1_0_1():
    a = approx("pqr")
    out = check_functor_bc(a, (), (), 0, 1, 1, 2, (1,), (2,))
    assert out["bc"] is True
    assert out["universal_map_surjective"] is False


def test_functor_bc_quantification():
    # f: 0 -> 1 inclusion against g: 0 -> 1; pushout is 2? no: pushout of
    # 1 <-h- 0 -f-> 1 was above; here take identity-style square n=m=1
    a = approx("pqr")
    out = check_functor_bc(a, (1,), (1,), 1, 1, 1, 1, (1,), (1,))
    assert out["bc"] is True and out["universal_map_surjective"] is True


def test_check_identity_interpretation():
    rep = check_interpretation(identity_interpretation(PQR), depth=1, cap=8)
    assert rep.ok


def test_check_e_interpretation():
    rep = check_interpretation(EINT, depth=1, cap=8)
    assert rep.refuted == 0


def test_broken_interpretation_detected():
    t = parse_theory("theory t\nsig { S/2 }\n")
    bad = Interpretation(EMPTY, t, 1, {"=": Atom("S", (1, 2))})
    rep = check_interpretation(bad, depth=1, cap=8, ctxs=(2,))
    assert rep.refuted > 0


def test_identity_2cell_checks():
    rep = check_morphism_of_interpretations(identity_2cell(EINT), depth=1, cap=6)
    assert rep.refuted == 0


def test_vertical_composition_with_identity():
    theta = identity_2cell(EINT)
    comp = compose_2cells_vertical(theta, theta)
    v = equal_2cells(comp, theta)
    assert v.status == "Equivalent"


def test_horizontal_composition_of_identities():
    # id_{id_PEQ} * id_EINT is the identity 2-cell of the composite, and
    # agrees with the vertical composite of id_EINT with itself
    theta = identity_2cell(EINT)
    eta = identity_2cell(identity_interpretation(PEQ))
    comp = compose_2cells_horizontal(eta, theta)
    g = compose_interpretations(identity_interpretation(PEQ), EINT)
    assert equal_2cells(comp, identity_2cell(g)).status == "Equivalent"
    vertical = compose_2cells_vertical(theta, theta)
    assert equal_2cells(comp, vertical).status == "Equivalent"


def test_compose_interpretations_with_identity():
    g = compose_interpretations(identity_interpretation(PEQ), EINT)
    assert g.k == 1
    assert normalize(g.mapping["="]) == Atom("E", (1, 2))


def s_of_e():
    return s_of_interpretation(EINT, approx("empty"), approx("peq"), N=2)


def test_s_of_identity_interpretation():
    a = approx("pqr")
    pnt = s_of_interpretation(identity_interpretation(PQR), a, a, N=2)
    for n in range(3):
        assert pnt.domains[n] == frozenset(range(len(a.points[n])))
        assert pnt.maps[n] == {p: p for p in range(len(a.points[n]))}
    assert check_cartesian_family(pnt)
    ok, w = check_naturality(pnt)
    assert ok


def test_s_of_e_interpretation_preimage_law():
    pnt = s_of_e()
    sa, ta = pnt.source_approx, pnt.target_approx
    # S(Gamma,1)_2^{-1}([x1=x2]) == [E(x1,x2)] inside the domain
    u = sa.open_of(Eq(1, 2), 2)
    lhs = frozenset(p for p in pnt.domains[2] if pnt.maps[2][p] in u)
    rhs = ta.open_of(Atom("E", (1, 2)), 2)
    assert lhs == rhs & pnt.domains[2]
    # and [E(x,y)] implies the domain, so equality outright
    assert lhs == rhs


def test_s_of_e_cartesian_and_natural():
    pnt = s_of_e()
    assert check_cartesian_family(pnt)
    ok, w = check_naturality(pnt)
    assert ok, w


def test_weak_vs_strict_bc():
    pnt = s_of_e()
    f = (1, 1)  # 2 -> 1
    ok, w = check_weak_bc(pnt, f, 2, 1)
    assert ok, w
    bad, witness = check_strict_bc(pnt, f, 2, 1)
    assert not bad
    # the witness opens are [E(x,y)] vs [x=y & E(x,x) & E(y,y)]
    phi, lhs, rhs = witness
    ta = pnt.target_approx
    e_open = ta.open_of(Atom("E", (1, 2)), 2)
    img_open = ta.open_of(
        And((Eq(1, 2), Atom("E", (1, 1)), Atom("E", (2, 2)))), 2
    )
    assert e_open != img_open


def test_strict_bc_for_strong_interpretation():
    # strong fixture: P |-> P & P (identity in disguise)
    g = Interpretation(
        PQR,
        PQR,
        1,
        {
            "=": Eq(1, 2),
            "P": And((Atom("P", (1,)), Atom("P", (1,)))),
            "Q": Atom("Q", (1,)),
            "R": Atom("R", (1,)),
        },
    )
    a = approx("pqr")
    pnt = s_of_interpretation(g, a, a, N=2)
    for n in range(3):
        for m in range(3):
            for f in all_maps(n, m):
                ok, w = check_strict_bc(pnt, f, n, m)
                assert ok, (f, n, m)


def test_all_weak_bc_for_e_interpretation():
    pnt = s_of_e()
    for n in range(3):
        for m in range(3):
            for f in all_maps(n, m):
                ok, w = check_weak_bc(pnt, f, n, m)
                assert ok, (f, n, m)


def test_times_k():
    assert times_k((2, 1), 2) == (3, 4, 1, 2)
    assert times_k((1,), 3) == (1, 2, 3)


def reference_stability(t, approx):
    """_stability before the early exit: both point sets in full."""
    bigger = enumerate_models(t, approx.B + 1)
    out = []
    for n in range(approx.N + 1):
        pts = _collect(bigger, approx.formulas[n], n)[0]
        if set(pts) != set(approx.points[n]):
            out.append(False)
            continue
        deeper = enum_formulas(t.signature, n, approx.d + 1, approx.cap)
        pts2 = _collect(approx.models, deeper, n)[0]
        out.append(len(pts2) == len(approx.points[n]))
    return tuple(out)


@pytest.mark.parametrize("which, kw", [
    ("peq", dict(N=2, B=3, d=2)),
    ("peq", dict(N=2, B=2, d=1)),
    ("peq", dict(N=3, B=1, d=1, cap=60)),
    ("empty", dict(N=2, B=3, d=2)),
    ("empty", dict(N=3, B=1, d=1)),
    ("chain2", dict(N=2, B=3, d=2)),
    ("pqr", dict(N=2, B=2, d=1)),
])
def test_stability_matches_reference(which, kw):
    t = {"peq": PEQ, "empty": EMPTY, "pqr": PQR,
         "chain2": build_lattice_theory(chain(2))}[which]
    a = compute_typespace(t, check_stability=False, **kw)
    # the stability pass shares one enumeration up to B+1 with the points
    b = compute_typespace(t, **kw)
    assert b.models == a.models and b.points == a.points
    assert b.stable_arities == reference_stability(t, a)


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_stability_reads_every_chunk(chunk, monkeypatch):
    # at B=2, d=2 only new profiles of size-3 models make arities 1 and 2
    # unstable (the deeper formulas add no point).  One model with a new
    # profile at both arities comes last, after all models without one, so
    # a pass that stopped before the last model would miss it
    a = compute_typespace(PQR, check_stability=False, N=2, B=2, d=2)

    def new(m, n):
        known = set(a.points[n])
        return any(p not in known for p in _collect([m], a.formulas[n], n)[0])

    size3 = [m for m in enumerate_models(PQR, 3) if m.size == 3]
    bigger = [m for m in size3 if not new(m, 1) and not new(m, 2)]
    bigger.append(next(m for m in size3 if new(m, 1) and new(m, 2)))
    assert len(bigger) > 7
    monkeypatch.setattr(typespace, "_STABILITY_CHUNK", chunk)
    assert _stability(PQR, a, bigger) == (True, False, False)
    assert reference_stability(PQR, a) == (True, False, False)
