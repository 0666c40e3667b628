"""Acceptance suite: eleven end-to-end checks, one test per criterion.

Each test prints a single PASS line (visible with -v as the test outcome)
and pins its own tolerances, caps, and wall-time budget.  Bounds used
throughout unless a test says otherwise: model bound B=3, formula depth
d=2, arity cutoff N=2, proof depth 8.
"""

import functools
import time
from itertools import product

from cohlogic import calculus, lattice
from cohlogic.internal_logic import (
    denote,
    export_presentation,
    induced_models,
    rel_symbol,
    roundtrip_functor,
    roundtrip_theory,
    th_of,
    trivial_presentation,
)
from cohlogic.lattice import (
    MonotoneMap,
    all_dist_lattices,
    all_posets,
    check_bc_square,
    check_frobenius,
    discrete_poset,
    dual_lattice_hom,
    duality_roundtrip_lattice,
    duality_roundtrip_poset,
    is_open_map,
    left_adjoint,
    monotone_maps,
    universal_map_surjective,
)
from cohlogic.semantics import (
    FiniteModel,
    enumerate_models,
    eval_formula,
    gamma_star,
)
from cohlogic.syntax import (
    TOP,
    And,
    Atom,
    Eq,
    Exists,
    Sequent,
    build_lattice_theory,
    enum_formulas,
    parse_theory,
)
from cohlogic.typespace import (
    Interpretation,
    all_maps,
    apply_interpretation,
    check_functor_bc,
    check_strict_bc,
    check_weak_bc,
    compute_typespace,
    identity_interpretation,
    s_of_interpretation,
    times_k,
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
FREE = parse_theory("theory free\nsig { P/1, Q/1, R/1 }\n")

EINT = Interpretation(EMPTY, PEQ, 1, {"=": Atom("E", (1, 2))})


@functools.lru_cache(maxsize=None)
def approx(which, N=2, B=3):
    t = {"pqr": PQR, "peq": PEQ, "empty": EMPTY}[which]
    return compute_typespace(t, N=N, B=B, d=2, check_stability=False)


def report(n, detail):
    print(f"criterion {n:2d} PASS: {detail}")


def test_criterion_01_bc_counterexample_on_pqr():
    started = time.monotonic()
    a = compute_typespace(PQR, N=2, B=3, d=2, check_stability=True)
    # the diagnostic shows saturation at arities 0 and 1 only: the arity-2
    # point set still grows at model bound 4 (two blank elements next to a
    # Q-only and an R-only element need four elements), so the all-arities
    # flag is genuinely false at these bounds and is not asserted
    assert a.stable_arities[0] and a.stable_arities[1]
    assert not a.stable_arities[2]
    # maximal zero-type isolated by exists x (P & Q & R)
    iso = Exists(And((Atom("P", (1,)), Atom("Q", (1,)), Atom("R", (1,)))))
    pts = a.open_of(iso, 0)
    assert len(pts) == 1
    p = next(iter(pts))
    poset = a.poset(0)
    assert all(not poset.leq[p][q] or q == p for q in range(poset.n))
    # pushout square 1 <- 0 -> 1: restriction square satisfies
    # Beck-Chevalley although the universal map misses a point pair
    out = check_functor_bc(a, (), (), 0, 1, 1, 2, (1,), (2,))
    assert out["bc"] is True
    assert out["universal_map_surjective"] is False
    assert out["missed_pair"] is not None
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(1, f"bc holds, universal map misses pair {out['missed_pair']}, "
              f"zero-type maximal; arities 0,1 saturated ({elapsed:.1f}s)")


def test_criterion_02_weak_vs_strict_bc():
    started = time.monotonic()
    pnt = s_of_interpretation(EINT, approx("empty"), approx("peq"), N=2)
    f = (1, 1)  # the index map 2 -> 1
    ok, _ = check_weak_bc(pnt, f, 2, 1)
    assert ok
    bad, witness = check_strict_bc(pnt, f, 2, 1)
    assert not bad and witness is not None
    # the two sides of the failed strict comparison are the opens
    # [E(x,y)] and [x=y & E(x,x) & E(y,y)], which differ
    ta = pnt.target_approx
    e_open = ta.open_of(Atom("E", (1, 2)), 2)
    img_open = ta.open_of(
        And((Eq(1, 2), Atom("E", (1, 1)), Atom("E", (2, 2)))), 2
    )
    assert e_open != img_open
    # independent calculus verdict with a two-element countermodel
    v = calculus.equivalent(
        PEQ, Atom("E", (1, 2)),
        And((Eq(1, 2), Atom("E", (1, 1)), Atom("E", (2, 2)))), 2,
    )
    assert v.status == "Inequivalent"
    refuting = v.forward if isinstance(v.forward, calculus.Refuted) else v.backward
    assert isinstance(refuting, calculus.Refuted)
    assert refuting.model.size == 2
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(2, f"weak bc holds, strict fails at f=(1,1) with [E(x,y)] != "
              f"[x=y & E(x,x) & E(y,y)]; size-2 countermodel ({elapsed:.1f}s)")


def test_criterion_03_finite_duality():
    started = time.monotonic()
    lats = all_dist_lattices(8)
    posets = all_posets(5)
    assert all(duality_roundtrip_lattice(l) for l in lats)
    assert all(duality_roundtrip_poset(p) for p in posets)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(3, f"{len(lats)} lattices and {len(posets)} posets round-trip "
              f"({elapsed:.1f}s)")


def test_criterion_04_open_iff_adjoint_frobenius():
    started = time.monotonic()
    cases = 0
    posets = all_posets(3)
    for x in posets:
        for y in posets:
            for g in monotone_maps(x, y):
                open_ = is_open_map(g)
                f = dual_lattice_hom(g)
                try:
                    h = left_adjoint(f)
                    adjoint_ok = True
                    frob, _ = check_frobenius(h, f)
                except lattice.LatticeError:
                    adjoint_ok, frob = False, False
                assert open_ == (adjoint_ok and frob), (x, y, g.values)
                cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(4, f"agreement on all {cases} monotone maps ({elapsed:.1f}s)")


def test_criterion_05_bc_iff_surjective_universal_map():
    started = time.monotonic()
    sizes = range(4)
    discs = {s: discrete_poset(s) for s in sizes}
    maps = {}
    for s in sizes:
        for t in sizes:
            for vals in product(range(t), repeat=s):
                maps[s, t, vals] = MonotoneMap(discs[s], discs[t], vals)
    squares = 0
    for bn, cn, dn in product(sizes, repeat=3):
        for h_vals in product(range(dn), repeat=bn):
            h = maps[bn, dn, h_vals]
            for k_vals in product(range(dn), repeat=cn):
                k = maps[cn, dn, k_vals]
                fiber = [(x, y) for x in range(bn) for y in range(cn)
                         if h_vals[x] == k_vals[y]]
                for an in sizes:
                    for assign in product(fiber, repeat=an):
                        f = maps[an, bn, tuple(x for x, _ in assign)]
                        g = maps[an, cn, tuple(y for _, y in assign)]
                        bc, _ = check_bc_square(f, g, h, k)
                        surj, _ = universal_map_surjective(f, g, h, k)
                        assert bc == surj, (f.values, g.values, h_vals, k_vals)
                        squares += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(5, f"equivalence on all {squares} commuting squares ({elapsed:.1f}s)")


def test_criterion_06_deduction_system_coherence():
    started = time.monotonic()
    per_ctx = 6  # formulas per context per theory; 4*3*36 = 432 sequents
    total = unknown = proved = refuted = 0
    for t in (PQR, PEQ, EMPTY, FREE):
        pool3 = tuple(enumerate_models(t, 3))
        pool4 = tuple(enumerate_models(t, 4))
        b = calculus.Budgets(depth=8, model_size=4, model_pool=pool4)
        for n in (0, 1, 2):
            fs = enum_formulas(t.signature, n, 2)[:per_ctx]
            for phi in fs:
                for psi in fs:
                    s = Sequent(n, phi, psi)
                    v = calculus.entails(t, s, b)
                    total += 1
                    cm = calculus.find_countermodel(t, s, pool=pool4)
                    if isinstance(v, calculus.Proved):
                        proved += 1
                        # soundness: checked derivation, no countermodel
                        assert calculus.check_derivation(t, v.derivation)
                        assert cm is None, (t.name, s)
                    elif isinstance(v, calculus.Refuted):
                        refuted += 1
                        assert cm is not None
                    else:
                        unknown += 1
                    valid3 = all(
                        m.ext(phi, n) <= m.ext(psi, n) for m in pool3
                    )
                    if valid3 and cm is None and not isinstance(v, calculus.Unknown):
                        # completeness at desk scale: decided means proved
                        assert isinstance(v, calculus.Proved), (t.name, s)
    assert total >= 200
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(6, f"{total} sequents: {proved} proved, {refuted} refuted, "
              f"{unknown} unknown ({100 * unknown / total:.1f}% unknown), "
              f"no contradictions ({elapsed:.1f}s)")


def _swap_interpretation():
    return Interpretation(
        PQR, PQR, 1,
        {"=": Eq(1, 2), "P": Atom("Q", (1,)), "Q": Atom("P", (1,)),
         "R": Atom("R", (1,))},
    )


def test_criterion_07_transfer_law():
    started = time.monotonic()
    per_ctx = 30  # formulas per context, depth up to 3
    checked = 0
    for g in (identity_interpretation(PQR), _swap_interpretation(), EINT):
        for m in enumerate_models(g.target, 3):
            q = gamma_star(g, m)
            dom = m.ext(g.domain_formula(), 1)
            for n in (0, 1, 2):
                fs = enum_formulas(g.source.signature, n, 3, cap=200)[:per_ctx]
                tuples = [a for a in m.ext(TOP, n)
                          if all((v,) in dom for v in a)]
                for phi in fs:
                    gphi = apply_interpretation(g, phi, n)
                    for a in tuples:
                        cls = tuple(q.class_of[(v,)] for v in a)
                        lhs = eval_formula(q, phi, cls)
                        rhs = eval_formula(m, gphi, a)
                        assert lhs == rhs, (g.target.name, phi, a)
                        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(7, f"eval commutes with model transfer in all {checked} "
              f"instances ({elapsed:.1f}s)")


def test_criterion_08_cartesian_family():
    started = time.monotonic()
    # arity cutoff 3 with model bound 2 keeps the domain family non-trivial
    # (an element outside every E-class exists) while staying fast
    sa = compute_typespace(EMPTY, N=3, B=2, d=2, check_stability=False)
    ta = compute_typespace(PEQ, N=3, B=2, d=2, check_stability=False)
    pnt = s_of_interpretation(EINT, sa, ta, N=3)
    cases = 0
    for n in range(4):
        for m in range(4):
            for f in all_maps(n, m):
                down = ta.s_map(times_k(f, pnt.k), n * pnt.k, m * pnt.k)
                pre = frozenset(
                    p for p in range(len(ta.points[m * pnt.k]))
                    if down[p] in pnt.domains[n]
                )
                assert pnt.domains[m] <= pre, (f, n, m)
                surjective = set(f) == set(range(1, m + 1))
                assert (pnt.domains[m] == pre) == surjective, (f, n, m)
                cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(8, f"domain inclusion with equality iff surjective on all "
              f"{cases} index maps ({elapsed:.1f}s)")


def test_criterion_09_roundtrip_theory():
    started = time.monotonic()
    # generated open sublattices: R(x) for the P/Q/R theory (its depth-1
    # lattice of opens is too large to close off), default depth-1
    # generators for partial equivalence
    pqr_pres = export_presentation(approx("pqr"),
                                   generators={1: [Atom("R", (1,))]})
    out_pqr = roundtrip_theory(PQR, pqr_pres, cap=6)
    out_peq = roundtrip_theory(PEQ, export_presentation(approx("peq")), cap=6)
    for name, out in (("pqr", out_pqr), ("peq", out_peq)):
        total = out.proved + out.refuted + out.unknown
        assert out.refuted == 0 and not out.failures, name
        assert out.unknown <= 0.05 * total, name
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(9, f"pqr {out_pqr.proved}/{out_pqr.unknown} proved/unknown, "
              f"peq {out_peq.proved}/{out_peq.unknown}, no refutations "
              f"({elapsed:.1f}s)")


def test_criterion_10_roundtrip_functor():
    started = time.monotonic()
    chain2 = build_lattice_theory(lattice.chain(2))
    fixtures = [
        export_presentation(approx("pqr"), generators={1: [Atom("R", (1,))]}),
        export_presentation(approx("peq"), gen_depth=1),
        export_presentation(
            compute_typespace(chain2, N=2, B=2, d=2, check_stability=False),
            gen_depth=1,
        ),
    ]
    details = []
    for pres in fixtures:
        out = roundtrip_functor(pres)
        assert out["ok"], (pres.name, out["failures"][:3])
        assert not out["unrealized"], (pres.name, out["unrealized"][:3])
        for n in range(3):
            realized, filters = out["points"][n]
            assert realized == filters, (pres.name, n)
        details.append(f"{pres.name} {sorted(out['points'].values())}")
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(10, f"prime-filter bijection and naturality on "
               f"{'; '.join(details)} ({elapsed:.1f}s)")


def test_criterion_11_internal_logic_contract():
    started = time.monotonic()
    per_ctx = 7  # formulas per context per presentation
    trivial = trivial_presentation(2)
    trivial_pool = (FiniteModel(1, {
        rel_symbol(n, u): (set(product(range(1), repeat=n)) if u else set())
        for n in range(3) for u in range(2)
    }),)
    pqr_pres = export_presentation(approx("pqr"),
                                   generators={1: [Atom("R", (1,))]})
    checked = equiv_checked = 0
    for pres, pool in ((trivial, trivial_pool),
                       (pqr_pres, tuple(induced_models(pqr_pres)))):
        th = th_of(pres)
        b = calculus.Budgets(model_pool=pool)
        for n in (0, 1, 2):
            fs = enum_formulas(th.signature, n, 2, cap=200)[:per_ctx]
            lat = pres.lattices[n]
            for phi in fs:
                u = denote(pres, phi, n)
                v = calculus.equivalent(
                    th, phi, Atom(rel_symbol(n, u), tuple(range(1, n + 1))),
                    n, b)
                assert v.status == "Equivalent", (pres.name, phi, u)
                equiv_checked += 1
                for psi in fs:
                    expected = lat.leq[u][denote(pres, psi, n)]
                    w = calculus.entails(th, Sequent(n, phi, psi), b)
                    assert not isinstance(w, calculus.Unknown), (pres.name, phi, psi)
                    assert isinstance(w, calculus.Proved) == expected, \
                        (pres.name, phi, psi)
                    checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(11, f"entailment matches lattice order on {checked} pairs; "
               f"{equiv_checked} formulas equivalent to their value symbol "
               f"({elapsed:.1f}s)")
