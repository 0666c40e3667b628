"""Differential tests: obligations and composites built from normal forms
against the raw-tree route they replace.

The references below keep the bodies of ``requirement_sequents``,
``morphism_condition_sequents``, ``compose_2cells_vertical``,
``compose_2cells_horizontal`` and ``th_of``'s axiom list as they were when
they built raw trees with ``substitute``, ``conj``, ``And``, ``Or`` and
``Exists`` and normalized afterwards.  Each side the code builds through
``meet``, ``join``, ``exists`` and ``reindex`` must be the very node that
``normalize`` gives on the reference's side; leaves must be equal.

Corpus: the interpretations and 2-cells of ``tests/test_typespace.py``, a
k = 2 interpretation with non-normal mapping formulas and two 2-cells on
it, and ``th_of`` of the pqr, peq and trivial presentations.
"""

import pytest

from cohlogic.internal_logic import (
    denote,
    rel_symbol,
    th_of,
    trivial_presentation,
)
from cohlogic.syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Eq,
    Exists,
    Or,
    Sequent,
    conj,
    enum_formulas,
    normalize,
    normalize_sequent,
    parse_formula,
    parse_theory,
    substitute,
)
from cohlogic.typespace import (
    Interpretation,
    Morphism2Cell,
    apply_interpretation,
    compose_2cells_horizontal,
    compose_2cells_vertical,
    compose_interpretations,
    identity_2cell,
    identity_index_map,
    identity_interpretation,
    morphism_condition_sequents,
    requirement_sequents,
    times_k,
)

from test_internal_logic import peq_pres, pqr_pres
from test_typespace import EINT, EMPTY, PEQ, PQR


# ---------------------------------------------------------------------------
# the raw-tree references


def reference_requirement_sequents(g):
    k = g.k
    eqf = g.equality_formula()  # context 2k
    dom = g.domain_formula()  # context k

    def eq_at(b1, b2, m):
        return substitute(eqf, times_k((b1, b2), k), m * k)

    def dom_at(b, m):
        return substitute(dom, times_k((b,), k), m * k)

    out = [
        ("eq_refl", Sequent(k, dom_at(1, 1), eq_at(1, 1, 1))),
        ("eq_sym", Sequent(2 * k, conj([eq_at(1, 2, 2), dom_at(1, 2), dom_at(2, 2)]),
                           eq_at(2, 1, 2))),
        ("eq_trans",
         Sequent(3 * k, conj([eq_at(1, 2, 3), eq_at(2, 3, 3)]), eq_at(1, 3, 3))),
    ]
    for sym, r in g.source.signature.relations:
        gr = g.mapping[sym]  # context r*k
        for i in range(1, r + 1):
            m = r + 1
            base = tuple(range(1, r * k + 1))
            moved = list(base)
            for t in range(k):
                moved[(i - 1) * k + t] = r * k + t + 1
            lhs = conj([substitute(gr, base, m * k), eq_at(i, r + 1, m),
                        dom_at(r + 1, m)])
            rhs = substitute(gr, tuple(moved), m * k)
            out.append((f"congruence_{sym}_{i}", Sequent(m * k, lhs, rhs)))
    return out


def _shift_formula(phi, ctx, offset, new_ctx):
    return substitute(phi, tuple(range(offset + 1, offset + ctx + 1)), new_ctx)


def reference_morphism_condition_sequents(theta, depth=1, cap=10, ctxs=(1, 2)):
    g, g2 = theta.source, theta.target
    k, k2 = g.k, g2.k
    th = normalize(theta.formula)
    seqs = []
    rhs = th
    for _ in range(k2):
        rhs = normalize(Exists(rhs))
    seqs.append(("(1)", Sequent(k, g.domain_formula(), rhs)))
    ctx = k + k2
    dom_x = g.domain_at_blocks([1], ctx)
    dom_y = g2.domain_at_blocks([k + 1], ctx)
    seqs.append(("(2)", Sequent(ctx, th, conj([dom_x, dom_y]))))
    ctx = 2 * k + k2
    th_xy = substitute(th, tuple(range(1, k + 1)) + tuple(range(2 * k + 1, ctx + 1)), ctx)
    eq_xx = _shift_formula(g.equality_formula(), 2 * k, 0, ctx)
    th_x2y = substitute(th, tuple(range(k + 1, 2 * k + 1)) + tuple(range(2 * k + 1, ctx + 1)), ctx)
    seqs.append(("(3)", Sequent(ctx, conj([th_xy, eq_xx]), normalize(th_x2y))))
    ctx = k + 2 * k2
    th_xy = substitute(th, tuple(range(1, k + k2 + 1)), ctx)
    eq_yy = _shift_formula(g2.equality_formula(), 2 * k2, k, ctx)
    th_xy2 = substitute(
        th, tuple(range(1, k + 1)) + tuple(range(k + k2 + 1, ctx + 1)), ctx
    )
    seqs.append(("(4)", Sequent(ctx, conj([th_xy, eq_yy]), normalize(th_xy2))))
    for n in ctxs:
        formulas = enum_formulas(g.source.signature, n, depth, min(cap, 2000))
        ctx = n * (k + k2)
        xpos = tuple(range(1, n * k + 1))
        ypos = tuple(range(n * k + 1, ctx + 1))
        for phi in formulas:
            gl = substitute(apply_interpretation(g, phi, n), xpos, ctx)
            gr = substitute(apply_interpretation(g2, phi, n), ypos, ctx)
            thetas = []
            for i in range(n):
                f = tuple(range(i * k + 1, (i + 1) * k + 1)) + tuple(
                    range(n * k + i * k2 + 1, n * k + (i + 1) * k2 + 1)
                )
                thetas.append(substitute(th, f, ctx))
            seqs.append(
                (f"(5) n={n}", Sequent(ctx, conj([gl] + thetas), normalize(gr)))
            )
    return seqs


def reference_vertical(eta, theta):
    g, gm, g2 = theta.source, theta.target, eta.target
    k, km, k2 = g.k, gm.k, g2.k
    ctx = k + k2 + km
    th = substitute(
        normalize(theta.formula),
        tuple(range(1, k + 1)) + tuple(range(k + k2 + 1, ctx + 1)),
        ctx,
    )
    et = substitute(
        normalize(eta.formula),
        tuple(range(k + k2 + 1, ctx + 1)) + tuple(range(k + 1, k + k2 + 1)),
        ctx,
    )
    out = conj([th, et])
    for _ in range(km):
        out = normalize(Exists(out))
    return out


def reference_horizontal(eta, theta):
    gk, gk2 = theta.source, theta.target
    dl, dl2 = eta.source, eta.target
    k, k2 = gk.k, gk2.k
    l, l2 = dl.k, dl2.k
    ctx = k * l + k2 * l2 + k2 * l
    d_theta = apply_interpretation(dl, theta.formula, k + k2)
    xpos = tuple(range(1, k * l + 1))
    ypos = tuple(range(k * l + k2 * l2 + 1, ctx + 1))
    parts = [substitute(d_theta, xpos + ypos, ctx)]
    et = normalize(eta.formula)
    for i in range(k2):
        yi = tuple(range(k * l + k2 * l2 + i * l + 1, k * l + k2 * l2 + (i + 1) * l + 1))
        zi = tuple(range(k * l + i * l2 + 1, k * l + (i + 1) * l2 + 1))
        parts.append(substitute(et, yi + zi, ctx))
    out = conj(parts)
    for _ in range(k2 * l):
        out = normalize(Exists(out))
    return out


def reference_th_of_axioms(pres):
    """th_of's axiom list, built raw, then normalized, filtered and deduped."""

    def atom(n, u, args=None):
        return Atom(rel_symbol(n, u), tuple(args) if args else tuple(range(1, n + 1)))

    axioms = []
    for n in range(pres.cutoff + 1):
        lat = pres.lattices[n]
        axioms.append(Sequent(n, TOP, atom(n, lat.top)))
        axioms.append(Sequent(n, atom(n, lat.bot), BOT))
        for a, b in lat.covers():
            axioms.append(Sequent(n, atom(n, a), atom(n, b)))
        for a in range(lat.n):
            for b in range(a + 1, lat.n):
                if lat.leq[a][b] or lat.leq[b][a]:
                    continue
                axioms.append(
                    Sequent(n, And((atom(n, a), atom(n, b))), atom(n, lat.meet(a, b)))
                )
                axioms.append(
                    Sequent(n, atom(n, lat.join(a, b)), Or((atom(n, a), atom(n, b))))
                )
    for (n, m, f) in sorted(pres.homs):
        if n == m and f == identity_index_map(n):
            continue
        hom = pres.hom(f, n, m)
        for a in range(pres.lattices[n].n):
            lhs = atom(n, a, f) if n else atom(n, a)
            rhs = atom(m, hom(a))
            axioms.append(Sequent(m, lhs, rhs))
            axioms.append(Sequent(m, rhs, lhs))
    for n in range(pres.cutoff):
        e_inc = pres.adjoint(identity_index_map(n), n, n + 1)
        for w in range(pres.lattices[n + 1].n):
            ex = Exists(atom(n + 1, w))
            axioms.append(Sequent(n, ex, atom(n, e_inc[w])))
            axioms.append(Sequent(n, atom(n, e_inc[w]), ex))
    for n in range(2, pres.cutoff + 1):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                e = denote(pres, Eq(i, j), n)
                axioms.append(Sequent(n, Eq(i, j), atom(n, e)))
                axioms.append(Sequent(n, atom(n, e), Eq(i, j)))
    out, seen = [], set()
    for s in axioms:
        ns = normalize_sequent(s)
        if ns.lhs == ns.rhs or ns.rhs == TOP or ns.lhs == BOT:
            continue
        if ns not in seen:
            seen.add(ns)
            out.append(ns)
    return out


# ---------------------------------------------------------------------------
# the corpus


def _formula(text, n, t):
    return parse_formula(text, [f"x{i}" for i in range(1, n + 1)], t.signature)


def pairs_interpretation():
    """PQR -> PQR on 2-blocks, with reversed equalities, units and unsorted
    or repeated parts in its mapping formulas."""
    return Interpretation(PQR, PQR, 2, {
        "=": _formula("x4 = x2 & (x3 = x1 & true)", 4, PQR),
        "P": _formula("P(x2) | P(x1) & true", 2, PQR),
        "Q": _formula("Q(x1) & Q(x1) | false", 2, PQR),
        "R": _formula("R(x2) & (R(x1) | x2 = x1)", 2, PQR),
    })


def interpretations():
    strong = Interpretation(PQR, PQR, 1, {
        "=": Eq(1, 2),
        "P": And((Atom("P", (1,)), Atom("P", (1,)))),
        "Q": Atom("Q", (1,)),
        "R": Atom("R", (1,)),
    })
    s_theory = parse_theory("theory t\nsig { S/2 }\n")
    broken = Interpretation(EMPTY, s_theory, 1, {"=": Atom("S", (1, 2))})
    return {
        "identity_pqr": identity_interpretation(PQR),
        "identity_peq": identity_interpretation(PEQ),
        "e_quotient": EINT,
        "broken": broken,
        "strong": strong,
        "composite": compose_interpretations(identity_interpretation(PEQ), EINT),
        "pairs": pairs_interpretation(),
    }


def two_cells():
    pairs = pairs_interpretation()
    swapped = Morphism2Cell(pairs, pairs, _formula(
        "(x3 = x1 & x4 = x2 | false) & (P(x1) | P(x2) | true)", 4, PQR))
    return {
        "identity_e": identity_2cell(EINT),
        "identity_pqr": identity_2cell(identity_interpretation(PQR)),
        "identity_peq": identity_2cell(identity_interpretation(PEQ)),
        "identity_pairs": identity_2cell(pairs),
        "swapped_pairs": swapped,
    }


def _same(got, want):
    """got is the normal form want, as one node; leaves are equal."""
    return got is want or type(got) in (Atom, Eq) and got == want


def _same_sequents(got, want):
    assert [tag for tag, _ in got] == [tag for tag, _ in want]
    for (tag, s), (_, r) in zip(got, want):
        assert s.ctx == r.ctx, tag
        assert _same(s.lhs, normalize(r.lhs)), tag
        assert _same(s.rhs, normalize(r.rhs)), tag


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("name", sorted(interpretations()))
def test_requirement_sequents_match_reference(name):
    g = interpretations()[name]
    _same_sequents(requirement_sequents(g), reference_requirement_sequents(g))


@pytest.mark.parametrize("name", sorted(two_cells()))
def test_morphism_conditions_match_reference(name):
    theta = two_cells()[name]
    _same_sequents(morphism_condition_sequents(theta),
                   reference_morphism_condition_sequents(theta))


def test_the_pairs_corpus_is_not_normal():
    """The k = 2 corpus exercises normalization: some raw reference sides
    are not normal forms."""
    raw = [side for _, s in reference_requirement_sequents(pairs_interpretation())
           for side in (s.lhs, s.rhs)]
    assert any(normalize(side) != side for side in raw)


@pytest.mark.parametrize("pair", [
    ("identity_e", "identity_e"),
    ("identity_pqr", "identity_pqr"),
    ("identity_pairs", "swapped_pairs"),
    ("swapped_pairs", "swapped_pairs"),
])
def test_vertical_composite_matches_reference(pair):
    cells = two_cells()
    eta, theta = cells[pair[0]], cells[pair[1]]
    got = compose_2cells_vertical(eta, theta).formula
    assert _same(got, normalize(reference_vertical(eta, theta)))


@pytest.mark.parametrize("pair", [
    ("identity_peq", "identity_e"),
    ("identity_pqr", "swapped_pairs"),
    ("swapped_pairs", "identity_pqr"),
    ("identity_pairs", "swapped_pairs"),
])
def test_horizontal_composite_matches_reference(pair):
    cells = two_cells()
    eta, theta = cells[pair[0]], cells[pair[1]]
    got = compose_2cells_horizontal(eta, theta).formula
    assert _same(got, normalize(reference_horizontal(eta, theta)))


@pytest.mark.parametrize("name", ["pqr", "peq", "trivial"])
def test_th_of_axioms_match_reference(name):
    pres = {"pqr": pqr_pres, "peq": peq_pres,
            "trivial": lambda: trivial_presentation(2)}[name]()
    got = th_of(pres).axioms
    want = reference_th_of_axioms(pres)
    assert len(got) == len(want) > 0
    for s, r in zip(got, want):
        assert s.ctx == r.ctx
        assert _same(s.lhs, r.lhs) and _same(s.rhs, r.rhs)
