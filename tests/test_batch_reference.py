"""Differential test: batched point collection and the tuple->point table
against the per-model path they replace.

Point collection evaluates each formula once per carrier size over a
``ModelBatch`` (``semantics.model_profiles``) and records every tuple's
point in ``TypeSpaceApprox.tuple_points``; ``s_map`` and ``induced_models``
read that table.  The reference is the path as first written: ``profile_bits`` on each
model alone for the points, and ``semantics.profile`` of each tuple for the
table, the restriction maps and the induced models.  Points, realizations,
table, maps and models must be identical, in the same order.  The opens
that ``open_of`` reads off the points for stored formulas must be those
found by evaluating each formula at the realizations, its path for other
formulas, and the specialization order must be the subset order of the
profiles.  The corpus covers the pqr and peq approximations, the
approximation of ``th_of(peq_pres())`` over its induced models, a pool of
mixed sizes out of size order, and models without a table for one
symbol.  Both halves of ``_stability`` are checked against the same
per-model reference.
"""

from functools import lru_cache
from itertools import product

import pytest
from test_internal_logic import approx, peq_pres, pqr_pres

from cohlogic.internal_logic import induced_models, rel_symbol, th_of
from cohlogic.semantics import (
    FiniteModel,
    ModelBatch,
    enumerate_models,
    eval_formula,
    profile,
    profile_bits,
)
from cohlogic.syntax import enum_formulas, parse_theory
from cohlogic.typespace import (
    _collect,
    _stability,
    all_maps,
    compute_typespace,
)

PQR = parse_theory(
    "theory pqr\nsig { P/1, Q/1, R/1 }\naxiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
)
PEQ = parse_theory(
    "theory peq\nsig { E/2 }\n"
    "axiom [x,y] E(x,y) |- E(y,x)\n"
    "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n"
)


def _positions(bits):
    """The indices of the formulas a profile says hold, ascending."""
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def reference_collect_points(models, formulas, n):
    """Points and first realizations from one profile_bits call per model."""
    seen = {}
    for mi, m in enumerate(models):
        tuples = product(range(m.size), repeat=n)
        for a, bits in zip(tuples, profile_bits(m, formulas, n)):
            seen.setdefault(bits, (mi, a))
    pts = sorted(seen, key=_positions)
    return pts, [seen[p] for p in pts]


def reference_tuple_points(a, n):
    index = a.point_index(n)
    return [
        [index[profile(m, t, a.formulas[n])]
         for t in product(range(m.size), repeat=n)]
        for m in a.models
    ]


def reference_s_map(a, f, n, m):
    index = a.point_index(n)
    out = []
    for mi, t in a.realizations[m]:
        b = tuple(t[v - 1] for v in f)
        out.append(index[profile(a.models[mi], b, a.formulas[n])])
    return tuple(out)


def reference_induced_models(pres):
    a = pres.approx
    out = []
    for m in a.models:
        tables = {}
        for n in range(pres.cutoff + 1):
            idx = a.point_index(n)
            pts = {
                t: idx[profile(m, t, a.formulas[n])]
                for t in product(range(m.size), repeat=n)
            }
            for u, ext in enumerate(pres.extents[n]):
                tables[rel_symbol(n, u)] = {t for t, p in pts.items() if p in ext}
        out.append(FiniteModel(m.size, tables))
    return out


def mixed_peq_pool():
    """Every peq model up to size 3, largest first, a second size-0 model
    in the middle and a size-2 model without a table for E."""
    pool = list(reversed(enumerate_models(PEQ, 3)))
    pool.insert(len(pool) // 2, FiniteModel(0, {"E": set()}))
    return pool + [FiniteModel(2, {})]


def mixed_pqr_pool():
    """Every third pqr model up to size 3 in reverse, the size-0 model
    last and a model without a table for Q."""
    pool = list(reversed(enumerate_models(PQR, 3)))[::3]
    return [FiniteModel(2, {"P": {(0,)}, "R": {(1,)}})] + pool + [FiniteModel(0, {})]


@lru_cache(maxsize=None)
def corpus_approx(which):
    if which in ("pqr", "peq"):
        return approx(which)
    if which == "th-peq":
        pres = peq_pres()
        return compute_typespace(th_of(pres), N=2, d=2, cap=200,
                                 models=induced_models(pres))
    t, pool = {"mixed-peq": (PEQ, mixed_peq_pool),
               "mixed-pqr": (PQR, mixed_pqr_pool)}[which]
    return compute_typespace(t, N=2, d=2, models=pool())


CORPUS = ["pqr", "peq", "th-peq", "mixed-peq", "mixed-pqr"]


def test_corpus_is_broad():
    sizes = [m.size for m in corpus_approx("mixed-peq").models]
    assert sizes != sorted(sizes) and sizes.count(0) == 2
    assert any("E" not in m.tables for m in corpus_approx("mixed-peq").models)
    assert any("Q" not in m.tables for m in corpus_approx("mixed-pqr").models)
    th = corpus_approx("th-peq")
    assert len(th.models) > 10 and len({m.size for m in th.models}) > 2


@pytest.mark.parametrize("which", CORPUS)
def test_collect_points_matches_reference(which):
    a = corpus_approx(which)
    for n in range(a.N + 1):
        want = reference_collect_points(a.models, a.formulas[n], n)
        assert (a.points[n], a.realizations[n]) == want, n
        assert _collect(a.models, a.formulas[n], n)[:2] == want, n


@pytest.mark.parametrize("which", CORPUS)
def test_opens_and_order_read_off_the_points(which):
    """A stored formula's open, read off the points, is the set of points
    whose first realization satisfies it; the specialization order is the
    subset order of the profiles' formula sets."""
    a = corpus_approx(which)
    for n in range(a.N + 1):
        for phi in a.formulas[n]:
            want = frozenset(j for j, (mi, t) in enumerate(a.realizations[n])
                             if eval_formula(a.models[mi], phi, t))
            assert a.open_of(phi, n) == want, (n, phi)
        sets = [set(_positions(p)) for p in a.points[n]]
        want = tuple(tuple(p <= q for q in sets) for p in sets)
        assert a.poset(n).leq == want, n


@pytest.mark.parametrize("which", CORPUS)
def test_tuple_points_match_reference(which):
    a = corpus_approx(which)
    for n in range(a.N + 1):
        assert a.tuple_points[n] == reference_tuple_points(a, n), n


@pytest.mark.parametrize("which", CORPUS)
def test_s_map_matches_reference(which):
    a = corpus_approx(which)
    for n in range(3):
        for m in range(3):
            for f in all_maps(n, m):
                assert a.s_map(f, n, m) == reference_s_map(a, f, n, m), (f, n, m)


@pytest.mark.parametrize("pres", [peq_pres, pqr_pres], ids=["peq", "pqr"])
def test_induced_models_match_reference(pres):
    got = induced_models(pres())
    assert list(got) == reference_induced_models(pres())


@pytest.mark.parametrize("which", CORPUS)
def test_batch_profiles_are_the_models_profiles(which):
    """A batch's profile list is its models' lists laid end to end."""
    a = corpus_approx(which)
    for size in sorted({m.size for m in a.models}):
        group = [m for m in a.models if m.size == size]
        for n in range(a.N + 1):
            want = [bits for m in group for bits in profile_bits(m, a.formulas[n], n)]
            assert profile_bits(ModelBatch(group), a.formulas[n], n) == want, (size, n)


def reference_stability(t, a):
    """_stability with per-model profiles: the models of size B+1 add no
    point, and one more level of formula depth splits none."""
    bigger = enumerate_models(t, a.B + 1)[len(a.models):]
    out = []
    for n in range(a.N + 1):
        pts, _ = reference_collect_points(bigger, a.formulas[n], n)
        if not set(pts) <= set(a.points[n]):
            out.append(False)
            continue
        deeper = enum_formulas(t.signature, n, a.d + 1, a.cap)
        pts2, _ = reference_collect_points(a.models, deeper, n)
        out.append(len(pts2) == len(a.points[n]))
    return tuple(out)


@pytest.mark.parametrize("t, kw", [
    (PEQ, dict(N=2, B=2, d=1)),
    (PEQ, dict(N=2, B=3, d=1, cap=100)),
    (PQR, dict(N=2, B=2, d=1)),
], ids=["peq-B2", "peq-B3", "pqr-B2"])
def test_stability_matches_per_model_reference(t, kw):
    a = compute_typespace(t, check_stability=False, **kw)
    bigger = enumerate_models(t, a.B + 1)[len(a.models):]
    assert _stability(t, a, bigger) == reference_stability(t, a)
