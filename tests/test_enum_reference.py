"""Differential test: the pruned formula enumeration against the unpruned one.

``reference_enum`` is the enumeration as first written: it combines every
pair of the ``cap`` simplest formulas at each level, sorts everything it
found and keeps the ``cap`` simplest.  ``size_pruned_enum`` is the first
pruned version: it stops a level at the size of the cap-th formula, but
still normalizes every candidate of that size.  ``enum_formulas`` prunes
that work at the cap and must return exactly the same list as both.  The
corpus covers the theories and (n, depth, cap) at which the acceptance
criteria enumerate, plus small caps where the pruning starts early, and the
signatures of the theories that the round-trip criteria present, at the
calls that ``roundtrip_functor`` makes.  The file also pins that a smaller
cap gives a prefix of the cap-600 list, the promises of ``_candidates`` that
the pruning relies on, and a deterministic count of the work it saves.
"""

import math
from functools import lru_cache
from itertools import combinations, product

import pytest

from cohlogic.internal_logic import (
    export_presentation,
    th_of,
    trivial_presentation,
)
from cohlogic.lattice import chain
from cohlogic.syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Eq,
    Exists,
    Or,
    _NODES,
    _candidates,
    all_maps,
    build_lattice_theory,
    clear_caches,
    enum_formulas,
    exists,
    formula_depth,
    formula_key,
    formula_size,
    join,
    meet,
    normalize,
    parse_theory,
)
from cohlogic.typespace import compute_typespace


@lru_cache(maxsize=None)
def reference_enum(sig, n, depth, cap):
    level = {TOP, BOT}
    for sym, ar in sig.relations:
        for args in all_maps(ar, n):
            level.add(Atom(sym, args))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            level.add(Eq(i, j))
    seen = set(level)
    keys = {}

    def key(p):
        k = keys.get(p)
        if k is None:
            k = (formula_size(p), formula_key(p))
            keys[p] = k
        return k

    prev = set()  # pairs drawn entirely from here were combined already
    for _ in range(depth):
        ordered = sorted(seen, key=key)
        if len(ordered) > cap:
            ordered = ordered[:cap]
        new = set()
        for a in range(len(ordered)):
            pa = ordered[a]
            a_old = pa in prev
            for b in range(a + 1, len(ordered)):
                pb = ordered[b]
                if a_old and pb in prev:
                    continue
                for cons in (And, Or):
                    q = normalize(cons((pa, pb)))
                    if q not in seen:
                        new.add(q)
        for body in reference_enum(sig, n + 1, depth - 1, cap):
            q = normalize(Exists(body))
            if q not in seen:
                new.add(q)
        prev = set(ordered)
        seen |= new
    final = [p for p in seen if formula_depth(p) <= depth]
    final.sort(key=key)
    return tuple(final[:cap])


@lru_cache(maxsize=None)
def size_pruned_enum(sig, n, depth, cap):
    level = {TOP, BOT}
    for sym, ar in sig.relations:
        for args in all_maps(ar, n):
            level.add(Atom(sym, args))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            level.add(Eq(i, j))
    seen = set()
    keys = {}

    def key(p):
        k = keys.get(p)
        if k is None:
            k = (formula_size(p), formula_key(p))
            keys[p] = k
        return k

    # counts[s]: formulas of size s and depth <= depth in seen.  limit is
    # the size of the cap-th smallest of them (inf while there are fewer)
    counts = {}
    limit = math.inf

    def add(q):
        nonlocal limit
        s = key(q)[0]
        if s > limit or q in seen:
            return
        seen.add(q)
        if formula_depth(q) <= depth:
            counts[s] = counts.get(s, 0) + 1
            if s < limit:
                limit = _cap_size(counts, cap)

    for p in level:
        add(p)

    prev = set()  # pairs drawn entirely from here were combined already
    for level_no in range(1, depth + 1):
        ordered = sorted(seen, key=key)[:cap]
        bodies = size_pruned_enum(sig, n + 1, depth - 1, cap)
        max_depth = depth if level_no == depth else math.inf
        for bound, phi in _size_candidates(ordered, prev, bodies, max_depth):
            if bound > limit:
                break
            add(normalize(phi))
        prev = set(ordered)
    final = [p for p in seen if formula_depth(p) <= depth]
    final.sort(key=key)
    return tuple(final[:cap])


def _size_candidates(ordered, prev, bodies, max_depth):
    """Meets, joins and existentials as (size lower bound, formula) pairs in
    ascending order of bound."""
    groups = {}
    for p in ordered:
        g = (formula_size(p), formula_depth(p), type(p))
        groups.setdefault(g, []).append(p)
    groups = list(groups.items())
    work = {}  # bound -> batches of formulas
    for body in bodies:
        work.setdefault(1 + formula_size(body), []).append([Exists(body)])
    for i, ((sa, da, ta), ga) in enumerate(groups):
        for (sb, db, tb), gb in groups[i:]:
            for cons in (And, Or):
                if ta is cons and tb is cons:
                    bound, depth = max(sa, sb) + 1, max(da, db)
                elif ta is cons:
                    bound, depth = sa + sb, max(da, db + 1)
                elif tb is cons:
                    bound, depth = sa + sb, max(da + 1, db)
                else:
                    bound, depth = sa + sb + 1, max(da, db) + 1
                if depth <= max_depth:
                    work.setdefault(bound, []).append(
                        _size_combine(cons, ga, gb, prev))
    for bound in sorted(work):
        for batch in work[bound]:
            for phi in batch:
                yield bound, phi


def _size_combine(cons, ga, gb, prev):
    pairs = combinations(ga, 2) if ga is gb else product(ga, gb)
    for pa, pb in pairs:
        if pa not in prev or pb not in prev:
            yield cons((pa, pb))


def _cap_size(counts, cap):
    """Smallest size s with at least cap counted formulas of size <= s."""
    total = 0
    for s in sorted(counts):
        total += counts[s]
        if total >= cap:
            return s
    return math.inf


@pytest.fixture(scope="module", autouse=True)
def _drop_reference_caches():
    # the reference normalizes about a million formulas; without this the
    # cache of normalize and the intern table keep them (some 600 MB) for
    # every later test module
    yield
    reference_enum.cache_clear()
    size_pruned_enum.cache_clear()
    clear_caches()


THEORIES = {
    "pqr": parse_theory(
        "theory pqr\nsig { P/1, Q/1, R/1 }\n"
        "axiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
    ),
    "peq": parse_theory(
        "theory peq\nsig { E/2 }\n"
        "axiom [x,y] E(x,y) |- E(y,x)\n"
        "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n"
    ),
    "empty": parse_theory("theory nothing\nsig { }\n"),
    "free": parse_theory("theory free\nsig { P/1, Q/1, R/1 }\n"),
    "chain2": build_lattice_theory(chain(2)),
}

CORPUS = (
    [
        (name, n, d, cap)
        for name in THEORIES
        for n in (0, 1, 2)
        for d in (0, 1, 2)
        for cap in (600, 200, 16, 1, 0)
    ]
    # the transfer-law criterion enumerates at depth 3, cap 200
    + [(name, n, 3, 200) for name in ("pqr", "peq", "empty") for n in (0, 1, 2)]
    # the stability pass of the pqr counterexample: depth d + 1 = 3, cap 600
    + [("pqr", n, 3, 600) for n in (0, 1)]
)


@pytest.mark.parametrize("name,n,d,cap", CORPUS)
def test_enum_formulas_matches_reference(name, n, d, cap):
    sig = THEORIES[name].signature
    assert enum_formulas(sig, n, d, cap) == list(reference_enum(sig, n, d, cap))


# the stability pass of ``typespace peq``: depth d + 1 = 3, cap 600.  Checked
# against the size-pruned loop, which takes about 1 s for all three; the
# unpruned reference takes 84 s
PEQ_STABILITY_CALLS = [("peq", n, 3, 600) for n in (0, 1, 2)]


@pytest.mark.parametrize("name,n,d,cap", PEQ_STABILITY_CALLS)
def test_enum_formulas_matches_size_pruned_on_stability_calls(name, n, d, cap):
    sig = THEORIES[name].signature
    assert enum_formulas(sig, n, d, cap) == list(size_pruned_enum(sig, n, d, cap))


def test_reference_truncates_pqr_at_depth_three():
    # the corpus reaches the cap, so the pruning is exercised there
    sig = THEORIES["pqr"].signature
    assert len(reference_enum(sig, 1, 3, 600)) == 600
    assert len(reference_enum(sig, 0, 3, 600)) == 600


@lru_cache(maxsize=None)
def presented_signature(name):
    """Signature of th_of(F) for the presentations F of the round-trip
    criteria: one relation symbol per open at each arity."""
    if name == "trivial":
        return th_of(trivial_presentation(2)).signature
    bound = 2 if name == "chain2" else 3
    approx = compute_typespace(THEORIES[name], N=2, B=bound, d=2,
                               check_stability=False)
    if name == "pqr":
        pres = export_presentation(approx, generators={1: [Atom("R", (1,))]})
    else:
        pres = export_presentation(approx, gen_depth=1)
    return th_of(pres).signature


@pytest.mark.parametrize("name", ["pqr", "peq", "chain2", "trivial"])
@pytest.mark.parametrize("n,d", [(n, d) for n in (0, 1, 2) for d in (1, 2)])
def test_enum_formulas_matches_reference_on_presented_theories(name, n, d):
    sig = presented_signature(name)
    assert enum_formulas(sig, n, d, 200) == list(reference_enum(sig, n, d, 200))


def test_negative_cap_is_rejected():
    # the size-pruned loop returned 4 of the 19 formulas here
    sig = THEORIES["free"].signature
    with pytest.raises(ValueError):
        enum_formulas(sig, 1, 1, -1)


# the calls of roundtrip_functor: cap 600, n <= 2 at depth d <= 2, and the
# existential bodies one context up
ROUNDTRIP_CALLS = [(n, d) for n in (0, 1, 2) for d in (1, 2)] + [(3, 1)]


@pytest.mark.parametrize("name", ["pqr", "peq", "chain2", "trivial"])
@pytest.mark.parametrize("n,d", ROUNDTRIP_CALLS)
def test_enum_formulas_matches_size_pruned_on_presented_theories(name, n, d):
    sig = presented_signature(name)
    assert enum_formulas(sig, n, d, 600) == list(size_pruned_enum(sig, n, d, 600))


@pytest.mark.parametrize("name", ["pqr", "peq", "chain2", "trivial"])
@pytest.mark.parametrize("n", [2, 3])
def test_enum_formulas_matches_reference_at_cap_600_on_presented_theories(name, n):
    # depth 1 only: the unpruned reference at depth 2 takes 10-19 s and
    # about 600 MB per signature
    sig = presented_signature(name)
    assert enum_formulas(sig, n, 1, 600) == list(reference_enum(sig, n, 1, 600))


PREFIX_SIGNATURES = ["pqr", "peq", "chain2", "trivial"] + [
    f"theory:{name}" for name in THEORIES]


@pytest.mark.parametrize("name", PREFIX_SIGNATURES)
@pytest.mark.parametrize("n,d", [(n, d) for n in (0, 1, 2) for d in (1, 2)])
def test_smaller_caps_are_prefixes(name, n, d):
    # callers may enumerate at cap k instead of slicing the cap-600 list
    if name.startswith("theory:"):
        sig = THEORIES[name.removeprefix("theory:")].signature
    else:
        sig = presented_signature(name)
    full = enum_formulas(sig, n, d, 600)
    for k in (1, 6, 10, 16, 200):
        assert enum_formulas(sig, n, d, k) == full[:k], k


def test_enumeration_work_is_bounded():
    # a deterministic work count, not a wall-time gate: the size-pruned loop
    # made 48,881 normalize misses here, normalizing every candidate of the
    # cap-th formula's size
    sig = presented_signature("peq")
    clear_caches()
    assert len(enum_formulas(sig, 2, 2, 600)) == 600
    assert normalize.cache_info().misses <= 5000


def _interned():
    return sum(len(table) for table in _NODES.values())


@pytest.mark.parametrize("n,nodes", [(0, 7311), (1, 2418), (2, 4077)])
def test_stability_enumeration_work(n, nodes):
    # deterministic work counts of the cold depth-3 calls of typespace peq.
    # When _enum normalized each candidate they made 8,764 / 3,721 / 9,602
    # normalize misses for n = 0 / 1 / 2; now every candidate is made by
    # meet, join or exists, and the count is of the interned nodes built
    sig = THEORIES["peq"].signature
    clear_caches()
    enum_formulas(sig, n, 3, 600)
    assert normalize.cache_info().misses == 0
    assert _interned() == nodes


PLAIN = {meet: And, join: Or}  # the plain node on a meet's or join's parts


@pytest.mark.parametrize("name,n", [("pqr", 1), ("peq", 2), ("chain2", 1)])
def test_candidate_batches_keep_their_promises(name, n):
    # what _enum's pruning relies on: a batch's bound is at most the key of
    # each new result, and the results of an exact batch are the plain nodes
    # on their arguments unless known, with rising keys
    sig = THEORIES[name].signature
    ordered = enum_formulas(sig, n, 2, 100)
    bodies = tuple(enum_formulas(sig, n + 1, 1, 100))
    exact_batches = 0
    for bound, exact, cons, batch in _candidates(ordered, set(), bodies,
                                                  math.inf):
        keys = []
        for args in batch:
            q = cons(*args)
            plain = Exists(*args) if cons is exists else PLAIN[cons](args)
            if q not in {TOP, BOT, *args}:
                assert bound <= (formula_size(q), formula_key(q)), args
                assert q == plain or not exact, args
            if exact:
                assert formula_size(plain) == bound[0], args
                keys.append(formula_key(plain))
        assert keys == sorted(set(keys)), bound
        exact_batches += exact
    assert exact_batches > 0
