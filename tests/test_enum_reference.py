"""Differential test: the pruned formula enumeration against the unpruned one.

``reference_enum`` is the enumeration as first written: it combines every
pair of the ``cap`` simplest formulas at each level, sorts everything it
found and keeps the ``cap`` simplest.  ``enum_formulas`` prunes that work at
the cap and must return exactly the same list.  The corpus covers the
theories and (n, depth, cap) at which the acceptance criteria enumerate,
plus small caps where the pruning starts early, and the signatures of the
theories that the round-trip criteria present.
"""

from functools import lru_cache

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
    all_maps,
    build_lattice_theory,
    enum_formulas,
    formula_depth,
    formula_key,
    formula_size,
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


@pytest.fixture(scope="module", autouse=True)
def _drop_reference_caches():
    # the reference normalizes about a million formulas; without this the
    # process-wide caches of normalize and formula_key keep them (some
    # 600 MB) for every later test module
    yield
    reference_enum.cache_clear()
    normalize.cache_clear()
    formula_key.cache_clear()


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
        for cap in (600, 200, 16)
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
