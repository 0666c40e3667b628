"""Differential tests: isomorphism checks against the plain permutation
loops.

The package answers every isomorphism question through
``lattice.relabelings``.  The four loops over all permutations it replaced
are kept here as references: the canonical forms of models and of posets,
``poset_iso`` and orbit marking.  Canonical forms, orders, isomorphisms and
orbits must be the same.
"""

import math
from collections import Counter
from itertools import permutations

import pytest

from cohlogic import lattice
from cohlogic.lattice import FinPoset
from cohlogic.semantics import FiniteModel, enumerate_models
from cohlogic.syntax import parse_theory


def reference_model_canonical(m):
    """``FiniteModel.canonical`` as a loop over all relabelings."""
    syms = sorted(m.tables)
    best = None
    for perm in permutations(range(m.size)):
        enc = tuple(
            tuple(sorted(tuple(perm[v] for v in row) for row in m.tables[s]))
            for s in syms
        )
        if best is None or enc < best:
            best = enc
    return (m.size, tuple(syms), best)


def reference_poset_canonical(p):
    """``FinPoset.canonical`` as a loop over all relabelings, with the leq
    encoding a tuple of bools."""
    best = None
    for perm in permutations(range(p.n)):
        enc = tuple(p.leq[perm[i]][perm[j]] for i in range(p.n) for j in range(p.n))
        if best is None or enc < best:
            best = enc
    return (p.n, best)


def reference_poset_iso(p1, p2):
    """``poset_iso`` as a loop over all permutations."""
    if p1.n != p2.n:
        return None
    for perm in permutations(range(p1.n)):
        if all(
            p1.leq[a][b] == p2.leq[perm[a]][perm[b]]
            for a in range(p1.n)
            for b in range(p1.n)
        ):
            return perm
    return None


def reference_mark_orbit(seen, n, relabel):
    """Orbit marking: add relabel(perm) to seen for every permutation."""
    for perm in permutations(range(n)):
        seen.add(relabel(perm))


PQR = "theory pqr\nsig { P/1, Q/1, R/1 }\naxiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
PEQ = (
    "theory peq\nsig { E/2 }\n"
    "axiom [x,y] E(x,y) |- E(y,x)\n"
    "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n"
)


def test_relabelings_match_reference_orbit():
    assert list(lattice.relabelings(3, tuple)) == list(permutations(range(3)))
    for p in lattice.all_posets(4):
        seen = set()
        reference_mark_orbit(seen, p.n, lambda perm: tuple(
            p.leq[perm[i]][perm[j]] for i in range(p.n) for j in range(p.n)))
        got = list(lattice.relabelings(p.n, lattice._leq_code(p.leq)))
        assert len(got) == math.factorial(p.n)
        # the same orbit, and bytes order like the tuples of bools they replace
        assert sorted(set(got)) == [bytes(enc) for enc in sorted(seen)]


@pytest.mark.parametrize("generate", [
    lambda: lattice.all_posets(5),
    lambda: [l.poset for l in lattice.all_dist_lattices(7)],
], ids=["all_posets(5)", "all_dist_lattices(7)"])
def test_poset_canonical_matches_reference(generate):
    got = generate()
    assert sorted(got, key=reference_poset_canonical) == got
    assert [p.canonical() for p in got] == \
        [(n, bytes(enc)) for n, enc in map(reference_poset_canonical, got)]


def _labelled_posets(max_n):
    """Every poset on at most max_n points, labelled: each class in each of
    its labellings."""
    out = set()
    for p in lattice.all_posets(max_n):
        for perm in permutations(range(p.n)):
            out.add(FinPoset(p.n, [[p.leq[a][b] for b in perm] for a in perm]))
    return sorted(out, key=lambda p: (p.n, p.leq))


def test_poset_iso_matches_reference():
    posets = _labelled_posets(4)
    assert len(posets) == 1 + 1 + 3 + 19 + 219  # A001035
    found = 0
    for p1 in posets:
        for p2 in posets:
            if p1.n == p2.n:
                want = reference_poset_iso(p1, p2)
                assert lattice.poset_iso(p1, p2) == want, (p1.leq, p2.leq)
                found += want is not None
    # every ordered pair of isomorphic posets has an isomorphism
    orbits = Counter(map(reference_poset_canonical, posets))
    assert found == sum(k * k for k in orbits.values())


@pytest.mark.parametrize("text", [PQR, PEQ], ids=["pqr", "peq"])
def test_model_canonical_matches_reference(text):
    for m in enumerate_models(parse_theory(text), 3):
        for perm in permutations(range(m.size)):
            relabelled = FiniteModel(m.size, {
                sym: {tuple(perm[v] for v in row) for row in rows}
                for sym, rows in m.tables.items()})
            assert relabelled.canonical() == reference_model_canonical(relabelled)
