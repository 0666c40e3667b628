"""Differential tests: isomorphism checks against the plain permutation
loops.

The package answers every isomorphism question by comparing canonical keys:
the canonical form of a poset, which a search by ordered partition
refinement finds without trying every relabeling, and the class keys of
``enumerate_models``, which close orbits under two generators.  Four loops
over all permutations are kept here as references: the canonical forms of
models and of posets, a search for an isomorphism and orbit marking.  Keys
and orders must be the same, and two posets must have equal keys exactly
when they are isomorphic.  The poset canonical form is also compared on
random labellings and on posets with many automorphisms, where the search
ties most.

The nested loops that validated posets and lattices, the search for each
meet and join among all lower and upper bounds, and the scan for up-sets
are kept as well: ``FinPoset`` and ``FinDistLattice`` must reject the same
matrices with the same first witness, and up-sets come in the same order.
"""

import random
from collections import Counter
from functools import cache
from itertools import chain, permutations
from operator import itemgetter

import pytest

from cohlogic import lattice
from cohlogic.lattice import FinDistLattice, FinPoset, LatticeError


def reference_model_canonical(m):
    """The class key of ``enumerate_models`` as a loop over all relabelings:
    the size, the sorted symbols and the least relabelled tables."""
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
    encoding a tuple of bools: the rows, and in each row the columns, taken
    in the order of perm."""
    if p.n < 2:  # itemgetter needs two indices to return a tuple
        return (p.n, tuple(chain.from_iterable(p.leq)))
    best = None
    for perm in permutations(range(p.n)):
        pick = itemgetter(*perm)
        enc = tuple(chain.from_iterable(map(pick, pick(p.leq))))
        if best is None or enc < best:
            best = enc
    return (p.n, best)


def reference_poset_iso(p1, p2):
    """The first order isomorphism p1 -> p2 in the order of
    ``itertools.permutations``, as a tuple, or None."""
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


@pytest.mark.parametrize("generate", [
    lambda: lattice.all_posets(5),
    lambda: [l.poset for l in lattice.all_dist_lattices(7)],
], ids=["all_posets(5)", "all_dist_lattices(7)"])
def test_poset_canonical_matches_reference(generate):
    got = generate()
    assert sorted(got, key=reference_poset_canonical) == got
    assert [p.canonical() for p in got] == \
        [(n, bytes(enc)) for n, enc in map(reference_poset_canonical, got)]


@cache
def _all_posets(max_n):
    """``lattice.all_posets``, built once for the tests that read it."""
    return lattice.all_posets(max_n)


def _reference_key(p):
    """``reference_poset_canonical`` with the encoding as bytes, the type
    ``FinPoset.canonical`` returns."""
    n, enc = reference_poset_canonical(p)
    return (n, bytes(enc))


def test_poset_canonical_of_random_labellings():
    rng = random.Random(15)
    for p in _all_posets(6):
        q = FinPoset(p.n, _relabel(p.leq, rng.sample(range(p.n), p.n)))
        assert q.canonical() == _reference_key(q) == p.canonical(), q.leq


def test_dist_lattice_canonical_matches_reference():
    got = lattice.all_dist_lattices(8)
    keys = [_reference_key(l.poset) for l in got]
    assert len(got) == 36
    assert keys == sorted(set(keys))  # sorted, one lattice per class
    assert [l.canonical() for l in got] == keys


def _equal_chains(k, m):
    """k disjoint chains of m points, chain c on the points c, c + k, ...,
    c + (m - 1)k."""
    n = k * m
    return FinPoset(n, [[a % k == b % k and a <= b for b in range(n)]
                        for a in range(n)])


# posets with many automorphisms, where the search ties most; the Boolean
# lattice goes through ``FinDistLattice.canonical``
SYMMETRIC = {f"antichain{n}": lattice.discrete_poset(n) for n in range(1, 8)}
SYMMETRIC.update({f"chains{k}x{m}": _equal_chains(k, m)
                  for k, m in ((2, 2), (3, 2), (4, 2), (2, 3), (2, 4))})
SYMMETRIC["boolean8"] = FinDistLattice(8, [[a & b == a for b in range(8)]
                                           for a in range(8)])


@pytest.mark.parametrize("name", SYMMETRIC)
def test_symmetric_canonical_matches_reference(name):
    p = SYMMETRIC[name]
    assert p.canonical() == _reference_key(getattr(p, "poset", p))


def _labelled_posets(max_n):
    """Every poset on at most max_n points, labelled: each class in each of
    its labellings."""
    out = set()
    for p in lattice.all_posets(max_n):
        for perm in permutations(range(p.n)):
            out.add(FinPoset(p.n, [[p.leq[a][b] for b in perm] for a in perm]))
    return sorted(out, key=lambda p: (p.n, p.leq))


def reference_up_sets(p):
    """``FinPoset.up_sets`` as a test of every subset against every pair."""
    out = []
    for bits in range(1 << p.n):
        s = frozenset(i for i in range(p.n) if bits >> i & 1)
        if all(p.leq[i][j] <= (j in s) for i in s for j in range(p.n)):
            out.append(s)
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def test_up_sets_match_reference():
    for p in _labelled_posets(4) + _all_posets(6):
        assert p.up_sets() == reference_up_sets(p)


def test_poset_keys_decide_isomorphism():
    posets = _labelled_posets(4)
    assert len(posets) == 1 + 1 + 3 + 19 + 219  # A001035
    keys = [p.canonical() for p in posets]
    found = 0
    for p1, k1 in zip(posets, keys):
        for p2, k2 in zip(posets, keys):
            if p1.n == p2.n:
                iso = reference_poset_iso(p1, p2) is not None
                assert (k1 == k2) == iso, (p1.leq, p2.leq)
                found += iso
    # every ordered pair of isomorphic posets has an isomorphism
    orbits = Counter(map(reference_poset_canonical, posets))
    assert found == sum(k * k for k in orbits.values())


def reference_poset_error(n, leq):
    """The ``LatticeError`` message of ``FinPoset(n, leq)`` as the nested
    loops over (i, j, k) find it, or None."""
    for i in range(n):
        if not leq[i][i]:
            return f"not reflexive at {i}"
        for j in range(n):
            if not leq[i][j]:
                continue
            if i != j and leq[j][i]:
                return f"not antisymmetric at ({i},{j})"
            for k in range(n):
                if leq[j][k] and not leq[i][k]:
                    return f"not transitive at ({i},{j},{k})"
    return None


def reference_lattice_error(n, leq):
    """The ``LatticeError`` message of ``FinDistLattice(n, leq)`` with every
    meet and join found among all lower and upper bounds, or None."""
    if n == 0:
        return "lattice must be non-empty"
    err = reference_poset_error(n, leq)
    if err:
        return err

    def bound(a, b, lower):
        if lower:
            cands = [c for c in range(n) if leq[c][a] and leq[c][b]]
            best = [c for c in cands if all(leq[d][c] for d in cands)]
        else:
            cands = [c for c in range(n) if leq[a][c] and leq[b][c]]
            best = [c for c in cands if all(leq[c][d] for d in cands)]
        if len(best) != 1:
            raise LatticeError(f"no {'meet' if lower else 'join'} for ({a},{b})")
        return best[0]

    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    try:
        for a in range(n):
            for b in range(n):
                meet[a][b] = bound(a, b, True)
                join[a][b] = bound(a, b, False)
    except LatticeError as e:
        return str(e)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return f"not distributive at ({a},{b},{c})"
    return None


def _error(make, n, leq):
    try:
        make(n, leq)
    except LatticeError as e:
        return str(e)
    return None


def _relabel(leq, perm):
    return [[leq[a][b] for b in perm] for a in perm]


def _order(n, pairs):
    """The reflexive-transitive closure of pairs on range(n)."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        leq[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or leq[i][k] and leq[k][j]
    return leq


# M3 and N5, the two five-element lattices that are not distributive
M3 = _order(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
N5 = _order(5, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)])


def _witness_matrices():
    """Seeded boolean matrices on at most 6 points: uniform ones, orders of
    random DAGs, the same with one entry flipped, and relabellings of M3 and
    N5."""
    rng = random.Random(2014)
    out = [[[True]], [[False]]]
    for n in range(1, 7):
        for _ in range(40):
            out.append([[rng.random() < 0.6 for _ in range(n)] for _ in range(n)])
        for _ in range(120):
            rank = rng.sample(range(n), n)
            pairs = [(i, j) for i in range(n) for j in range(n)
                     if rank[i] < rank[j] and rng.random() < 0.4]
            leq = _order(n, pairs)
            out.append(leq)
            flipped = [row[:] for row in leq]
            i, j = rng.randrange(n), rng.randrange(n)
            flipped[i][j] = not flipped[i][j]
            out.append(flipped)
    for leq in (M3, N5):
        for _ in range(10):
            out.append(_relabel(leq, rng.sample(range(5), 5)))
    return out


def test_lattice_errors_match_reference():
    seen = Counter()
    for leq in _witness_matrices():
        n = len(leq)
        want = reference_poset_error(n, leq)
        assert _error(FinPoset, n, leq) == want, leq
        want = reference_lattice_error(n, leq)
        assert _error(FinDistLattice, n, leq) == want, leq
        seen[(want or "none").split(" at ")[0].split(" for ")[0]] += 1
    # every kind of rejection occurs, and M3 and N5 are non-distributive
    assert set(seen) == {"not reflexive", "not antisymmetric", "not transitive",
                         "no meet", "no join", "not distributive", "none"}, seen
    for leq in (M3, N5):
        assert _error(FinDistLattice, 5, leq).startswith("not distributive")
