"""Differential tests: isomorph-free generation against the plain scans.

``reference_enumerate_models`` builds a ``FiniteModel`` for every mask of
the table space, keeps the models and canonicalises each one, keeping the
first of every class.  ``reference_poset_levels`` grows posets by a new
maximal point and canonicalises every grown poset.  The fast versions prune
partial tables and mark whole orbits instead, and must give the same
objects: the same models with the same tables, the same representatives and
the same order.
"""

from itertools import islice, permutations, product

import pytest

from cohlogic import lattice
from cohlogic.lattice import FinPoset
from cohlogic.semantics import (
    GUARD_BITS,
    FiniteModel,
    ResourceGuard,
    enumerate_models,
    is_model,
)
from cohlogic.syntax import parse_theory


def reference_enumerate_models(t, max_size):
    """``enumerate_models`` as a scan of all 2^slots masks."""
    out = []
    for size in range(max_size + 1):
        bits = sum(size ** ar for _, ar in t.signature.relations)
        if bits > GUARD_BITS:
            raise ResourceGuard(
                f"size {size} needs 2^{bits} valuations (> 2^{GUARD_BITS})"
            )
        slots = []
        for sym, ar in t.signature.relations:
            for row in product(range(size), repeat=ar):
                slots.append((sym, row))
        seen = set()
        level = []
        for mask in range(1 << len(slots)):
            tables = {sym: set() for sym, _ in t.signature.relations}
            for i, (sym, row) in enumerate(slots):
                if mask >> i & 1:
                    tables[sym].add(row)
            m = FiniteModel(size, tables)
            if not is_model(m, t):
                continue
            key = m.canonical()
            if key in seen:
                continue
            seen.add(key)
            level.append((key, m))
        level.sort(key=lambda kv: kv[0])
        out.extend(m for _, m in level)
    return out


def reference_poset_levels(keep):
    """``lattice._poset_levels`` with every grown poset canonicalised."""
    level = [FinPoset(0, [])]
    while level:
        yield level
        nxt = {}
        for p in level:
            for bits in range(1 << p.n):
                leq = [list(row) + [any(row[i] for i in range(p.n) if bits >> i & 1)]
                       for row in p.leq]
                leq.append([False] * p.n + [True])
                q = FinPoset(p.n + 1, leq)
                if keep(q):
                    nxt.setdefault(q.canonical(), q)
        level = list(nxt.values())


PEQ = """theory peq
sig { E/2 }
axiom [x,y] E(x,y) |- E(y,x)
axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)
"""
PQR = """theory pqr
sig { P/1, Q/1, R/1 }
axiom [x,y] P(x) & Q(y) |- R(x) | R(y)
"""
# atoms, equality, meets, joins, existentials, top and bottom
MIXED = """theory mixed
sig { P/1, Q/1, E/2, C/0 }
axiom [x] P(x) |- exists y. E(x,y)
axiom [x,y] E(x,y) |- x = y | C()
axiom [] true |- exists x. P(x) | C()
axiom [x] P(x) & Q(x) |- false
"""
# name -> (theory, bound, number of models up to the bound)
CASES = {
    "peq": (PEQ, 4, 26),
    "pqr": (PQR, 4, 294),
    "unary": ("theory unary\nsig { P/1 }\n", 7, 36),
    "empty": ("theory nothing\nsig { }\n", 3, 4),
    "two-binary": ("theory two\nsig { E/2, F/2 }\n", 2, 141),
    "mixed": (MIXED, 3, 2254),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_enumerate_models_matches_reference(name):
    text, bound, count = CASES[name]
    t = parse_theory(text)
    got = enumerate_models(t, bound)
    want = reference_enumerate_models(t, bound)
    assert got == want
    assert [m.tables for m in got] == [m.tables for m in want]
    assert len(got) == count


def test_resource_guard_unchanged():
    t = parse_theory("theory three\nsig { E/2, F/2, G/2 }\n")
    with pytest.raises(ResourceGuard) as e:
        enumerate_models(t, 3)
    assert str(e.value) == "size 3 needs 2^27 valuations (> 2^22)"


def _levels(gen, n):
    return [list(level) for level in islice(gen, n)]


def test_poset_levels_match_reference():
    def keep(q):
        return True

    assert _levels(lattice._poset_levels(keep), 7) == \
        _levels(reference_poset_levels(keep), 7)


def test_lattice_poset_levels_match_reference():
    def keep(q):
        return len(q.up_sets()) <= 8

    got = list(lattice._poset_levels(keep))
    assert got == list(reference_poset_levels(keep))
    assert sum(map(len, got)) == 36  # A006982: distributive lattices on <= 8


def test_mark_orbit_marks_every_relabeling():
    seen = set()
    seen.update(lattice.relabelings(3, lambda perm: perm))
    assert seen == set(permutations(range(3)))
