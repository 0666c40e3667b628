"""Differential tests: isomorph-free generation against the plain scans.

``reference_enumerate_models`` builds a ``FiniteModel`` for every mask of
the table space, keeps the models and canonicalises each one, keeping the
first of every class.  ``orbit_marking_reference`` is the generation that
``enumerate_models`` replaced: partial tables pruned by monotonicity with
every axiom re-evaluated at every search node, and two passes over all
relabelings per class, one to mark the orbit and one to canonicalise.
Both take the class key as ``reference_model_canonical``, a loop over all
relabelings.  ``reference_poset_levels`` grows posets by a new maximal
point and marks the whole orbit of every poset it keeps.  The fast versions
close orbits under generators and key each kept poset by its canonical
form instead, and must give the same objects: the same models with the
same tables, the same representatives and the same order.
"""

import hashlib
from itertools import islice, product

import pytest

from test_iso_reference import reference_mark_orbit, reference_model_canonical

from cohlogic import lattice, semantics
from cohlogic.lattice import FinPoset
from cohlogic.semantics import (
    GUARD_BITS,
    FiniteModel,
    ResourceGuard,
    enumerate_models,
    extension,
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
            key = reference_model_canonical(m)
            if key in seen:
                continue
            seen.add(key)
            level.append((key, m))
        level.sort(key=lambda kv: kv[0])
        out.extend(m for _, m in level)
    return out


class _Valuation:
    """The tables of a mask over slots: slot i, a (symbol, row) pair, is in
    its table when bit i is set."""

    blocks = 1

    def __init__(self, size, slots, mask):
        self.size = size
        self.tables = {}
        for i, (sym, row) in enumerate(slots):
            if mask >> i & 1:
                self.tables.setdefault(sym, []).append(row)


def _reference_model_masks(size, slots, axioms):
    """The masks over slots that satisfy every axiom, in ascending order,
    with both sides of every axiom evaluated afresh at each search node."""
    lhs = [(ax.lhs, ax.ctx) for ax in axioms]
    rhs = [(ax.rhs, ax.ctx) for ax in axioms]

    def ext(mask, side):
        v, memo = _Valuation(size, slots, mask), {}
        return [extension(v, phi, n, memo) for phi, n in side]

    stack = [(0, len(slots), ext(0, lhs), ext((1 << len(slots)) - 1, rhs))]
    while stack:
        mask, i, lower, upper = stack.pop()
        if any(lo & ~up for lo, up in zip(lower, upper)):
            continue
        if not i:
            yield mask
            continue
        i -= 1
        one = mask | 1 << i
        stack.append((one, i, ext(one, lhs), upper))
        stack.append((mask, i, lower, ext(mask | (1 << i) - 1, rhs)))


def orbit_marking_reference(t, max_size):
    """``enumerate_models`` with the orbit of each class marked by one pass
    over all relabelings and its key taken by another."""
    for size in range(max_size + 1):
        bits = sum(size ** ar for _, ar in t.signature.relations)
        if bits > GUARD_BITS:
            raise ResourceGuard(
                f"size {size} needs 2^{bits} valuations (> 2^{GUARD_BITS})"
            )
    out = []
    for size in range(max_size + 1):
        slots = [(sym, row) for sym, ar in t.signature.relations
                 for row in product(range(size), repeat=ar)]
        index = {slot: i for i, slot in enumerate(slots)}
        seen = set()
        level = []
        for mask in _reference_model_masks(size, slots, t.axioms):
            if mask in seen:
                continue
            rows = [slot for i, slot in enumerate(slots) if mask >> i & 1]
            tables = {sym: set() for sym, _ in t.signature.relations}
            for sym, row in rows:
                tables[sym].add(row)
            m = FiniteModel(size, tables)
            if not is_model(m, t):
                continue
            reference_mark_orbit(seen, size, lambda perm: sum(
                1 << index[sym, tuple(perm[v] for v in row)] for sym, row in rows))
            level.append((reference_model_canonical(m), m))
        level.sort(key=lambda kv: kv[0])
        out.extend(m for _, m in level)
    return out


def reference_poset_levels(keep):
    """``lattice._poset_levels`` by orbit marking: a grown poset that keep
    accepts, and whose leq matrix no kept poset has marked, is kept and
    marks every relabeling of its matrix."""
    level = [FinPoset(0, [])]
    while level:
        yield level
        nxt, seen = [], set()
        for p in level:
            for bits in range(1 << p.n):
                leq = [list(row) + [any(row[i] for i in range(p.n) if bits >> i & 1)]
                       for row in p.leq]
                leq.append([False] * p.n + [True])
                q = FinPoset(p.n + 1, leq)
                if q.leq not in seen and keep(q):
                    reference_mark_orbit(seen, q.n, lambda perm: tuple(
                        tuple(q.leq[a][b] for b in perm) for a in perm))
                    nxt.append(q)
        level = nxt


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
    assert got == orbit_marking_reference(t, bound)
    for size in range(bound + 1):
        for key, m in semantics._classes(t, size):
            assert key == reference_model_canonical(m)


EP = """theory ep
sig { E/2, P/1 }
axiom [x] P(x) |- exists y. E(x,y) & P(y)
axiom [x,y] E(x,y) & P(x) |- x = y | P(y)
axiom [x,y] E(x,y) & E(y,x) |- x = y
"""


@pytest.mark.parametrize("name, size", [
    (name, size) for name in ("pqr", "peq", "ep") for size in range(4)
] + [("mixed", size) for size in range(3)])
def test_model_masks_are_the_models(name, size):
    # _classes keeps every mask _model_masks yields without testing it, so
    # they must be exactly the masks whose tables are models
    t = parse_theory({"pqr": PQR, "peq": PEQ, "ep": EP, "mixed": MIXED}[name])
    blocks, off = [], 0
    for sym, ar in t.signature.relations:
        rows = list(product(range(size), repeat=ar))
        blocks.append((sym, off, rows))
        off += len(rows)

    def ones(v):
        return tuple(lattice.bit_positions(v))

    want = [mask for mask in range(1 << off) if is_model(
        FiniteModel(size, semantics._tables(blocks, mask, ones)), t)]
    assert list(semantics._model_masks(size, blocks, t.axioms)) == want


def _digest(models):
    return hashlib.sha256(repr([
        (m.size, sorted((s, sorted(r)) for s, r in m.tables.items()))
        for m in models]).encode()).hexdigest()


def test_two_binary_size_three_list_is_pinned():
    # 2^18 table valuations at size 3, no axioms; the digest was taken from
    # the orbit-marking generation
    t = parse_theory("theory two\nsig { E/2, F/2 }\n")
    ms = enumerate_models(t, 3)
    assert len(ms) == 44365
    assert _digest(ms) == \
        "d1ad7680f901ff4301cecd1f19965015e58695594c99d5648e50677c5ef39f38"
    level = semantics._classes(t, 3)
    assert [m for _, m in level] == ms[-len(level):]
    assert all(key == reference_model_canonical(m) for key, m in level)


@pytest.mark.parametrize("name, most", [
    ("mixed", 250_000),  # 406,608 with every axiom re-read at every node
    ("pqr", 15_000),  # 21,042 so
    ("unary", 0), ("empty", 0), ("two-binary", 0),
])
def test_model_search_work_is_bounded(monkeypatch, name, most):
    text, bound, _ = CASES[name]
    calls = []

    def counted(*args):
        calls.append(None)
        return extension(*args)

    monkeypatch.setattr(semantics, "extension", counted)
    enumerate_models(parse_theory(text), bound)
    assert len(calls) <= most


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
