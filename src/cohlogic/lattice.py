"""Finite distributive lattices, finite posets as spectral spaces, and the
exact Stone duality between them.

A finite poset stands for a finite spectral space: points, specialization
order x <= y meaning x is in the closure of {y}, opens = up-sets.  A finite
distributive lattice is given by its order relation; meets and joins are
derived and validated on construction.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice, product


class LatticeError(Exception):
    pass


class ResourceGuard(Exception):
    """Raised when an exhaustive search would blow past the configured size."""


MAX_UP_SETS = 256  # most up-sets up_sets lists, so the largest lattice k_o builds


# ---------------------------------------------------------------------------
# posets


class FinPoset:
    """Finite poset on points 0..n-1 with a reflexive-transitive-antisymmetric
    leq matrix.  Opens are up-sets."""

    def __init__(self, n, leq):
        self.n = n
        self.leq = tuple(tuple(bool(v) for v in row) for row in leq)
        if len(self.leq) != n or any(len(r) != n for r in self.leq):
            raise LatticeError("leq matrix shape mismatch")
        # up_bits[i] has bit j set when i <= j, and so has down_bits[j] bit i
        self.up_bits = ups = [sum(1 << j for j, v in enumerate(row) if v)
                              for row in self.leq]
        self.down_bits = [sum(1 << i for i in range(n) if self.leq[i][j])
                          for j in range(n)]
        for i, up in enumerate(ups):
            if not up >> i & 1:
                raise LatticeError(f"not reflexive at {i}")
            for j in bit_positions(up):  # no pair (i, j) with i </= j breaks a law
                if i != j and ups[j] >> i & 1:
                    raise LatticeError(f"not antisymmetric at ({i},{j})")
                if ups[j] & ~up:
                    k = bit_positions(ups[j] & ~up)[0]
                    raise LatticeError(f"not transitive at ({i},{j},{k})")

    def __eq__(self, other):
        return isinstance(other, FinPoset) and self.leq == other.leq

    def __hash__(self):
        return hash(self.leq)

    def __repr__(self):
        return f"FinPoset(n={self.n})"

    def up(self, i):
        return frozenset(j for j in range(self.n) if self.leq[i][j])

    def up_sets(self):
        """All up-sets in a fixed deterministic order (by size then
        contents).  They are found by branching on the least undecided
        point x: x is in, and so is every point above it, or x is out, and
        so is every point below it.  Neither branch meets a point decided
        the other way, so each ends in an up-set and the work follows their
        number.  Raises ResourceGuard on more than MAX_UP_SETS up-sets."""
        out, stack = [], [(0, (1 << self.n) - 1)]  # (points in, undecided)
        while stack:
            ins, rest = stack.pop()
            if not rest:
                if len(out) == MAX_UP_SETS:
                    raise ResourceGuard(f"more than {MAX_UP_SETS} up-sets")
                out.append(frozenset(bit_positions(ins)))
                continue
            x = (rest & -rest).bit_length() - 1
            stack.append((ins, rest & ~self.down_bits[x]))
            stack.append((ins | self.up_bits[x], rest & ~self.up_bits[x]))
        out.sort(key=lambda s: (len(s), sorted(s)))
        return out

    def canonical(self):
        """The isomorphism key: the lexicographically minimal leq encoding
        over all relabellings, found by ``_canonical_step`` without trying
        each of them.  A relabelling perm encodes the leq matrix with its
        rows and columns taken in the order of perm, flattened to bytes;
        bytes of 0 and 1 order like the tuple of bools."""
        best = []
        _canonical_step(self.up_bits, self.down_bits, (), (1 << self.n) - 1, (),
                        best)
        perm = best[1]
        return (self.n, bytes([self.leq[a][b] for a in perm for b in perm]))


def bit_positions(x):
    """The positions of the set bits of x, ascending."""
    return [j for j in range(x.bit_length()) if x >> j & 1]


def _canonical_step(ups, downs, prefix, rest, rows, best):
    """One node of the search for the least leq encoding over all
    relabellings (see ``FinPoset.canonical``), a branch and bound after
    McKay and Piperno's ordered partition refinement.  The code is
    row-major, so the least code has the least row 0, then the least row 1,
    and so on.

    ``prefix`` holds the points placed at positions 0..k-1, and ``rest``
    the others as a bit set.  Position k takes a point x of ``rest``, and
    its least row is leq[x][prefix], then 1, then the points of ``rest``
    not above x before those above x.  A point x below some z of ``rest``
    never has the least row: z is below no placed point that x is not
    below, and z is above fewer points of ``rest``.  So x is maximal in
    ``rest``, the refinement's cell ``rest`` never splits, and the row is
    leq[x][prefix] then 1 then zeros: the rows compare by their first k
    bits, kept in ``rows`` as integers.  Only the x whose bits are least
    stay; ties branch.  A node whose rows exceed those of the best complete
    code ``best`` = [rows, perm] is pruned.  Twins, points of equal strict
    up- and down-sets, are swapped by an automorphism that fixes the
    prefix, so only the first of them is tried."""
    if not rest:
        if not best or rows < best[0]:
            best[:] = [rows, prefix]
        return
    least, tied = None, []
    for x in bit_positions(rest):
        if ups[x] & rest != 1 << x:
            continue
        row = 0
        for p in prefix:
            row = row << 1 | downs[p] >> x & 1
        if least is None or row < least:
            least, tied = row, [x]
        elif row == least:
            tied.append(x)
    rows += (least,)
    if best and rows > best[0][:len(rows)]:
        return
    tried = set()
    for x in tied:
        twin = (ups[x] & ~(1 << x), downs[x] & ~(1 << x))
        if twin not in tried:
            tried.add(twin)
            _canonical_step(ups, downs, prefix + (x,), rest & ~(1 << x), rows, best)


def poset_from_pairs(n, pairs):
    """Poset from a list of generating i <= j pairs (transitively closed)."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        leq[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    return FinPoset(n, leq)


def discrete_poset(n):
    return FinPoset(n, [[i == j for j in range(n)] for i in range(n)])


class _Map:
    """A map given by its values; each subclass checks its own laws."""

    def __init__(self, source, target, values):
        self.source = source
        self.target = target
        self.values = _values(values, source.n, target.n)

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.source == other.source
            and self.target == other.target
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.source, self.target, self.values))

    def __call__(self, i):
        return self.values[i]

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise LatticeError("composition mismatch")
        return type(self)(other.source, self.target, [self.values[v] for v in other.values])


class MonotoneMap(_Map):
    def __init__(self, source, target, values):
        super().__init__(source, target, values)
        for i in range(source.n):
            for j in range(source.n):
                if source.leq[i][j] and not target.leq[self.values[i]][self.values[j]]:
                    raise LatticeError(f"not monotone at ({i},{j})")

    def image(self, s):
        return frozenset(self.values[i] for i in s)

    def preimage(self, s):
        return frozenset(i for i in range(self.source.n) if self.values[i] in s)


def monotone_maps(x, y):
    """All monotone maps x -> y, deterministic order."""
    out = []
    for values in product(range(y.n), repeat=x.n):
        ok = all(
            not x.leq[i][j] or y.leq[values[i]][values[j]]
            for i in range(x.n)
            for j in range(x.n)
        )
        if ok:
            out.append(MonotoneMap(x, y, values))
    return out


def is_open_map(g):
    """True iff the image of every up-set is an up-set.

    Every up-set is a union of principal ones and images commute with
    unions, so it is enough that the image of each up(p) is an up-set:
    whenever f(p) <= y there must be some p' >= p with f(p') = y."""
    for p in range(g.source.n):
        for y in range(g.target.n):
            if g.values[p] != y and g.target.leq[g.values[p]][y]:
                if not any(
                    g.source.leq[p][q] and g.values[q] == y
                    for q in range(g.source.n)
                ):
                    return False
    return True


def _values(values, n, m):
    """values as a tuple, checked to be a function range(n) -> range(m)."""
    values = tuple(values)
    if len(values) != n:
        raise LatticeError(f"expected {n} values, got {len(values)}")
    for v in values:
        if type(v) is not int or not 0 <= v < m:
            raise LatticeError(f"value {v!r} is not one of 0..{m - 1}")
    return values


def _poset_levels(keep):
    """Lists of posets on 0, 1, 2, ... points, one per isomorphism class in
    the order found, each list grown from the one before by a new maximal
    point.  Every poset on n + 1 points arises so, by deleting a maximal
    point.  A grown poset q is kept, and grown further, only when keep(q)
    holds, so keep must fail again on every poset grown from one it
    rejects.  keep is asked first, and only a poset it accepts is keyed by
    ``canonical()``: the first of each key is kept, and a later one is
    dropped unseen, so keep must not tell isomorphic posets apart.  A
    level is grown only when the next list is asked for."""
    level = [FinPoset(0, [])]
    while level:
        yield level
        nxt = {}
        for p in level:
            # the new point p.n lies above the down-closure of each subset
            for bits in range(1 << p.n):
                leq = tuple(row + (any(row[i] for i in range(p.n) if bits >> i & 1),)
                            for row in p.leq) + ((False,) * p.n + (True,),)
                q = FinPoset(p.n + 1, leq)
                if keep(q):
                    nxt.setdefault(q.canonical(), q)
        level = list(nxt.values())


def all_posets(max_n):
    """All posets with at most max_n points, one per isomorphism class."""
    levels = islice(_poset_levels(lambda q: True), max_n + 1)
    return sorted((p for level in levels for p in level), key=FinPoset.canonical)


# ---------------------------------------------------------------------------
# lattices


class FinDistLattice:
    """Finite distributive lattice on elements 0..n-1 given by its order."""

    def __init__(self, n, leq):
        if n == 0:
            raise LatticeError("lattice must be non-empty")
        self.poset = FinPoset(n, leq)
        self.n = n
        self.leq = self.poset.leq
        # meet(a, b) is the element whose down-set is down(a) & down(b), and
        # join(a, b) the one whose up-set is up(a) & up(b), when there is one
        ups, downs = self.poset.up_bits, self.poset.down_bits
        by_up = {u: c for c, u in enumerate(ups)}
        by_down = {d: c for c, d in enumerate(downs)}
        self._meet = meet = [[None] * n for _ in range(n)]
        self._join = join = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                meet[a][b] = by_down.get(downs[a] & downs[b])
                if meet[a][b] is None:
                    raise LatticeError(f"no meet for ({a},{b})")
                join[a][b] = by_up.get(ups[a] & ups[b])
                if join[a][b] is None:
                    raise LatticeError(f"no join for ({a},{b})")
        # every pair has a meet and a join, so there are a bottom and a top
        self.bot, self.top = by_up[(1 << n) - 1], by_down[(1 << n) - 1]
        for a in range(n):
            ma = meet[a]
            for b in range(n):
                jb, mab = join[b], ma[b]
                for c in range(n):
                    if ma[jb[c]] != join[mab][ma[c]]:
                        raise LatticeError(f"not distributive at ({a},{b},{c})")

    def __eq__(self, other):
        return isinstance(other, FinDistLattice) and self.leq == other.leq

    def __hash__(self):
        return hash(self.leq)

    def __repr__(self):
        return f"FinDistLattice(n={self.n})"

    def meet(self, a, b):
        return self._meet[a][b]

    def join(self, a, b):
        return self._join[a][b]

    def meet_all(self, items):
        return reduce(self.meet, items, self.top)

    def join_all(self, items):
        return reduce(self.join, items, self.bot)

    def covers(self):
        """All covering pairs (a, b) with a < b and nothing in between: the
        points from a to b are a and b alone."""
        ups, downs = self.poset.up_bits, self.poset.down_bits
        return [(a, b) for a in range(self.n) for b in bit_positions(ups[a])
                if a != b and ups[a] & downs[b] == 1 << a | 1 << b]

    def canonical(self):
        return self.poset.canonical()


def chain(n):
    return FinDistLattice(n, [[i <= j for j in range(n)] for i in range(n)])


class LatticeHom(_Map):
    def __init__(self, source, target, values):
        super().__init__(source, target, values)
        if self.values[source.bot] != target.bot:
            raise LatticeError("does not preserve bottom")
        if self.values[source.top] != target.top:
            raise LatticeError("does not preserve top")
        v = self.values
        for a in range(source.n):
            for b in range(source.n):
                if v[source.meet(a, b)] != target.meet(v[a], v[b]):
                    raise LatticeError(f"does not preserve meet at ({a},{b})")
                if v[source.join(a, b)] != target.join(v[a], v[b]):
                    raise LatticeError(f"does not preserve join at ({a},{b})")


def identity_hom(l):
    return LatticeHom(l, l, range(l.n))


# ---------------------------------------------------------------------------
# duality


def join_irreducibles(l):
    """Elements other than bottom that are not a join of strictly smaller
    ones, that is not the join of all of them."""
    downs = l.poset.down_bits
    return [j for j in range(l.n) if j != l.bot
            and l.join_all(bit_positions(downs[j] & ~(1 << j))) != j]


def prime_filters(l):
    """All prime filters of l, deterministic order (by size then contents).

    In a finite distributive lattice every prime filter is the principal
    filter of its minimum, which is join-irreducible, and conversely."""
    out = [
        frozenset(a for a in range(l.n) if l.leq[j][a]) for j in join_irreducibles(l)
    ]
    out.sort(key=lambda f: (len(f), sorted(f)))
    return out


def spec(l):
    """Prime-filter spectrum as a poset: F <= G iff F is a subset of G."""
    filters = prime_filters(l)
    n = len(filters)
    leq = [[filters[i] <= filters[j] for j in range(n)] for i in range(n)]
    return FinPoset(n, leq), filters


def k_o(x):
    """Lattice of up-sets (= compact opens) of a poset, with the up-set list.
    Raises ResourceGuard on more than MAX_UP_SETS up-sets."""
    ups = x.up_sets()
    n = len(ups)
    leq = [[ups[i] <= ups[j] for j in range(n)] for i in range(n)]
    return FinDistLattice(n, leq), ups


def _evaluation_is_iso(x, duals, y, elements):
    """The double-dual check: is a |-> {i : a in duals[i]} an order
    isomorphism from x onto y, whose element j is the set elements[j]?
    Reflecting the order of the antisymmetric x makes it one-to-one."""
    index = {u: j for j, u in enumerate(elements)}
    mapped = [index.get(frozenset(i for i, d in enumerate(duals) if a in d))
              for a in range(x.n)]
    if y.n != x.n or None in mapped:
        return False
    return all(
        x.leq[a][b] == y.leq[mapped[a]][mapped[b]]
        for a in range(x.n)
        for b in range(x.n)
    )


def duality_roundtrip_lattice(l):
    """Check that a |-> {F : a in F} is an isomorphism l -> k_o(spec(l))."""
    x, filters = spec(l)
    return _evaluation_is_iso(l, filters, *k_o(x))


def duality_roundtrip_poset(x):
    """Check that p |-> {U : p in U} is an isomorphism x -> spec(k_o(x))."""
    l, ups = k_o(x)
    return _evaluation_is_iso(x, ups, *spec(l))


def dual_hom(f):
    """Spectral map spec(target) -> spec(source), F' |-> f^{-1}(F')."""
    xt, filters_t = spec(f.target)
    xs, filters_s = spec(f.source)
    index = {fl: i for i, fl in enumerate(filters_s)}
    values = []
    for fl in filters_t:
        pre = frozenset(a for a in range(f.source.n) if f(a) in fl)
        values.append(index[pre])
    return MonotoneMap(xt, xs, values)


def dual_lattice_hom(g):
    """Lattice hom k_o(target) -> k_o(source) of a monotone map g, U |-> g^{-1}(U)."""
    lt, ups_t = k_o(g.target)
    ls, ups_s = k_o(g.source)
    index = {u: i for i, u in enumerate(ups_s)}
    return LatticeHom(lt, ls, [index[g.preimage(u)] for u in ups_t])


# ---------------------------------------------------------------------------
# adjoints, Frobenius, Beck-Chevalley


def left_adjoint(f):
    """Left adjoint h of a lattice hom f: h(b) = meet {a : b <= f(a)}.

    Verifies h(b) <= a iff b <= f(a) for all pairs; raises on failure (can
    only happen for inputs that are not actual homs)."""
    src, tgt = f.source, f.target
    values = []
    for b in range(tgt.n):
        cands = [a for a in range(src.n) if tgt.leq[b][f(a)]]
        values.append(src.meet_all(cands))
    for b in range(tgt.n):
        for a in range(src.n):
            if src.leq[values[b]][a] != tgt.leq[b][f(a)]:
                raise LatticeError(f"adjunction fails at (b={b}, a={a})")
    return values


def check_frobenius(h, f):
    """h a left adjoint of the hom f (as a value list).  True iff
    h(a /\\ f(b)) = h(a) /\\ b for all a, b; else first (a, b) witness.

    The <= direction always holds for adjoints; it is asserted here."""
    src, tgt = f.source, f.target
    for a in range(tgt.n):
        for b in range(src.n):
            lhs = h[tgt.meet(a, f(b))]
            rhs = src.meet(h[a], b)
            if not src.leq[lhs][rhs]:
                raise LatticeError(f"automatic inequality fails at ({a},{b})")
            if lhs != rhs:
                return False, (a, b)
    return True, None


def check_bc_square(f, g, h, k):
    """Beck-Chevalley for a commuting square of open monotone maps

        A --f--> B
        |        |
        g        h
        v        v
        C --k--> D

    True iff k^{-1}(h(U)) is contained in g(f^{-1}(U)) for every up-set U of
    B; the reverse inclusion holds automatically and is asserted.  Both
    sides commute with unions, so checking the principal up-sets up(p)
    decides the general case without enumerating all up-sets."""
    if h.compose(f) != k.compose(g):
        raise LatticeError("square does not commute")
    for m in (f, g, h, k):
        if not is_open_map(m):
            raise LatticeError("map in square is not open")
    for u in (f.target.up(p) for p in range(f.target.n)):
        lhs = k.preimage(h.image(u))
        rhs = g.image(f.preimage(u))
        if not rhs <= lhs:
            raise LatticeError(f"automatic inclusion fails at U={sorted(u)}")
        if not lhs <= rhs:
            return False, u
    return True, None


def universal_map_surjective(f, g, h, k):
    """For the same square: is A -> B x_D C, a |-> (f(a), g(a)), surjective?"""
    if h.compose(f) != k.compose(g):
        raise LatticeError("square does not commute")
    fiber = {
        (b, c)
        for b in range(f.target.n)
        for c in range(g.target.n)
        if h(b) == k(c)
    }
    hit = {(f(a), g(a)) for a in range(f.source.n)}
    missing = sorted(fiber - hit)
    return not missing, (missing[0] if missing else None)


# ---------------------------------------------------------------------------
# enumeration of all small distributive lattices

def all_dist_lattices(max_n):
    """All distributive lattices with at most max_n elements, one per iso
    class, via Birkhoff: down-set lattices of posets of join-irreducibles.

    Adding a point to a poset never shrinks its down-set count, so posets are
    grown one maximal point at a time and pruned once the count exceeds
    max_n.  A poset has as many down-sets as up-sets (their complements),
    and its down-sets are the up-sets of its opposite.  Isomorphic posets
    have equal counts, so a poset rejected by its count before it is
    canonicalised is never needed for dedupe."""
    levels = _poset_levels(lambda q: len(q.up_sets()) <= max_n)
    opposites = (FinPoset(p.n, list(zip(*p.leq))) for level in levels for p in level)
    return sorted((k_o(x)[0] for x in opposites), key=FinDistLattice.canonical)


# ---------------------------------------------------------------------------
# JSON serialization


def poset_to_json(p):
    return {
        "elements": p.n,
        "leq": [[i, j] for i in range(p.n) for j in range(p.n) if p.leq[i][j]],
    }


def poset_from_json(obj):
    n, pairs = obj.get("elements"), obj.get("leq")
    if type(n) is not int or n < 0 or not isinstance(pairs, list):
        raise LatticeError("a poset needs a natural number of elements and "
                           "a list of leq pairs")
    leq = [[False] * n for _ in range(n)]
    for pair in pairs:
        if not isinstance(pair, list):
            raise LatticeError(f"leq entry {pair!r} is not a pair")
        i, j = _values(pair, 2, n)
        leq[i][j] = True
    return FinPoset(n, leq)


def lattice_to_json(l):
    return poset_to_json(l.poset)


def lattice_from_json(obj):
    p = poset_from_json(obj)
    return FinDistLattice(p.n, p.leq)
