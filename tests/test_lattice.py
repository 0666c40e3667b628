from itertools import product

import pytest

from test_iso_reference import reference_poset_canonical

from cohlogic.lattice import (
    MAX_UP_SETS,
    FinDistLattice,
    FinPoset,
    LatticeError,
    LatticeHom,
    MonotoneMap,
    _evaluation_is_iso,
    all_dist_lattices,
    all_posets,
    chain,
    check_bc_square,
    check_frobenius,
    discrete_poset,
    dual_hom,
    dual_lattice_hom,
    duality_roundtrip_lattice,
    duality_roundtrip_poset,
    identity_hom,
    is_open_map,
    join_irreducibles,
    k_o,
    lattice_from_json,
    lattice_to_json,
    left_adjoint,
    monotone_maps,
    poset_from_pairs,
    prime_filters,
    ResourceGuard,
    spec,
    universal_map_surjective,
)


def diamond():
    # bottom 0, atoms 1 and 2, top 3
    return FinDistLattice(
        4,
        [
            [True, True, True, True],
            [False, True, False, True],
            [False, False, True, True],
            [False, False, False, True],
        ],
    )


def test_lattice_construction_rejects_non_lattice():
    # two incomparable points, no bounds
    with pytest.raises(LatticeError):
        FinDistLattice(2, [[True, False], [False, True]])


def test_chain_basics():
    c = chain(3)
    assert c.bot == 0 and c.top == 2
    assert c.meet(1, 2) == 1 and c.join(0, 1) == 1
    assert c.covers() == [(0, 1), (1, 2)]


def test_spec_two_chain():
    x, filters = spec(chain(2))
    assert x.n == 1
    assert filters == [frozenset({1})]


def test_spec_three_chain():
    x, filters = spec(chain(3))
    assert x.n == 2
    assert filters == [frozenset({2}), frozenset({1, 2})]
    # non-discrete: the two points are comparable
    assert x.leq[0][1] or x.leq[1][0]
    assert not (x.leq[0][1] and x.leq[1][0])


def test_spec_diamond_is_discrete():
    x, filters = spec(diamond())
    assert x.n == 2
    assert not x.leq[0][1] and not x.leq[1][0]


def test_k_o_examples():
    l1, _ = k_o(discrete_poset(1))
    assert l1.canonical() == chain(2).canonical()
    l2, _ = k_o(discrete_poset(2))
    assert l2.canonical() == diamond().canonical()
    l3, _ = k_o(poset_from_pairs(2, [(0, 1)]))
    assert l3.canonical() == chain(3).canonical()
    assert chain(4).canonical() != diamond().canonical()


def test_duality_roundtrips_basic():
    for l in (chain(1), chain(2), chain(4), diamond()):
        assert duality_roundtrip_lattice(l)
    for x in (discrete_poset(0), discrete_poset(3), poset_from_pairs(3, [(0, 1), (1, 2)])):
        assert duality_roundtrip_poset(x)


def test_evaluation_is_iso_rejects_broken_double_duals():
    # both round trips share this body; valid inputs never make it fail
    l = chain(3)
    x, filters = spec(l)
    l2, ups = k_o(x)
    assert _evaluation_is_iso(l, filters, l2, ups)
    assert not _evaluation_is_iso(l, filters[:-1], l2, ups)  # image not an up-set
    assert not _evaluation_is_iso(l, [filters[0]] * 2, l2, ups)  # duplicated image
    reversed_ = FinPoset(l2.n, list(zip(*l2.leq)))
    assert not _evaluation_is_iso(l, filters, reversed_, ups)  # order reversed
    assert not _evaluation_is_iso(l, filters, *k_o(discrete_poset(2)))  # sizes differ


def test_dual_hom_identity_and_terminal():
    l = diamond()
    d = dual_hom(identity_hom(l))
    assert d.values == tuple(range(d.source.n))
    # unique hom 2-chain -> diamond
    f = LatticeHom(chain(2), l, [0, 3])
    d = dual_hom(f)
    assert d.target.n == 1
    assert all(v == 0 for v in d.values)


def test_dual_hom_preimage_of_basic_opens():
    # inclusion 3-chain -> diamond: 0->0, a->1, 1->3
    f = LatticeHom(chain(3), diamond(), [0, 1, 3])
    xt, filters_t = spec(f.target)
    xs, filters_s = spec(f.source)
    d = dual_hom(f)
    for a in range(f.source.n):
        u_a = frozenset(i for i, fl in enumerate(filters_s) if a in fl)
        u_fa = frozenset(i for i, fl in enumerate(filters_t) if f(a) in fl)
        assert d.preimage(u_a) == u_fa


def test_dual_hom_contravariant():
    f = LatticeHom(chain(2), chain(3), [0, 2])
    g = LatticeHom(chain(3), diamond(), [0, 1, 3])
    lhs = dual_hom(g.compose(f))
    rhs = dual_hom(f).compose(dual_hom(g))
    assert lhs == rhs


def test_left_adjoint_examples():
    l = chain(3)
    f = LatticeHom(chain(2), l, [0, 2])
    h = left_adjoint(f)
    assert h == [0, 1, 1]
    assert left_adjoint(identity_hom(l)) == list(range(3))
    assert h[l.bot] == chain(2).bot


def test_frobenius_identity_pair():
    l = diamond()
    f = identity_hom(l)
    ok, w = check_frobenius(left_adjoint(f), f)
    assert ok and w is None


def test_open_map_examples():
    x = discrete_poset(2)
    y = discrete_poset(1)
    assert is_open_map(MonotoneMap(x, x, [0, 1]))
    assert is_open_map(MonotoneMap(x, y, [0, 0]))
    c = poset_from_pairs(2, [(0, 1)])
    collapse = MonotoneMap(c, c, [0, 0])
    assert not is_open_map(collapse)


def test_openness_iff_adjoint_frobenius_small():
    posets = [p for p in all_posets(3) if p.n > 0]
    for x in posets:
        for y in posets:
            for g in monotone_maps(x, y):
                hom = dual_lattice_hom(g)
                h = left_adjoint(hom)
                ok, _ = check_frobenius(h, hom)
                assert ok == is_open_map(g), (x, y, g.values)


def test_bc_identity_square():
    x = discrete_poset(2)
    i = MonotoneMap(x, x, [0, 1])
    ok, w = check_bc_square(i, i, i, i)
    assert ok
    assert universal_map_surjective(i, i, i, i)[0]


def test_bc_iff_surjective_universal_map_spotcheck():
    # non-surjective: A = 1 point, B = C = 1 point, D = 1 point but fiber
    # product has extra pairs when B, C are 2 points mapping to 1
    a = discrete_poset(1)
    bc = discrete_poset(2)
    d = discrete_poset(1)
    f = MonotoneMap(a, bc, [0])
    g = MonotoneMap(a, bc, [0])
    h = MonotoneMap(bc, d, [0, 0])
    k = MonotoneMap(bc, d, [0, 0])
    surj, _ = universal_map_surjective(f, g, h, k)
    assert not surj
    ok, _ = check_bc_square(f, g, h, k)
    assert not ok


def test_all_posets_counts():
    # OEIS A000112: unlabeled posets on n points
    counts = {}
    for p in all_posets(6):
        counts[p.n] = counts.get(p.n, 0) + 1
    assert counts == {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}
    assert sum(counts.values()) == 406


def test_all_dist_lattices_counts():
    counts = {}
    for l in all_dist_lattices(6):
        counts[l.n] = counts.get(l.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5}
    # independent cross-check: filter all posets on <= 5 points for being
    # distributive lattices
    brute = 0
    for p in all_posets(5):
        if p.n == 0:
            continue
        try:
            FinDistLattice(p.n, p.leq)
            brute += 1
        except LatticeError:
            pass
    assert brute == 1 + 1 + 1 + 2 + 3


def _count_downsets(p):
    n = 0
    for bits in range(1 << p.n):
        s = {i for i in range(p.n) if bits >> i & 1}
        if all(p.leq[j][i] <= (j in s) for i in s for j in range(p.n)):
            n += 1
    return n


def _downset_lattice(p):
    downs = []
    for bits in range(1 << p.n):
        s = frozenset(i for i in range(p.n) if bits >> i & 1)
        if all(p.leq[j][i] <= (j in s) for i in s for j in range(p.n)):
            downs.append(s)
    downs.sort(key=lambda s: (len(s), sorted(s)))
    n = len(downs)
    leq = [[downs[i] <= downs[j] for j in range(n)] for i in range(n)]
    return FinDistLattice(n, leq)


def reference_all_dist_lattices(max_n):
    """all_dist_lattices as first written: every grown poset is
    canonicalised before its down-set count is tested.  Its key is the loop
    over all relabelings, so it does not share the code under test."""
    out = []
    frontier = [FinPoset(0, [])]
    seen = {reference_poset_canonical(FinPoset(0, []))}
    while frontier:
        nxt = []
        for p in frontier:
            out.append(_downset_lattice(p))
            for bits in range(1 << p.n):
                below = [i for i in range(p.n) if bits >> i & 1]
                leq = [list(row) + [False] for row in p.leq]
                leq.append([False] * p.n + [True])
                for i in below:
                    for j in range(p.n):
                        if p.leq[j][i]:
                            leq[j][p.n] = True
                try:
                    q = FinPoset(p.n + 1, leq)
                except LatticeError:
                    continue
                key = reference_poset_canonical(q)
                if key in seen:
                    continue
                seen.add(key)
                if _count_downsets(q) <= max_n:
                    nxt.append(q)
        frontier = nxt
    out.sort(key=lambda l: reference_poset_canonical(l.poset))
    return out


@pytest.mark.parametrize("max_n", range(8))
def test_all_dist_lattices_match_reference(max_n):
    got = all_dist_lattices(max_n)
    want = reference_all_dist_lattices(max_n)
    assert [l.canonical() for l in got] == [l.canonical() for l in want]
    assert got == want


def test_prime_filters_diamond():
    fs = prime_filters(diamond())
    assert fs == [frozenset({1, 3}), frozenset({2, 3})]


def test_lattice_json_roundtrip():
    l = diamond()
    assert lattice_from_json(lattice_to_json(l)) == l


def _prime_filters_brute(l):
    """Reference implementation by exhaustive subset search (test oracle)."""
    out = []
    for bits in range(1, 1 << l.n):
        f = frozenset(a for a in range(l.n) if bits >> a & 1)
        if l.bot in f:
            continue
        if not all(l.leq[a][b] <= (b in f) for a in f for b in range(l.n)):
            continue
        if not all(l.meet(a, b) in f for a in f for b in f):
            continue
        prime = True
        for a in range(l.n):
            for b in range(l.n):
                if l.join(a, b) in f and a not in f and b not in f:
                    prime = False
        if prime:
            out.append(f)
    out.sort(key=lambda f: (len(f), sorted(f)))
    return out


def test_prime_filters_match_brute_force():
    for l in all_dist_lattices(6):
        assert prime_filters(l) == _prime_filters_brute(l)


def reference_poset_error(n, leq):
    """The first law the original FinPoset constructor found broken."""
    for i in range(n):
        if not leq[i][i]:
            return f"not reflexive at {i}"
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return f"not antisymmetric at ({i},{j})"
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    return f"not transitive at ({i},{j},{k})"
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_finposet_checks_match_reference(n):
    # every 0/1 matrix on n <= 3 points, the reflexive ones among them
    for bits in product((False, True), repeat=n * n):
        leq = [list(bits[i * n:(i + 1) * n]) for i in range(n)]
        want = reference_poset_error(n, leq)
        try:
            FinPoset(n, leq)
            got = None
        except LatticeError as e:
            got = str(e)
        assert got == want, leq


def test_up_sets_are_bounded_by_their_number():
    assert len(discrete_poset(8).up_sets()) == MAX_UP_SETS == 256
    with pytest.raises(ResourceGuard, match="more than 256 up-sets"):
        discrete_poset(9).up_sets()
    chain40 = poset_from_pairs(40, [(i, i + 1) for i in range(39)])
    assert [len(u) for u in chain40.up_sets()] == list(range(41))


def test_covers_bounds_and_join_irreducibles_match_definitions():
    # covers, bottom, top and join-irreducibles as first written: pair and
    # triple loops over the order, meet and join tables
    for l in all_dist_lattices(8):
        n = l.n
        assert l.covers() == [
            (a, b) for a in range(n) for b in range(n)
            if a != b and l.leq[a][b] and not any(
                c not in (a, b) and l.leq[a][c] and l.leq[c][b] for c in range(n))]
        bot = top = 0
        for a in range(n):
            bot, top = l.meet(bot, a), l.join(top, a)
        assert (l.bot, l.top) == (bot, top)
        assert join_irreducibles(l) == [
            j for j in range(n) if j != bot and all(
                l.join(a, b) != j or j in (a, b) for a in range(n) for b in range(n))]
