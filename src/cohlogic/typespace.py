"""Finite approximations of the type space functor, interpretations as
1-cells, morphisms of interpretations as 2-cells, and the Beck-Chevalley
checkers on approximations.

An approximation collects the depth-d truth profiles of all tuples in all
models up to a size bound B, per arity n <= N.  Index maps f: n -> m are
tuples of length n with 1-based values in 1..m, acting by restriction."""

from __future__ import annotations

from itertools import product

from . import calculus, lattice
from .semantics import (
    enumerate_models,
    eval_formula,
    gamma_star,
    model_profiles,
    profile,
    tuple_index,
)
from .syntax import (
    And,
    Atom,
    Eq,
    Exists,
    Or,
    Record,
    Sequent,
    _enum,
    all_maps,
    check_formula,
    enum_formulas,
    exists,
    join,
    meet,
    normalize,
    reindex,
)


class TypeSpaceError(Exception):
    pass


def identity_index_map(n):
    return tuple(range(1, n + 1))


def compose_maps(g, f):
    """g after f, for f: n -> m and g: m -> l."""
    return tuple(g[v - 1] for v in f)


def times_k(f, k):
    """f applied blockwise to k-blocks: nk -> mk."""
    out = []
    for v in f:
        out.extend((v - 1) * k + t for t in range(1, k + 1))
    return tuple(out)


def direct_image_formula(phi, f, n, m):
    """Formula for the image along f: n -> m of [phi], phi in context m:
    exists y1..ym (phi(y) /\\ /\\_i xi = y_f(i)), in context n."""
    out = meet(reindex(phi, tuple(range(n + 1, n + m + 1)), n + m),
               *[Eq(i, n + f[i - 1]) for i in range(1, n + 1)])
    for _ in range(m):
        out = exists(out)
    return out


def preimage_formula(psi, f, m):
    """Formula for the preimage along f: n -> m of [psi], psi in context n."""
    return reindex(psi, f, m)


# ---------------------------------------------------------------------------
# interpretations


class Interpretation(Record):
    _fields = ("source", "target", "k", "mapping")

    def __init__(self, source, target, k, mapping):
        # mapping: relation symbol (and "=") -> target formula on k-blocks
        if k < 1:
            raise TypeSpaceError("arity k must be at least 1")
        if "=" not in mapping:
            raise TypeSpaceError("interpretation must map equality")
        check_formula(target.signature, mapping["="], 2 * k)
        for sym, ar in source.signature.relations:
            if sym not in mapping:
                raise TypeSpaceError(f"interpretation misses symbol {sym}")
            check_formula(target.signature, mapping[sym], ar * k)
        self.source, self.target, self.k, self.mapping = source, target, k, mapping

    @property
    def strong(self):
        return self.k == 1 and normalize(self.mapping["="]) == Eq(1, 2)

    def equality_formula(self):
        return normalize(self.mapping["="])

    def domain_formula(self):
        """Gamma(x = x), one k-block, in context k."""
        f = identity_index_map(self.k) * 2
        return reindex(self.equality_formula(), f, self.k)

    def domain_at_blocks(self, blocks, ctx):
        """Conjunction of the domain formula over the given 1-based block
        starts, in the given context."""
        dom = self.domain_formula()
        return meet(*[reindex(dom, tuple(range(b, b + self.k)), ctx)
                      for b in blocks])


def identity_interpretation(t):
    mapping = {"=": Eq(1, 2)}
    for sym, ar in t.signature.relations:
        mapping[sym] = Atom(sym, tuple(range(1, ar + 1)))
    return Interpretation(t, t, 1, mapping)


def apply_interpretation(g, phi, ctx):
    """Translate a source formula in the given context to a target formula in
    context ctx*k.  Existentials are relativized to the domain formula."""
    k = g.k

    def go(phi, n):
        if isinstance(phi, Atom):
            return reindex(normalize(g.mapping[phi.sym]), times_k(phi.args, k), n * k)
        if isinstance(phi, Eq):
            return reindex(g.equality_formula(), times_k((phi.i, phi.j), k), n * k)
        if isinstance(phi, And):
            return meet(*[go(p, n) for p in phi.parts])
        if isinstance(phi, Or):
            return join(*[go(p, n) for p in phi.parts])
        if isinstance(phi, Exists):
            body = go(phi.body, n + 1)
            out = meet(g.domain_at_blocks([n * k + 1], (n + 1) * k), body)
            for _ in range(k):
                out = exists(out)
            return out
        return phi

    return go(normalize(phi), ctx)


def compose_interpretations(g2, g1):
    """Composite interpretation: first g1: T -> T', then g2: T' -> T''."""
    if g1.target is not g2.source and g1.target != g2.source:
        raise TypeSpaceError("endpoint mismatch")
    mapping = {"=": apply_interpretation(g2, g1.mapping["="], 2 * g1.k)}
    for sym, ar in g1.source.signature.relations:
        mapping[sym] = apply_interpretation(g2, g1.mapping[sym], ar * g1.k)
    return Interpretation(g1.source, g2.target, g1.k * g2.k, mapping)


def requirement_sequents(g):
    """Target-theory proof obligations: the translated equality must be a
    partial equivalence and a congruence for every translated relation."""
    k = g.k
    eqf = g.equality_formula()  # context 2k
    dom = g.domain_formula()  # context k

    def eq_at(b1, b2, m):
        return reindex(eqf, times_k((b1, b2), k), m * k)

    def dom_at(b, m):
        return reindex(dom, times_k((b,), k), m * k)

    out = [
        ("eq_refl", Sequent(k, dom_at(1, 1), eq_at(1, 1, 1))),
        (
            "eq_sym",
            Sequent(
                2 * k,
                meet(eq_at(1, 2, 2), dom_at(1, 2), dom_at(2, 2)),
                eq_at(2, 1, 2),
            ),
        ),
        (
            "eq_trans",
            Sequent(3 * k, meet(eq_at(1, 2, 3), eq_at(2, 3, 3)), eq_at(1, 3, 3)),
        ),
    ]
    for sym, r in g.source.signature.relations:
        gr = normalize(g.mapping[sym])  # context r*k
        for i in range(1, r + 1):
            m = r + 1
            base = tuple(range(1, r * k + 1))
            moved = list(base)
            for t in range(k):
                moved[(i - 1) * k + t] = r * k + t + 1
            lhs = meet(reindex(gr, base, m * k), eq_at(i, r + 1, m),
                       dom_at(r + 1, m))
            rhs = reindex(gr, tuple(moved), m * k)
            out.append((f"congruence_{sym}_{i}", Sequent(m * k, lhs, rhs)))
    return out


def check_interpretation(g, budgets=calculus.Budgets(), depth=2, ctxs=(0, 1, 2),
                         cap=16):
    """Check the congruence obligations on the translated equality, then for
    source-provable sequents phi |- psi over small formula pairs check that
    the target proves Gamma(phi /\\ x=x) |- Gamma(psi)."""
    report = calculus.Tally()
    src_b = budgets.replace(model_pool=tuple(
        enumerate_models(g.source, budgets.model_size)))
    tgt_b = budgets.replace(model_pool=tuple(
        enumerate_models(g.target, budgets.model_size)))
    for tag, s in requirement_sequents(g):
        w = calculus.entails(g.target, s, tgt_b)
        report.add(w, (tag, s.lhs, s.rhs, w))
    for n in ctxs:
        formulas = enum_formulas(g.source.signature, n, depth, cap)
        for phi in formulas:
            for psi in formulas:
                v = calculus.entails(g.source, Sequent(n, phi, psi), src_b)
                if not isinstance(v, calculus.Proved):
                    continue
                lhs = meet(apply_interpretation(g, phi, n),
                           g.domain_at_blocks(range(1, n * g.k + 1, g.k), n * g.k))
                rhs = apply_interpretation(g, psi, n)
                w = calculus.entails(g.target, Sequent(n * g.k, lhs, rhs), tgt_b)
                report.add(w, (n, phi, psi, w))
    return report


# ---------------------------------------------------------------------------
# 2-cells


class Morphism2Cell(Record):
    _fields = ("source", "target", "formula")

    def __init__(self, source, target, formula):
        # formula: in context source.k + target.k over the shared target theory
        if source.source != target.source or source.target != target.target:
            raise TypeSpaceError("2-cell endpoints mismatch")
        check_formula(source.target.signature, formula, source.k + target.k)
        self.source, self.target, self.formula = source, target, formula


def identity_2cell(g):
    return Morphism2Cell(g, g, g.equality_formula())


def morphism_condition_sequents(theta, depth=1, cap=10, ctxs=(1, 2)):
    """The condition (1)-(5) proof obligations as target-theory sequents."""
    g, g2 = theta.source, theta.target
    k, k2 = g.k, g2.k
    th = normalize(theta.formula)
    seqs = []
    # (1) domain(x) |- exists y. theta(x, y)
    rhs = th
    for _ in range(k2):
        rhs = exists(rhs)
    seqs.append(("(1)", Sequent(k, g.domain_formula(), rhs)))
    # (2) theta |- dom(x) /\ dom'(y)
    ctx = k + k2
    dom_x = g.domain_at_blocks([1], ctx)
    dom_y = g2.domain_at_blocks([k + 1], ctx)
    seqs.append(("(2)", Sequent(ctx, th, meet(dom_x, dom_y))))
    # (3) theta(x,y) /\ Gamma(x=x')(x,x') |- theta(x',y)
    ctx = 2 * k + k2
    th_xy = reindex(th, tuple(range(1, k + 1)) + tuple(range(2 * k + 1, ctx + 1)), ctx)
    eq_xx = reindex(g.equality_formula(), tuple(range(1, 2 * k + 1)), ctx)
    th_x2y = reindex(th, tuple(range(k + 1, 2 * k + 1)) + tuple(range(2 * k + 1, ctx + 1)), ctx)
    seqs.append(("(3)", Sequent(ctx, meet(th_xy, eq_xx), th_x2y)))
    # (4) theta(x,y) /\ Gamma'(y=y')(y,y') |- theta(x,y')
    ctx = k + 2 * k2
    th_xy = reindex(th, tuple(range(1, k + k2 + 1)), ctx)
    eq_yy = reindex(g2.equality_formula(), tuple(range(k + 1, ctx + 1)), ctx)
    th_xy2 = reindex(
        th, tuple(range(1, k + 1)) + tuple(range(k + k2 + 1, ctx + 1)), ctx
    )
    seqs.append(("(4)", Sequent(ctx, meet(th_xy, eq_yy), th_xy2)))
    # (5) Gamma(phi)(xs) /\ /\ theta(xi,yi) |- Gamma'(phi)(ys)
    for n in ctxs:
        formulas = enum_formulas(g.source.signature, n, depth, cap)
        ctx = n * (k + k2)
        xpos = tuple(range(1, n * k + 1))
        ypos = tuple(range(n * k + 1, ctx + 1))
        for phi in formulas:
            gl = reindex(apply_interpretation(g, phi, n), xpos, ctx)
            gr = reindex(apply_interpretation(g2, phi, n), ypos, ctx)
            thetas = []
            for i in range(n):
                f = tuple(range(i * k + 1, (i + 1) * k + 1)) + tuple(
                    range(n * k + i * k2 + 1, n * k + (i + 1) * k2 + 1)
                )
                thetas.append(reindex(th, f, ctx))
            seqs.append((f"(5) n={n}", Sequent(ctx, meet(gl, *thetas), gr)))
    return seqs


def check_morphism_of_interpretations(theta, budgets=calculus.Budgets(), depth=1,
                                      cap=10, ctxs=(1, 2)):
    t = theta.source.target
    b = budgets.replace(model_pool=tuple(enumerate_models(t, budgets.model_size)))
    report = calculus.Tally()
    for tag, s in morphism_condition_sequents(theta, depth, cap, ctxs):
        v = calculus.entails(t, s, b)
        report.add(v, (tag, s, v))
    return report


def compose_2cells_vertical(eta, theta):
    """eta after theta: theta: (G,k) -> (G',k'), eta: (G',k') -> (G'',k'')."""
    if theta.target is not eta.source and theta.target != eta.source:
        raise TypeSpaceError("2-cell composition mismatch")
    g, gm, g2 = theta.source, theta.target, eta.target
    k, km, k2 = g.k, gm.k, g2.k
    ctx = k + k2 + km  # x, z, then bound y
    th = reindex(
        normalize(theta.formula),
        tuple(range(1, k + 1)) + tuple(range(k + k2 + 1, ctx + 1)),
        ctx,
    )
    et = reindex(
        normalize(eta.formula),
        tuple(range(k + k2 + 1, ctx + 1)) + tuple(range(k + 1, k + k2 + 1)),
        ctx,
    )
    out = meet(th, et)
    for _ in range(km):
        out = exists(out)
    return Morphism2Cell(g, g2, out)


def compose_2cells_horizontal(eta, theta):
    """eta * theta for theta: (G,k) -> (G',k') over T -> T' and
    eta: (D,l) -> (D',l') over T' -> T''."""
    gk, gk2 = theta.source, theta.target
    dl, dl2 = eta.source, eta.target
    k, k2 = gk.k, gk2.k
    l, l2 = dl.k, dl2.k
    src = compose_interpretations(dl, gk)
    tgt = compose_interpretations(dl2, gk2)
    ctx = k * l + k2 * l2 + k2 * l  # x blocks, z blocks, bound y blocks
    d_theta = apply_interpretation(dl, theta.formula, k + k2)  # ctx (k+k2)*l
    xpos = tuple(range(1, k * l + 1))
    ypos = tuple(range(k * l + k2 * l2 + 1, ctx + 1))
    parts = [reindex(d_theta, xpos + ypos, ctx)]
    et = normalize(eta.formula)  # ctx l + l2
    for i in range(k2):
        yi = tuple(range(k * l + k2 * l2 + i * l + 1, k * l + k2 * l2 + (i + 1) * l + 1))
        zi = tuple(range(k * l + i * l2 + 1, k * l + (i + 1) * l2 + 1))
        parts.append(reindex(et, yi + zi, ctx))
    out = meet(*parts)
    for _ in range(k2 * l):
        out = exists(out)
    return Morphism2Cell(src, tgt, out)


def equal_2cells(a, b, budgets=calculus.Budgets()):
    """Equality of 2-cells = equivalence of formulas modulo the target theory."""
    if a.source.k != b.source.k or a.target.k != b.target.k:
        return calculus.EquivalenceVerdict("Inequivalent", None, None)
    ctx = a.source.k + a.target.k
    return calculus.equivalent(a.source.target, a.formula, b.formula, ctx, budgets)


# ---------------------------------------------------------------------------
# type space approximations


class TypeSpaceApprox(Record):
    _fields = ("theory", "N", "B", "d", "cap", "models", "formulas", "points",
               "realizations", "tuple_points", "stable", "stable_arities")

    def __init__(self, theory, N, B, d, cap, models, formulas, points,
                 realizations, tuple_points):
        self.theory, self.N, self.B, self.d, self.cap = theory, N, B, d, cap
        self.models = models
        self.formulas = formulas  # n -> list of formulas
        # n -> list of profiles: ints, bit i says formulas[n][i] holds
        self.points = points
        self.realizations = realizations  # n -> list of (model index, tuple)
        # n -> per model, the point index of each n-tuple in tuple_index order:
        # tuple_points[n][mi][j] is the point of tuple j of models[mi]
        self.tuple_points = tuple_points
        self.stable = False
        self.stable_arities = ()  # per-arity stability diagnostic, n = 0..N

    def point_index(self, n):
        return {p: i for i, p in enumerate(self.points[n])}

    def poset(self, n):
        pts = self.points[n]
        return lattice.FinPoset(len(pts), [[not p & ~q for q in pts] for p in pts])

    def open_of(self, phi, n):
        """Point set of [phi]; stored formulas read off the points, others by
        evaluating at the realizations."""
        phi = normalize(phi)
        try:
            i = self.formulas[n].index(phi)
        except ValueError:
            return frozenset(j for j, (mi, a) in enumerate(self.realizations[n])
                             if eval_formula(self.models[mi], phi, a))
        return self._open(i, n)

    def _open(self, i, n):
        """Point set of the stored formula formulas[n][i]."""
        return frozenset(j for j, p in enumerate(self.points[n]) if p >> i & 1)

    def s_map(self, f, n, m):
        """Restriction map S_f: points of arity m -> points of arity n, for
        f: n -> m: the point of each realization restricted along f."""
        table = self.tuple_points[n]
        return tuple(
            table[mi][tuple_index(self.models[mi].size, tuple(a[v - 1] for v in f))]
            for mi, a in self.realizations[m]
        )

    def s_monotone(self, f, n, m):
        return lattice.MonotoneMap(self.poset(m), self.poset(n), self.s_map(f, n, m))


def _collect(models, formulas, n):
    """Points (profiles, sorted by their lists of formula indices), the
    first realization (model index, tuple) of each in model order, and the
    point index of every tuple of every model."""
    profiles = model_profiles(models, formulas, n)
    seen = {}
    for mi, m in enumerate(models):
        tuples = product(range(m.size), repeat=n)
        for a, bits in zip(tuples, profiles[mi]):
            seen.setdefault(bits, (mi, a))
    pts = sorted(seen, key=lattice.bit_positions)
    index = {p: i for i, p in enumerate(pts)}
    table = [[index[bits] for bits in prof] for prof in profiles]
    return pts, [seen[p] for p in pts], table


def compute_typespace(t, N=2, B=3, d=2, cap=600, check_stability=True,
                      models=None):
    """Approximate type spaces from all tuples in all models up to size B.

    An explicit model pool can replace the exhaustive enumeration (useful
    when the signature is too large to enumerate); the model-bound half of
    the stability diagnostic does not apply then, so it is skipped.  The
    stability diagnostic needs the models up to B+1; their enumeration
    starts with the models up to B, so it is made once."""
    if models is None:
        every = enumerate_models(t, B + 1 if check_stability else B)
        models = [m for m in every if m.size <= B]
    else:
        models = list(models)
        check_stability = False
    formulas = {}
    points = {}
    realizations = {}
    tuple_points = {}
    for n in range(N + 1):
        formulas[n] = enum_formulas(t.signature, n, d, cap)
        points[n], realizations[n], tuple_points[n] = _collect(models, formulas[n], n)
    approx = TypeSpaceApprox(t, N, B, d, cap, models, formulas, points,
                             realizations, tuple_points)
    if check_stability:
        approx.stable_arities = _stability(t, approx, every[len(models):])
        approx.stable = all(approx.stable_arities)
    return approx


_STABILITY_CHUNK = 64  # models of size B+1 whose profiles _stability batches


def _stability(t, approx, bigger):
    """Per-arity diagnostic: does the point set survive growing the model
    bound or the formula depth by one step each?

    Both halves profile only the plain members of a formula list, those
    that are no meet or join, on two facts:
    1. Every list ``enum_formulas`` returns holds the parts of its meets
       and joins: a part is smaller in (size, key) and no deeper, and the
       generation joins only formulas it has found.  So two tuples agree on
       a list exactly when they agree on its plain members.
    2. The plain members of the depth-(d+1) list are its level-0 formulas,
       the cap smallest of all, and the existentials of a prefix of the
       depth-d list one context up, from which the generation draws its
       bodies; their keys rise along that list.  So they are a prefix of
       g: the level-0 list, then the existential of every body.

    bigger holds the models of size B+1.  The enumeration up to B+1 is
    approx.models followed by them, so only they can add a point; one
    profile of theirs on the plain members of approx.formulas[n] that no
    known point has there settles the arity as unstable.  Their profiles
    are evaluated ``_STABILITY_CHUNK`` models at a time, up to the chunk
    that holds the first such profile.

    The deeper half profiles g over approx.models.  The count of distinct
    profiles on g[:k] only grows with k; take the least k at which it
    reaches the count on all of g.  The deeper generation cut at g[k-1]
    (``syntax._enum``'s ceiling) keeps exactly the members of the full
    list up to g[k-1].  If g[k-1] is among them, so is all of g[:k], and
    the members of g it keeps split the tuples as g does.  If it is not,
    the cap cut the full list before g[k-1]; the cut list is then the full
    list, and the members of g it keeps are its plain members.  Either way
    the count on the members of g that the cut list keeps is the count on
    the deeper list.  If k is 0, every prefix of g splits as g does."""
    sig, d, cap = t.signature, approx.d, approx.cap
    out = []
    for n in range(approx.N + 1):
        kept = [i for i, p in enumerate(approx.formulas[n]) if _plain(p)]
        known = {sum(1 << j for j, i in enumerate(kept) if bits >> i & 1)
                 for bits in approx.points[n]}
        formulas = [approx.formulas[n][i] for i in kept]
        new = ({bits for prof in model_profiles(bigger[c:c + _STABILITY_CHUNK],
                                                formulas, n)
                for bits in prof}
               for c in range(0, len(bigger), _STABILITY_CHUNK))
        if any(bits not in known for found in new for bits in found):
            out.append(False)
            continue
        g = enum_formulas(sig, n, 0, cap) + [
            exists(body) for body in enum_formulas(sig, n + 1, d, cap)]
        profiles = [bits for prof in model_profiles(approx.models, g, n)
                    for bits in prof]
        split = len(set(profiles))
        lo, hi = 0, len(g)  # the least k whose prefix splits as all of g
        while lo < hi:
            mid = (lo + hi) // 2
            if len({bits & (1 << mid) - 1 for bits in profiles}) < split:
                lo = mid + 1
            else:
                hi = mid
        if lo:
            cut = set(_enum(sig, n, d + 1, cap, g[lo - 1]))
            mask = sum(1 << i for i, p in enumerate(g) if p in cut)
            split = len({bits & mask for bits in profiles})
        out.append(split == len(approx.points[n]))
    return tuple(out)


def _plain(phi):
    """Is phi no meet or join?"""
    return not isinstance(phi, (And, Or))


# ---------------------------------------------------------------------------
# S on interpretations: partial map data


class PartialMapData(Record):
    _fields = ("interp", "source_approx", "target_approx", "N", "domains", "maps")

    def __init__(self, interp, source_approx, target_approx, N, domains, maps):
        self.interp, self.N = interp, N
        self.source_approx = source_approx  # approximation of S(source theory)
        self.target_approx = target_approx  # approximation of S(target theory)
        # n -> frozenset of target-approx point indices at arity nk
        self.domains = domains
        # n -> dict target point index -> source point index at arity n
        self.maps = maps

    @property
    def k(self):
        return self.interp.k


def s_of_interpretation(g, source_approx, target_approx, N=2):
    """The partial maps S(Gamma,k)_n: S_nk(T') -> S_n(T) on approximations,
    with domains [Gamma(x=x)], computed via the quotient model semantics."""
    k = g.k
    if target_approx.N < N * k:
        raise TypeSpaceError("target approximation arity bound too small")
    domains = {}
    maps = {}
    for n in range(N + 1):
        dom_phi = g.domain_at_blocks(range(1, n * k + 1, k), n * k)
        dom = target_approx.open_of(dom_phi, n * k)
        domains[n] = dom
        index = source_approx.point_index(n)
        quotients = {}
        out = {}
        for pi in sorted(dom):
            mi, a = target_approx.realizations[n * k][pi]
            m = target_approx.models[mi]
            if mi not in quotients:
                quotients[mi] = gamma_star(g, m)
            q = quotients[mi]
            blocks = tuple(
                q.class_of[tuple(a[i * k : (i + 1) * k])] for i in range(n)
            )
            prof = profile(q, blocks, source_approx.formulas[n])
            if prof not in index:
                raise TypeSpaceError(
                    f"quotient type at arity {n} missing from the source "
                    f"approximation; increase its model bound"
                )
            out[pi] = index[prof]
        maps[n] = out
    return PartialMapData(g, source_approx, target_approx, N, domains, maps)


def check_cartesian_family(pnt):
    """domains[n] == intersection of preimages of domains[1] along the k-block
    point inclusions, for every n <= N; n = 0 must be everything."""
    ta = pnt.target_approx
    k = pnt.k
    if pnt.domains[0] != frozenset(range(len(ta.points[0]))):
        return False
    for n in range(1, pnt.N + 1):
        expected = frozenset(range(len(ta.points[n * k])))
        for i in range(1, n + 1):
            f = times_k((i,), k)  # j_{i,n}^{x k}: k -> nk
            smap = ta.s_map(f, k, n * k)
            expected &= frozenset(
                p for p in range(len(ta.points[n * k])) if smap[p] in pnt.domains[1]
            )
        if pnt.domains[n] != expected:
            return False
    return True


def check_naturality(pnt):
    """beta_n(F_{f x k}(p)) == F'_f(beta_m(p)) for p in dom(beta_m)."""
    ta, sa = pnt.target_approx, pnt.source_approx
    k = pnt.k
    for n in range(pnt.N + 1):
        for m in range(pnt.N + 1):
            for f in all_maps(n, m):
                down = ta.s_map(times_k(f, k), n * k, m * k)
                over = sa.s_map(f, n, m)
                for p in sorted(pnt.domains[m]):
                    q = down[p]
                    if q not in pnt.domains[n]:
                        return False, (n, m, f, p)
                    if pnt.maps[n][q] != over[pnt.maps[m][p]]:
                        return False, (n, m, f, p)
    return True, None


def _image(smap, pts):
    return frozenset(smap[p] for p in pts)


def _beta_preimage(pnt, n, v):
    return frozenset(p for p in pnt.domains[n] if pnt.maps[n][p] in v)


def check_weak_bc(pnt, f, n, m, strict=False):
    """Weak Beck-Chevalley at f: n -> m over all stored basic opens U of the
    source approximation at arity m.  Returns (ok, witness)."""
    ta, sa = pnt.target_approx, pnt.source_approx
    k = pnt.k
    down = ta.s_map(times_k(f, k), n * k, m * k)
    over = sa.s_map(f, n, m)
    img_all = _image(down, range(len(ta.points[m * k])))
    for ui in range(len(sa.formulas[m])):
        u = sa._open(ui, m)
        lhs = _beta_preimage(pnt, n, _image(over, u))
        if not strict:
            lhs &= img_all
        rhs = _image(down, _beta_preimage(pnt, m, u))
        if lhs != rhs:
            return False, (sa.formulas[m][ui], lhs, rhs)
    return True, None


def check_strict_bc(pnt, f, n, m):
    return check_weak_bc(pnt, f, n, m, strict=True)


# ---------------------------------------------------------------------------
# pushouts in FinSet and the functor-level Beck-Chevalley check


def pushout_of_span(h, f, dn, bn, cn):
    """Pushout of b <-h- d -f-> c in finite sets.

    Returns (an, u, v) with injections u: b -> a and v: c -> a, classes
    numbered by first occurrence scanning b then c."""
    parent = list(range(bn + cn))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in range(dn):
        a, b = find(h[x] - 1), find(bn + f[x] - 1)
        if a != b:
            parent[max(a, b)] = min(a, b)
    cls = {}
    for i in range(bn + cn):
        r = find(i)
        if r not in cls:
            cls[r] = len(cls)
    u = tuple(cls[find(i)] + 1 for i in range(bn))
    v = tuple(cls[find(bn + j)] + 1 for j in range(cn))
    return len(cls), u, v


def is_pushout(h, f, dn, bn, cn, an, u, v):
    """Is (u: b -> a, v: c -> a) the pushout of b <-h- d -f-> c?  It is iff
    it relabels the apex of pushout_of_span's pushout bijectively.

    Maps are index tuples; dn, bn, cn, an are the set sizes."""
    if len(h) != dn or len(f) != dn or len(u) != bn or len(v) != cn:
        return False
    _, u0, v0 = pushout_of_span(h, f, dn, bn, cn)
    relabel = {}
    for old, new in zip((*u0, *v0), (*u, *v)):
        if relabel.setdefault(old, new) != new:
            return False
    return sorted(relabel.values()) == list(range(1, an + 1))


def check_functor_bc(approx, h, f, dn, bn, cn, an, u, v):
    """Beck-Chevalley for the induced square of approximation restriction
    maps of a FinSet pushout, plus the universal-map surjectivity verdict."""
    if not is_pushout(h, f, dn, bn, cn, an, u, v):
        raise TypeSpaceError("the given square is not a pushout")
    posets = {k: approx.poset(k) for k in {an, bn, cn, dn}}

    def s(g, n, m):
        return lattice.MonotoneMap(posets[m], posets[n], approx.s_map(g, n, m))

    s_u, s_v, s_h, s_f = s(u, bn, an), s(v, cn, an), s(h, dn, bn), s(f, dn, cn)
    bc, bc_witness = lattice.check_bc_square(s_u, s_v, s_h, s_f)
    surj, surj_witness = lattice.universal_map_surjective(s_u, s_v, s_h, s_f)
    return {
        "bc": bc,
        "bc_witness": bc_witness,
        "universal_map_surjective": surj,
        "missed_pair": surj_witness,
    }
