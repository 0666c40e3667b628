"""Finitely presented open lattice functors and their internal logic.

A presentation packages, for every arity up to a cutoff, a finite
distributive lattice together with a substitution action along index maps.
From it we build a relational theory whose provable sequents are meant to
coincide with the lattice order under the internal valuation, and we check
the two round trips: theory -> type-space approximation -> presentation ->
theory, and presentation -> theory -> type-space approximation ->
spectrum.
"""

from __future__ import annotations

import re
from itertools import product

from . import calculus
from .lattice import (
    FinDistLattice,
    LatticeError,
    LatticeHom,
    chain,
    check_frobenius,
    identity_hom,
    lattice_from_json,
    lattice_to_json,
    left_adjoint,
    prime_filters,
)
from .semantics import FiniteModel, ResourceGuard, is_model
from .syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Bot,
    Eq,
    Exists,
    Or,
    Record,
    Sequent,
    Signature,
    Theory,
    Top,
    all_maps,
    cached_per_owner,
    enum_formulas,
    exists,
    formula_depth,
    join,
    meet,
    normalize,
)
from .typespace import (
    Interpretation,
    _beta_preimage,
    apply_interpretation,
    compose_maps,
    compute_typespace,
    direct_image_formula,
    identity_index_map,
    preimage_formula,
    pushout_of_span,
    times_k,
)


class InternalLogicError(Exception):
    pass


# ---------------------------------------------------------------------------
# presentations


class FunctorPresentation:
    """Arity-indexed lattices with a substitution action.

    ``homs[(n, m, f)]`` is the substitution hom A_f: L_n -> L_m for the
    index map f: n -> m; its left adjoint E_f plays the direct image.  A
    presentation is equal only to itself; its adjoints and induced models
    are ``cached_per_owner`` tables, freed with it."""

    def __init__(self, cutoff, lattices, homs, formulas=None, extents=None,
                 approx=None, name="F"):
        self.cutoff, self.lattices, self.homs = cutoff, lattices, homs
        self.formulas = formulas  # n -> defining formula per element
        self.extents = extents  # n -> point set per element (exported only)
        self.approx = approx  # originating approximation (exported only)
        self.name = name

    def hom(self, f, n, m):
        key = (n, m, tuple(f))
        if key not in self.homs:
            raise InternalLogicError(f"no substitution hom for {key}")
        return self.homs[key]

    def adjoint(self, f, n, m):
        """Left adjoint of hom(f, n, m) as a value list L_m -> L_n."""
        return _adjoint(self, tuple(f), n, m)


@cached_per_owner
def _adjoint(pres, f, n, m):
    return left_adjoint(pres.hom(f, n, m))


def trivial_presentation(cutoff=2):
    """Every lattice the 2-chain, every substitution hom the identity."""
    lattices = {n: chain(2) for n in range(cutoff + 1)}
    homs = {}
    for n, m in product(range(cutoff + 1), repeat=2):
        for f in all_maps(n, m):
            homs[(n, m, f)] = identity_hom(lattices[n])
    return FunctorPresentation(cutoff, lattices, homs, name="trivial")


def validate_presentation(pres):
    """Check identity, functoriality, openness (adjoint + Frobenius) and the
    Beck-Chevalley identity on every pushout square within the cutoff.  The
    failures of the ``calculus.Tally`` returned name each broken law."""
    report = calculus.Tally()
    failures = report.failures
    N = pres.cutoff
    for n in range(N + 1):
        ident = pres.homs.get((n, n, identity_index_map(n)))
        if ident != identity_hom(pres.lattices[n]):
            failures.append(("identity", n))
    for n, m, l in product(range(N + 1), repeat=3):
        for f in all_maps(n, m):
            for g in all_maps(m, l):
                comp = pres.hom(g, m, l).compose(pres.hom(f, n, m))
                if pres.hom(compose_maps(g, f), n, l) != comp:
                    failures.append(("functoriality", n, m, l, f, g))
    for (n, m, f) in sorted(pres.homs):
        try:
            adj = pres.adjoint(f, n, m)
        except LatticeError as e:
            failures.append(("adjoint", n, m, f, str(e)))
            continue
        ok, witness = check_frobenius(adj, pres.hom(f, n, m))
        if not ok:
            failures.append(("frobenius", n, m, f, witness))
    for dn, bn, cn in product(range(N + 1), repeat=3):
        for h in all_maps(dn, bn):
            for f in all_maps(dn, cn):
                an, u, v = pushout_of_span(h, f, dn, bn, cn)
                if an > N:
                    continue
                a_u = pres.hom(u, bn, an)
                e_v = pres.adjoint(v, cn, an)
                e_h = pres.adjoint(h, dn, bn)
                a_f = pres.hom(f, dn, cn)
                for x in range(pres.lattices[bn].n):
                    if e_v[a_u(x)] != a_f(e_h[x]):
                        square = (dn, bn, cn, an, h, f, u, v)
                        failures.append(("beck_chevalley", square, x))
                        break
    return report


# ---------------------------------------------------------------------------
# generated signature and internal valuation


def rel_symbol(n, u):
    return f"R{n}_{u}"


_SYM = re.compile(r"R(\d+)_(\d+)")


def symbol_info(sym):
    m = _SYM.fullmatch(sym)
    if m is None:
        raise InternalLogicError(f"not a generated relation symbol: {sym!r}")
    return int(m.group(1)), int(m.group(2))


def signature_of(pres):
    rels = [(rel_symbol(n, u), n) for n in range(pres.cutoff + 1)
            for u in range(pres.lattices[n].n)]
    return Signature(f"sig_{pres.name}", tuple(rels))


def _collapse_map(i, j, n):
    """The index map n -> n-1 identifying x_j with x_i (i < j)."""
    return (*range(1, j), i, *range(j, n))


def denote(pres, phi, n):
    """Value of a formula over the generated signature in L_n."""
    if n > pres.cutoff:
        raise InternalLogicError(f"context {n} exceeds arity cutoff {pres.cutoff}")
    lat = pres.lattices[n]
    if isinstance(phi, Top):
        return lat.top
    if isinstance(phi, Bot):
        return lat.bot
    if isinstance(phi, Atom):
        k, u = symbol_info(phi.sym)
        return pres.hom(phi.args, k, n)(u)
    if isinstance(phi, Eq):
        i, j = sorted((phi.i, phi.j))
        if i == j:
            return lat.top
        c = _collapse_map(i, j, n)
        e_c = pres.adjoint(c, n, n - 1)
        return e_c[pres.lattices[n - 1].top]
    if isinstance(phi, And):
        return lat.meet_all([denote(pres, p, n) for p in phi.parts])
    if isinstance(phi, Or):
        return lat.join_all([denote(pres, p, n) for p in phi.parts])
    if isinstance(phi, Exists):
        if n + 1 > pres.cutoff:
            raise InternalLogicError(
                f"existential raises context to {n + 1}, beyond cutoff {pres.cutoff}"
            )
        inner = denote(pres, phi.body, n + 1)
        e_inc = pres.adjoint(identity_index_map(n), n, n + 1)
        return e_inc[inner]
    raise InternalLogicError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# the generated theory


def th_of(pres):
    """A finite axiomatization of the sequents that hold under denote."""
    sig = signature_of(pres)

    def atom(n, u, args=None):
        return Atom(rel_symbol(n, u), tuple(args) if args else tuple(range(1, n + 1)))

    axioms = []
    for n in range(pres.cutoff + 1):
        lat = pres.lattices[n]
        axioms.append(Sequent(n, TOP, atom(n, lat.top)))
        axioms.append(Sequent(n, atom(n, lat.bot), BOT))
        for a, b in lat.covers():
            axioms.append(Sequent(n, atom(n, a), atom(n, b)))
        for a in range(lat.n):
            for b in range(a + 1, lat.n):
                if lat.leq[a][b] or lat.leq[b][a]:
                    continue
                axioms.append(
                    Sequent(n, meet(atom(n, a), atom(n, b)), atom(n, lat.meet(a, b)))
                )
                axioms.append(
                    Sequent(n, atom(n, lat.join(a, b)), join(atom(n, a), atom(n, b)))
                )
    for (n, m, f) in sorted(pres.homs):
        if n == m and f == identity_index_map(n):
            continue
        hom = pres.hom(f, n, m)
        for a in range(pres.lattices[n].n):
            lhs = atom(n, a, f) if n else atom(n, a)
            rhs = atom(m, hom(a))
            axioms.append(Sequent(m, lhs, rhs))
            axioms.append(Sequent(m, rhs, lhs))
    for n in range(pres.cutoff):
        e_inc = pres.adjoint(identity_index_map(n), n, n + 1)
        for w in range(pres.lattices[n + 1].n):
            ex = exists(atom(n + 1, w))
            axioms.append(Sequent(n, ex, atom(n, e_inc[w])))
            axioms.append(Sequent(n, atom(n, e_inc[w]), ex))
    for n in range(2, pres.cutoff + 1):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                e = denote(pres, Eq(i, j), n)
                axioms.append(Sequent(n, Eq(i, j), atom(n, e)))
                axioms.append(Sequent(n, atom(n, e), Eq(i, j)))
    out = dict.fromkeys(s for s in axioms  # in first-seen order
                        if not (s.lhs == s.rhs or s.rhs == TOP or s.lhs == BOT))
    return Theory(f"th_{pres.name}", sig, tuple(out))


# ---------------------------------------------------------------------------
# export from a type-space approximation


MAX_EXPORT = 200  # largest exported lattice of one arity, by default


def export_presentation(approx, gen_depth=1, max_size=MAX_EXPORT, generators=None):
    """Sublattices of opens generated by the shallow definable opens, closed
    under meets, joins, substitution preimages and direct images; each
    element keeps a defining formula and its extent as a set of points.

    ``generators`` (a dict arity -> formulas) replaces the default choice of
    all opens of depth <= gen_depth; top and bottom are always included.
    The closure can be much larger than the generator set — near-independent
    generators approach a free distributive lattice — so max_size is a
    budget, not a truncation: ResourceGuard is raised as soon as the set of
    one arity would pass it."""
    N = approx.N
    npoints = {n: len(approx.points[n]) for n in range(N + 1)}
    smaps = {}
    for n in range(N + 1):
        for m in range(N + 1):
            for f in all_maps(n, m):
                smaps[(n, m, f)] = approx.s_map(f, n, m)
    sets = {n: {} for n in range(N + 1)}
    changed = True

    def add(n, s, build, *args):  # builds the formula only for a new extent
        nonlocal changed
        if s not in sets[n]:
            if len(sets[n]) == max_size:
                raise ResourceGuard(f"generated lattice exceeds {max_size} elements")
            sets[n][s] = build(*args)
            changed = True

    for n in range(N + 1):
        if generators is None:
            gens = [
                phi
                for phi in approx.formulas[n]
                if formula_depth(phi) <= gen_depth
            ]
        else:
            gens = [TOP, BOT] + list(generators.get(n, ()))
        for phi in gens:
            add(n, approx.open_of(phi, n), normalize, phi)
    while changed:
        changed = False
        for n in range(N + 1):
            items = list(sets[n].items())
            for i, (u, fu) in enumerate(items):
                for v, fv in items[i + 1 :]:
                    add(n, u & v, meet, fu, fv)
                    add(n, u | v, join, fu, fv)
        for (n, m, f), smap in smaps.items():
            for u, fu in list(sets[n].items()):
                pre = frozenset(q for q in range(npoints[m]) if smap[q] in u)
                add(m, pre, preimage_formula, fu, f, m)
            for w, fw in list(sets[m].items()):
                img = frozenset(smap[q] for q in w)
                add(n, img, direct_image_formula, fw, f, n, m)
    lattices, homs, formulas, extents = {}, {}, {}, {}
    index = {}
    for n in range(N + 1):
        elems = sorted(sets[n], key=lambda s: (len(s), sorted(s)))
        index[n] = {s: i for i, s in enumerate(elems)}
        leq = [[a <= b for b in elems] for a in elems]
        lattices[n] = FinDistLattice(len(elems), leq)
        formulas[n] = [sets[n][s] for s in elems]
        extents[n] = elems
    for (n, m, f), smap in smaps.items():
        values = []
        for s in extents[n]:
            pre = frozenset(q for q in range(npoints[m]) if smap[q] in s)
            values.append(index[m][pre])
        homs[(n, m, f)] = LatticeHom(lattices[n], lattices[m], values)
    return FunctorPresentation(
        N,
        lattices,
        homs,
        formulas,
        extents,
        approx,
        f"S_{approx.theory.name}",
    )


@cached_per_owner
def induced_models(pres):
    """One model of th_of(pres) per model behind the approximation: R_U
    holds of a tuple exactly when the tuple's type lies in the extent of U.
    Computed once per presentation."""
    if pres.approx is None:
        raise InternalLogicError("presentation has no model provenance")
    approx = pres.approx
    out = []
    for mi, m in enumerate(approx.models):
        tables = {}
        for n in range(pres.cutoff + 1):
            rows = list(zip(product(range(m.size), repeat=n),
                            approx.tuple_points[n][mi]))
            for u, ext in enumerate(pres.extents[n]):
                tables[rel_symbol(n, u)] = {a for a, p in rows if p in ext}
        out.append(FiniteModel(m.size, tables))
    return tuple(out)


# ---------------------------------------------------------------------------
# 1-cells between presentations


class BetaFamily(Record):
    """A partial-map family between presentations: value lists
    ``homs[n]: L'_n -> L_{nk}`` preserving order, meets, joins and bottom
    (not necessarily top: the image of the top element is the domain)."""

    _fields = ("source", "target", "k", "homs")

    def __init__(self, source, target, k, homs):  # source is the primed side
        for n, values in homs.items():
            ls = source.lattices[n]
            lt = target.lattices[n * k]
            if len(values) != ls.n:
                raise InternalLogicError(f"hom length mismatch at arity {n}")
            if values[ls.bot] != lt.bot:
                raise InternalLogicError(f"bottom not preserved at arity {n}")
            for a in range(ls.n):
                for b in range(ls.n):
                    if values[ls.meet(a, b)] != lt.meet(values[a], values[b]):
                        raise InternalLogicError(
                            f"meet not preserved at arity {n}, pair ({a},{b})"
                        )
                    if values[ls.join(a, b)] != lt.join(values[a], values[b]):
                        raise InternalLogicError(
                            f"join not preserved at arity {n}, pair ({a},{b})"
                        )
        self.source, self.target, self.k, self.homs = source, target, k, homs


def identity_beta(pres):
    return BetaFamily(
        pres, pres, 1, {n: list(range(pres.lattices[n].n)) for n in range(pres.cutoff + 1)}
    )


def beta_from_partial_map(pnt, source_pres, target_pres):
    """Convert point-level partial map data into a lattice-side family.

    ``source_pres`` must be exported from pnt.source_approx and
    ``target_pres`` from pnt.target_approx; every transported open must be
    an element of the target lattice."""
    k = pnt.interp.k
    homs = {}
    for n in range(source_pres.cutoff + 1):
        if n * k > target_pres.cutoff:
            break
        idx = {s: i for i, s in enumerate(target_pres.extents[n * k])}
        values = []
        for u_set in source_pres.extents[n]:
            moved = _beta_preimage(pnt, n, u_set)
            if moved not in idx:
                raise InternalLogicError(
                    f"transported open at arity {n} is not representable"
                )
            values.append(idx[moved])
        homs[n] = values
    return BetaFamily(source_pres, target_pres, k, homs)


def check_beta_weak_bc(beta):
    """Weak Beck-Chevalley, lattice side: for f: n -> m and U in L'_m,
    b_n(E'_f(U)) meet E_{fxk}(top) must equal E_{fxk}(b_m(U))."""
    src, tgt, k = beta.source, beta.target, beta.k
    arities = sorted(beta.homs)
    for n in arities:
        for m in arities:
            for f in all_maps(n, m):
                fk = times_k(f, k)
                e_src = src.adjoint(f, n, m)
                e_tgt = tgt.adjoint(fk, n * k, m * k)
                lat_n = tgt.lattices[n * k]
                covered = e_tgt[tgt.lattices[m * k].top]
                for u in range(src.lattices[m].n):
                    lhs = lat_n.meet(beta.homs[n][e_src[u]], covered)
                    rhs = e_tgt[beta.homs[m][u]]
                    if lhs != rhs:
                        return False, (f, n, m, u)
    return True, None


def th_of_1cell(beta):
    """The interpretation th_of(beta.source) -> th_of(beta.target) sending
    R_U to R_{b(U)} and equality to the transported equality open."""
    ok, witness = check_beta_weak_bc(beta)
    if not ok:
        raise InternalLogicError(f"weak Beck-Chevalley fails at {witness}")
    src_th = th_of(beta.source)
    tgt_th = th_of(beta.target)
    k = beta.k
    mapping = {}
    for n in sorted(beta.homs):
        for u in range(beta.source.lattices[n].n):
            v = beta.homs[n][u]
            mapping[rel_symbol(n, u)] = Atom(
                rel_symbol(n * k, v), tuple(range(1, n * k + 1))
            )
    eq_elem = denote(beta.source, Eq(1, 2), 2)
    v = beta.homs[2][eq_elem]
    mapping["="] = Atom(rel_symbol(2 * k, v), tuple(range(1, 2 * k + 1)))
    return Interpretation(src_th, tgt_th, k, mapping)


# ---------------------------------------------------------------------------
# round trips


def _binder_depth(phi):
    """The greatest number of existentials nested in phi."""
    if isinstance(phi, Exists):
        return 1 + _binder_depth(phi.body)
    if isinstance(phi, (And, Or)):
        return max(map(_binder_depth, phi.parts))
    return 0


def roundtrip_theory(theory, pres, cap=10):
    """Rebuild a theory from pres, a presentation exported from an
    approximation of S(theory), and check the interpretation
    R_[phi] |-> phi back into the original theory.  The arity cutoff, the
    formula depth and the models come from the approximation behind pres.

    Verifies (a) the extent of every translated formula matches its internal
    value, and (b) on capped formula pairs, provability in the rebuilt
    theory, provability of the translation, and the lattice order agree.
    Unknown verdicts are retried at doubled budget before being counted."""
    gen_th = th_of(pres)
    mapping = {"=": Eq(1, 2)}
    for n in range(pres.cutoff + 1):
        for u in range(pres.lattices[n].n):
            mapping[rel_symbol(n, u)] = pres.formulas[n][u]
    gamma = Interpretation(gen_th, theory, 1, mapping)
    report = calculus.Tally()
    approx = pres.approx
    gen_b = calculus.Budgets(model_pool=induced_models(pres))
    tgt_b = calculus.Budgets(model_pool=tuple(approx.models))
    for n in range(pres.cutoff + 1):
        formulas = enum_formulas(gen_th.signature, n, approx.d, cap)
        # leave out the formulas whose existentials pass the arity cutoff
        formulas = [phi for phi in formulas
                    if n + _binder_depth(phi) <= pres.cutoff]
        values = {phi: denote(pres, phi, n) for phi in formulas}
        for phi in formulas:
            translated = apply_interpretation(gamma, phi, n)
            if approx.open_of(translated, n) != pres.extents[n][values[phi]]:
                report.failures.append(("extent", n, phi))
        lat = pres.lattices[n]
        for phi in formulas:
            for psi in formulas:
                if phi == psi:
                    continue
                expected = lat.leq[values[phi]][values[psi]]
                for th, s, b in (
                    (gen_th, Sequent(n, phi, psi), gen_b),
                    (
                        theory,
                        Sequent(
                            n,
                            apply_interpretation(gamma, phi, n),
                            apply_interpretation(gamma, psi, n),
                        ),
                        tgt_b,
                    ),
                ):
                    v = calculus.entails(th, s, b)
                    if isinstance(v, calculus.Unknown):
                        v = calculus.entails(th, s, b.scaled(2))
                    report.add(v, ("oracle", th.name, n, phi, psi, v), expected)
    return report


def roundtrip_functor(pres, models=None):
    """Check that the type points of th_of(pres) are exactly the prime
    filters of the presented lattices, naturally in the arity.

    ``models`` defaults to the induced models of an exported presentation;
    a presentation without provenance needs an explicit pool."""
    gen_th = th_of(pres)
    if models is None:
        models = induced_models(pres)
    else:
        models = tuple(m for m in models if is_model(m, gen_th))
    approx = compute_typespace(gen_th, N=pres.cutoff, models=models)
    report = {"ok": True, "failures": [], "unrealized": [], "points": {}}
    filters_by_point = {}
    for n in range(pres.cutoff + 1):
        lat = pres.lattices[n]
        filters = prime_filters(lat)
        atom_opens = {
            u: approx.open_of(Atom(rel_symbol(n, u), tuple(range(1, n + 1))), n)
            for u in range(lat.n)
        }
        assigned = []
        for p in range(len(approx.points[n])):
            fp = frozenset(u for u in range(lat.n) if p in atom_opens[u])
            assigned.append(fp)
            if fp not in filters:
                report["failures"].append(("not_prime", n, p, sorted(fp)))
        if len(set(assigned)) != len(assigned):
            report["failures"].append(("not_injective", n))
        for q in filters:
            if q not in assigned:
                report["unrealized"].append((n, sorted(q)))
        report["points"][n] = (len(assigned), len(filters))
        filters_by_point[n] = assigned
    for n in range(pres.cutoff + 1):
        for m in range(pres.cutoff + 1):
            for f in all_maps(n, m):
                smap = approx.s_map(f, n, m)
                hom = pres.hom(f, n, m)
                for q in range(len(approx.points[m])):
                    expected = frozenset(
                        a
                        for a in range(pres.lattices[n].n)
                        if hom(a) in filters_by_point[m][q]
                    )
                    if filters_by_point[n][smap[q]] != expected:
                        report["failures"].append(("naturality", f, n, m, q))
    report["ok"] = not report["failures"] and not report["unrealized"]
    return report


# ---------------------------------------------------------------------------
# JSON


def presentation_to_json(pres):
    return {
        "cutoff": pres.cutoff,
        "lattices": {
            str(n): lattice_to_json(pres.lattices[n]) for n in range(pres.cutoff + 1)
        },
        "homs": {
            f"{n}->{m}:{list(f)}": list(hom.values)
            for (n, m, f), hom in sorted(pres.homs.items())
        },
        "name": pres.name,
    }


def presentation_from_json(obj):
    cutoff, lats, hom_values = obj.get("cutoff"), obj.get("lattices"), obj.get("homs")
    if type(cutoff) is not int or cutoff < 0 or not isinstance(lats, dict) \
            or not isinstance(hom_values, dict) \
            or not all(n.isdecimal() and isinstance(l, dict) for n, l in lats.items()) \
            or not all(isinstance(v, list) for v in hom_values.values()):
        raise InternalLogicError("a presentation needs a natural-number cutoff, "
                                 "an object of lattices by arity and an object "
                                 "of hom value lists")
    lattices = {int(n): lattice_from_json(l) for n, l in lats.items()}
    for n in range(cutoff + 1):
        if n not in lattices:
            raise InternalLogicError(f"no lattice for arity {n}")
    homs = {}
    key_re = re.compile(r"(\d+)->(\d+):\[((?: *[0-9]+ *,)* *[0-9]+ *)?\]")
    for key, values in hom_values.items():
        m = key_re.fullmatch(key)
        if m is None:
            raise InternalLogicError(f"bad hom key {key!r}")
        n, mm = int(m.group(1)), int(m.group(2))
        f = tuple(int(x) for x in m.group(3).split(",")) if m.group(3) else ()
        if len(f) != n or not all(1 <= v <= mm for v in f):
            raise InternalLogicError(f"hom {key!r} is not an index map "
                                     f"{n} -> {mm}")
        for a in (n, mm):
            if a not in lattices:
                raise InternalLogicError(f"hom {key!r} names arity {a}, "
                                         "which has no lattice")
        homs[(n, mm, f)] = LatticeHom(lattices[n], lattices[mm], values)
    return FunctorPresentation(cutoff, lattices, homs, name=obj.get("name", "F"))
