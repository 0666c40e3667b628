"""Finite classical models: satisfaction, exhaustive enumeration up to
isomorphism, coherent types of tuples, quotient models of interpretations,
and the homomorphism induced by a 2-cell."""

from __future__ import annotations

from itertools import permutations, product

from .syntax import (
    And,
    Atom,
    Bot,
    Eq,
    Exists,
    Or,
    Top,
    enum_formulas,
    normalize,
    substitute,
)


class SemanticsError(Exception):
    pass


class ResourceGuard(Exception):
    """Raised when an exhaustive search would blow past the configured size."""


class FiniteModel:
    """Carrier 0..size-1 plus a set of tuples per relation symbol."""

    def __init__(self, size, tables):
        self.size = size
        self.tables = {sym: frozenset(map(tuple, rows)) for sym, rows in tables.items()}
        for sym, rows in self.tables.items():
            for row in rows:
                if any(not 0 <= v < size for v in row):
                    raise SemanticsError(f"tuple {row} out of range in {sym}")
        self._ext_cache = {}

    def __eq__(self, other):
        return (
            isinstance(other, FiniteModel)
            and self.size == other.size
            and self.tables == other.tables
        )

    def __hash__(self):
        return hash((self.size, frozenset(self.tables.items())))

    def __repr__(self):
        rels = {s: sorted(r) for s, r in sorted(self.tables.items())}
        return f"FiniteModel(size={self.size}, tables={rels})"

    def canonical(self):
        """Minimal relabeling of the relation tables; isomorphism invariant."""
        syms = sorted(self.tables)
        best = None
        for perm in permutations(range(self.size)):
            enc = tuple(
                tuple(sorted(tuple(perm[v] for v in row) for row in self.tables[s]))
                for s in syms
            )
            if best is None or enc < best:
                best = enc
        return (self.size, tuple(syms), best)

    def ext(self, phi, ctx):
        """Extension of phi in context ctx as a frozenset of ctx-tuples."""
        return extension(self, phi, ctx, self._ext_cache)


def extension(m, phi, n, memo):
    """Set of n-tuples of m satisfying phi, computed bottom-up with sharing
    of subformula extensions through memo, a dict keyed by (formula,
    context).  A symbol without a table in m has an empty extension."""
    key = (phi, n)
    out = memo.get(key)
    if out is not None:
        return out
    if isinstance(phi, Atom):
        table = m.tables.get(phi.sym, frozenset())
        out = frozenset(
            a for a in product(range(m.size), repeat=n)
            if tuple(a[i - 1] for i in phi.args) in table
        )
    elif isinstance(phi, Eq):
        out = frozenset(
            a for a in product(range(m.size), repeat=n)
            if a[phi.i - 1] == a[phi.j - 1]
        )
    elif isinstance(phi, And):
        out = frozenset(product(range(m.size), repeat=n))
        for p in phi.parts:
            out &= extension(m, p, n, memo)
    elif isinstance(phi, Or):
        out = frozenset()
        for p in phi.parts:
            out |= extension(m, p, n, memo)
    elif isinstance(phi, Exists):
        out = frozenset(a[:-1] for a in extension(m, phi.body, n + 1, memo))
    elif isinstance(phi, Top):
        out = frozenset(product(range(m.size), repeat=n))
    elif isinstance(phi, Bot):
        out = frozenset()
    else:
        raise SemanticsError(f"not a formula: {phi!r}")
    memo[key] = out
    return out


def eval_formula(m, phi, a):
    """M |= phi(a) for an assignment tuple a matching the context size."""
    return tuple(a) in m.ext(phi, len(a))


def is_model(m, t):
    for ax in t.axioms:
        if not m.ext(ax.lhs, ax.ctx) <= m.ext(ax.rhs, ax.ctx):
            return False
    return True


def enumerate_models(t, max_size, guard_bits=22):
    """All models of t with carrier at most max_size, one per isomorphism
    class, in canonical ascending order.  Raises ResourceGuard if the table
    space at some size exceeds 2^guard_bits valuations."""
    out = []
    for size in range(max_size + 1):
        bits = sum(size ** ar for _, ar in t.signature.relations)
        if bits > guard_bits:
            raise ResourceGuard(
                f"size {size} needs 2^{bits} valuations (> 2^{guard_bits})"
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


def ctp(m, a, t, d, cap=2000):
    """Truth profile of the tuple a in m over the canonical depth-d formula
    enumeration: the frozenset of indices of satisfied formulas."""
    return profile(m, a, enum_formulas(t.signature, len(a), d, cap))


def profile(m, a, formulas):
    """Indices of the formulas that hold of the tuple a in m."""
    return frozenset(i for i, phi in enumerate(formulas) if eval_formula(m, phi, a))


# ---------------------------------------------------------------------------
# interpreted models


def gamma_star(g, m):
    """Quotient model of the source theory from a model m of the target.

    g is an Interpretation (module typespace).  Carrier: k-tuples satisfying
    g's domain formula, modulo the equivalence defined by g's equality
    formula (checked, not assumed)."""
    from .typespace import apply_interpretation  # cycle kept import-local

    k = g.k
    src = g.source.signature
    dom = g.domain_formula()
    eqf = g.equality_formula()
    a_set = sorted(m.ext(dom, k))
    eq_ext = m.ext(eqf, 2 * k)

    def related(t1, t2):
        return t1 + t2 in eq_ext

    for t1 in a_set:
        if not related(t1, t1):
            raise SemanticsError(f"equality not reflexive on domain at {t1}")
    for t1 in a_set:
        for t2 in a_set:
            if related(t1, t2) and not related(t2, t1):
                raise SemanticsError(f"equality not symmetric at ({t1},{t2})")
    for t1 in a_set:
        for t2 in a_set:
            if not related(t1, t2):
                continue
            for t3 in a_set:
                if related(t2, t3) and not related(t1, t3):
                    raise SemanticsError(
                        f"equality not transitive at ({t1},{t2},{t3})"
                    )

    classes = []
    cls_of = {}
    for t1 in a_set:
        for i, rep in enumerate(classes):
            if related(t1, rep):
                cls_of[t1] = i
                break
        else:
            cls_of[t1] = len(classes)
            classes.append(t1)

    tables = {}
    for sym, ar in src.relations:
        phi = apply_interpretation(g, Atom(sym, tuple(range(1, ar + 1))), ar)
        ext = m.ext(phi, ar * k)
        rows = set()
        for tup in product(a_set, repeat=ar):
            flat = sum(tup, ())
            if flat in ext:
                rows.add(tuple(cls_of[t] for t in tup))
        # well-definedness on classes
        for tup in product(a_set, repeat=ar):
            flat = sum(tup, ())
            row = tuple(cls_of[t] for t in tup)
            if row in rows and flat not in ext:
                raise SemanticsError(
                    f"relation {sym} not well-defined on classes at {tup}"
                )
        tables[sym] = rows
    out = FiniteModel(len(classes), tables)
    out.class_reps = classes
    out.class_of = cls_of
    return out


def hom_from_theta(theta, m):
    """Carrier map of the homomorphism Γ*(M) -> Γ'*(M) defined by a 2-cell.

    Returns (quotient of source interpretation, quotient of target
    interpretation, mapping of class indices).  Raises with a witness tuple
    when theta is not total or not functional on m."""
    g, g2 = theta.source, theta.target
    q1 = gamma_star(g, m)
    q2 = gamma_star(g2, m)
    ext = m.ext(theta.formula, g.k + g2.k)
    mapping = {}
    for t1, i in q1.class_of.items():
        for t2, j in q2.class_of.items():
            if t1 + t2 in ext:
                if i in mapping and mapping[i] != j:
                    raise SemanticsError(f"2-cell not functional at {t1}")
                mapping[i] = j
    for t1, i in q1.class_of.items():
        if i not in mapping:
            raise SemanticsError(f"2-cell not total at {t1}")
    src = g.source.signature
    for sym, ar in src.relations:
        for row in q1.tables[sym]:
            if tuple(mapping[v] for v in row) not in q2.tables[sym]:
                raise SemanticsError(f"2-cell does not preserve {sym} at {row}")
    return q1, q2, mapping


# ---------------------------------------------------------------------------
# JSON


def model_to_json(m):
    return {
        "carrier": m.size,
        "relations": {s: sorted(map(list, rows)) for s, rows in sorted(m.tables.items())},
    }


def model_from_json(obj):
    return FiniteModel(
        obj["carrier"], {s: {tuple(r) for r in rows} for s, rows in obj["relations"].items()}
    )
