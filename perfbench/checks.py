"""Checkers that judge the program's outputs without using the program.

* A formula evaluator over model tables.  Formulas are nested tuples:
  ``("top",)``, ``("bot",)``, ``("atom", sym, args)``, ``("eq", i, j)``,
  ``("and", parts)``, ``("or", parts)``, ``("exists", body)``.  Variables
  are 1-based positions in the assignment; an existential binds a new last
  variable, as in ``cohlogic.syntax``.
* The count of pqr models per size, as multisets of element types.
* Known sequences: partial sums of the partition numbers, OEIS A006982 and
  A000112.

``python3 perfbench/checks.py`` runs the self-tests, which feed each
checker a deliberately wrong answer and show that it is rejected.
"""

from itertools import combinations, combinations_with_replacement, product

# ---------------------------------------------------------------------------
# formulas and models


def as_tuple(phi):
    """A cohlogic formula object as a nested tuple, read field by field."""
    kind = type(phi).__name__
    if kind == "Top":
        return ("top",)
    if kind == "Bot":
        return ("bot",)
    if kind == "Atom":
        return ("atom", phi.sym, tuple(phi.args))
    if kind == "Eq":
        return ("eq", phi.i, phi.j)
    if kind == "And":
        return ("and", tuple(as_tuple(p) for p in phi.parts))
    if kind == "Or":
        return ("or", tuple(as_tuple(p) for p in phi.parts))
    if kind == "Exists":
        return ("exists", as_tuple(phi.body))
    raise ValueError(f"not a formula: {phi!r}")


def holds(size, tables, phi, a):
    """Whether phi holds at assignment a in the model with carrier
    0..size-1 and relation tables {sym: set of tuples}."""
    op = phi[0]
    if op == "top":
        return True
    if op == "bot":
        return False
    if op == "atom":
        return tuple(a[i - 1] for i in phi[2]) in tables.get(phi[1], ())
    if op == "eq":
        return a[phi[1] - 1] == a[phi[2] - 1]
    if op == "and":
        return all(holds(size, tables, p, a) for p in phi[1])
    if op == "or":
        return any(holds(size, tables, p, a) for p in phi[1])
    if op == "exists":
        return any(holds(size, tables, phi[1], a + (v,)) for v in range(size))
    raise ValueError(f"not a formula: {phi!r}")


def satisfies(size, tables, axioms):
    """Whether every axiom (ctx, lhs, rhs) holds at every assignment."""
    for ctx, lhs, rhs in axioms:
        for a in product(range(size), repeat=ctx):
            if holds(size, tables, lhs, a) and not holds(size, tables, rhs, a):
                return False
    return True


def countermodel_error(size, tables, axioms, ctx, lhs, rhs, a):
    """None if (size, tables, a) is a countermodel to lhs |- rhs in a model
    of the axioms, else what is wrong with it."""
    if len(a) != ctx or any(not 0 <= v < size for v in a):
        return f"assignment {a} does not fit context {ctx} and size {size}"
    if not satisfies(size, tables, axioms):
        return "the countermodel violates an axiom"
    if not holds(size, tables, lhs, a):
        return "the left side fails at the assignment"
    if holds(size, tables, rhs, a):
        return "the right side holds at the assignment"
    return None


def find_countermodel(models, ctx, lhs, rhs):
    """The first (size, tables, assignment) in models falsifying the
    sequent, or None.  models is an iterable of (size, tables)."""
    for size, tables in models:
        for a in product(range(size), repeat=ctx):
            if holds(size, tables, lhs, a) and not holds(size, tables, rhs, a):
                return size, tables, a
    return None


def all_structures(relations, max_size):
    """Every structure (size, tables) on carriers 0..n-1, n <= max_size, for
    relations [(sym, arity)]: labelled, not up to isomorphism."""
    for size in range(max_size + 1):
        slots = [(sym, row) for sym, ar in relations
                 for row in product(range(size), repeat=ar)]
        for bits in range(1 << len(slots)):
            tables = {sym: set() for sym, _ in relations}
            for k, (sym, row) in enumerate(slots):
                if bits >> k & 1:
                    tables[sym].add(row)
            yield size, tables


# ---------------------------------------------------------------------------
# counts


def pqr_model_counts(max_size):
    """Models of ``P(x) & Q(y) |- R(x) | R(y)`` per size, up to iso.

    Over unary P, Q, R a model up to isomorphism is a multiset of element
    types (subsets of {P, Q, R}).  The axiom at x = y forbids the type
    {P, Q}; at x != y it forbids a P-element without R next to a
    Q-element without R."""
    types = [frozenset(s) for k in range(4) for s in combinations("PQR", k)]
    allowed = [t for t in types if not ({"P", "Q"} <= t and "R" not in t)]

    def clash(s, t):
        return ("P" in s and "R" not in s and "Q" in t and "R" not in t)

    out = []
    for n in range(max_size + 1):
        count = 0
        for ms in combinations_with_replacement(range(len(allowed)), n):
            kinds = [allowed[i] for i in set(ms)]
            if not any(clash(s, t) for s in kinds for t in kinds if s != t):
                count += 1
        out.append(count)
    return out


def partition_numbers(n):
    """p(0..n) by the standard recurrence over the largest part."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p


def per_model_counts(max_size):
    """Partial equivalence relations on n points up to iso: choose the
    domain's size k, then a partition of it, so sum of p(k) for k <= n."""
    p = partition_numbers(max_size)
    return [sum(p[: n + 1]) for n in range(max_size + 1)]


def unary_model_counts(max_size):
    """sig { P/1 }: an n-element model is fixed by how many elements are P."""
    return [n + 1 for n in range(max_size + 1)]


# OEIS A006982, distributive lattices on n = 1, 2, ... elements
DIST_LATTICES = (1, 1, 1, 2, 3, 5, 8, 10, 15, 26)
# OEIS A000112, posets on n = 0, 1, ... points
POSETS = (1, 1, 2, 5, 16, 63, 318, 2045)


def count_error(name, got, want):
    """None if the per-size counts agree, else a message."""
    if list(got) != list(want):
        return f"{name}: counts per size {list(got)}, expected {list(want)}"
    return None


# ---------------------------------------------------------------------------
# self-tests

PQR_AXIOMS = [(2, ("and", (("atom", "P", (1,)), ("atom", "Q", (2,)))),
               ("or", (("atom", "R", (1,)), ("atom", "R", (2,)))))]


def self_test():
    """Feed each checker a right and a wrong answer; a list of problems."""
    bad = []
    # formula evaluator: a genuine countermodel to P(x) |- R(x), then the
    # same model corrupted three ways
    good = (1, {"P": {(0,)}, "Q": set(), "R": set()})
    lhs, rhs = ("atom", "P", (1,)), ("atom", "R", (1,))
    if countermodel_error(*good, PQR_AXIOMS, 1, lhs, rhs, (0,)) is not None:
        bad.append("a true countermodel was rejected")
    wrong = [
        (1, {"P": {(0,)}, "Q": set(), "R": {(0,)}}),    # R holds
        (1, {"P": {(0,)}, "Q": {(0,)}, "R": set()}),    # violates the axiom
        (1, {"P": set(), "Q": set(), "R": set()}),      # P fails
    ]
    for size, tables in wrong:
        if countermodel_error(size, tables, PQR_AXIOMS, 1, lhs, rhs,
                              (0,)) is None:
            bad.append(f"a corrupted countermodel {tables} was accepted")
    ex = ("exists", ("and", (("atom", "E", (1, 2)), ("eq", 2, 2))))
    if not holds(2, {"E": {(0, 1)}}, ex, (0,)) or holds(2, {"E": {(0, 1)}},
                                                         ex, (1,)):
        bad.append("existential evaluated wrongly")
    # flipped verdict: P & Q |- R is valid in pqr, P |- R is not; a search
    # over all small structures must agree
    models = [m for m in all_structures([("P", 1), ("Q", 1), ("R", 1)], 2)
              if satisfies(*m, PQR_AXIOMS)]
    pq = ("and", (("atom", "P", (1,)), ("atom", "Q", (1,))))
    if find_countermodel(models, 1, pq, rhs) is not None:
        bad.append("a valid sequent was refuted")
    if find_countermodel(models, 1, lhs, rhs) is None:
        bad.append("an invalid sequent found no countermodel")
    # off-by-one counts
    checks = [
        ("pqr", pqr_model_counts(4), [1, 7, 27, 77, 182]),
        ("peq", per_model_counts(4), [1, 2, 4, 7, 12]),
        ("P/1", unary_model_counts(7), [1, 2, 3, 4, 5, 6, 7, 8]),
    ]
    for name, got, want in checks:
        if count_error(name, got, want) is not None:
            bad.append(f"{name} count wrong: {got}")
        off = list(want)
        off[-1] += 1
        if count_error(name, got, off) is None:
            bad.append(f"{name}: an off-by-one count was accepted")
    if sum(unary_model_counts(7)) != 36:
        bad.append("P/1 total is not 36")
    return bad


if __name__ == "__main__":
    problems = self_test()
    for p in problems:
        print("FAIL:", p)
    print("self-test", "failed" if problems else "passed")
    raise SystemExit(1 if problems else 0)
