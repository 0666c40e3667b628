"""Finite classical models: satisfaction, exhaustive enumeration up to
isomorphism, coherent types of tuples, quotient models of interpretations,
and the homomorphism induced by a 2-cell.

Formula extensions are int bitsets over the n-tuples of the carrier: bit j
stands for the j-th tuple of ``itertools.product(range(size), repeat=n)``,
that is the tuple whose base-``size`` digits, most significant first, are
the digits of j.  ``FiniteModel.ext`` decodes them to sets of tuples.

A ``ModelBatch`` lays K models of one size s end to end, so that one
evaluation serves all of them: bit ``i * s**n + j`` of a batch extension is
tuple j of model i.  One model's mask times a spread, an int with bit
``i * s**n`` set for some models i, is the mask copied into those models
with no carry; a lone ``FiniteModel`` is the batch of one, with spread 1."""

from __future__ import annotations

from functools import cache
from itertools import product
from types import SimpleNamespace

from .lattice import ResourceGuard, bit_positions
from .syntax import (
    And,
    Atom,
    Bot,
    Eq,
    Exists,
    Or,
    Top,
    cached,
    enum_formulas,
)


class SemanticsError(Exception):
    pass


class FiniteModel:
    """Carrier 0..size-1 plus a set of tuples per relation symbol.  The
    extensions evaluated on a model are kept on it, in ``_ext_cache``, which
    only this module reads: the memo dies with its model."""

    blocks = 1  # models in the batch: a lone model is the batch of one

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

    def ext(self, phi, ctx):
        """Extension of phi in context ctx as a frozenset of ctx-tuples,
        decoded from the bitset of ``extension`` on the model's cache."""
        bits = extension(self, phi, ctx, self._ext_cache)
        return frozenset(
            a for j, a in enumerate(product(range(self.size), repeat=ctx))
            if bits >> j & 1
        )


class ModelBatch:
    """Models of one size laid end to end for ``extension``: bit
    ``i * size**n + j`` of an extension is tuple j of models[i].  The rows
    of each symbol, grouped by spread in context n, are built on first use
    and kept on the batch, dropped with it."""

    def __init__(self, models):
        self.models = tuple(models)
        self.size = self.models[0].size
        self.blocks = len(self.models)
        self._groups = {}  # (symbol, n) -> ((spread, rows), ...)

    def groups(self, sym, n):
        """sym's rows grouped by spread: bit ``i * size**n`` of a row's
        spread is set when models[i] holds the row."""
        out = self._groups.get((sym, n))
        if out is None:
            width, spreads, by_spread = self.size ** n, {}, {}
            for i, m in enumerate(self.models):
                for row in m.tables.get(sym, ()):
                    spreads[row] = spreads.get(row, 0) | 1 << i * width
            for row, spread in spreads.items():
                by_spread.setdefault(spread, []).append(row)
            out = self._groups[sym, n] = tuple(by_spread.items())
        return out


@cached
def _coord_masks(size, n):
    """masks[k][v]: bitset of the n-tuples over range(size) whose entry k
    (0-based) is v."""
    if size == 0:
        return ((),) * n
    total = size ** n
    masks = []
    for k in range(n):
        width = size ** (n - 1 - k)  # weight of entry k in the tuple index
        period = width * size
        comb = ((1 << total) - 1) // ((1 << period) - 1)  # bit at each period
        masks.append(tuple((((1 << width) - 1) << v * width) * comb
                           for v in range(size)))
    return tuple(masks)


def tuple_index(size, a):
    """Index of the tuple a in the bitset order, or None when an entry of a
    lies outside range(size)."""
    j = 0
    for v in a:
        if not 0 <= v < size:
            return None
        j = j * size + v
    return j


def tuple_at(size, n, j):
    """The n-tuple at index j of the bitset order: j's base-size digits;
    inverse of ``tuple_index``."""
    out = []
    for _ in range(n):
        j, v = divmod(j, size)
        out.append(v)
    return tuple(reversed(out))


def extension(m, phi, n, memo):
    """Bitset of the n-tuples of m satisfying phi: bit j holds for the j-th
    tuple of ``product(range(m.size), repeat=n)``.  m may be a
    ``ModelBatch``; then bit ``i * m.size**n + j`` is tuple j of model i,
    and a one-model mask is copied into the models by a spread.
    Computed bottom-up with sharing of subformula extensions through memo, a
    dict keyed by (formula, context).  A symbol without a table in m has an
    empty extension."""
    key = (phi, n)
    out = memo.get(key)
    if out is not None:
        return out
    size = m.size
    if isinstance(phi, Atom):
        masks = _coord_masks(size, n)
        full = (1 << size ** n) - 1
        groups = m.groups(phi.sym, n) if isinstance(m, ModelBatch) else \
            ((1, m.tables.get(phi.sym, ())),)
        out = 0
        for spread, rows in groups:
            one = 0
            for row in rows:
                bits = full
                for i, v in zip(phi.args, row):
                    bits &= masks[i - 1][v]
                one |= bits
            out |= one * spread
    elif isinstance(phi, Eq):
        masks = _coord_masks(size, n)
        out = 0
        for v in range(size):
            out |= masks[phi.i - 1][v] & masks[phi.j - 1][v]
        if out:  # times the spread of every model
            width = size ** n
            out *= ((1 << m.blocks * width) - 1) // ((1 << width) - 1)
    elif isinstance(phi, And):
        out = (1 << m.blocks * size ** n) - 1
        for p in phi.parts:
            out &= extension(m, p, n, memo)
    elif isinstance(phi, Or):
        out = 0
        for p in phi.parts:
            out |= extension(m, p, n, memo)
    elif isinstance(phi, Exists):
        # the bound variable is the last entry, so tuple j of the context
        # owns the block of bits j*size .. j*size+size-1 of the body
        body = extension(m, phi.body, n + 1, memo)
        out = 0
        if body:
            folded = body
            for v in range(1, size):
                folded |= body >> v
            digits = format(folded, f"0{m.blocks * size ** (n + 1)}b")
            out = int(digits[size - 1::size], 2)
    elif isinstance(phi, Top):
        out = (1 << m.blocks * size ** n) - 1
    elif isinstance(phi, Bot):
        out = 0
    else:
        raise SemanticsError(f"not a formula: {phi!r}")
    memo[key] = out
    return out


def eval_formula(m, phi, a):
    """M |= phi(a) for an assignment tuple a matching the context size.
    False when an entry of a lies outside the carrier."""
    j = tuple_index(m.size, a)
    return j is not None and extension(m, phi, len(a), m._ext_cache) >> j & 1 == 1


def violations(m, s):
    """Bitset of the s.ctx-tuples of m where s.lhs holds and s.rhs fails."""
    memo = m._ext_cache
    return extension(m, s.lhs, s.ctx, memo) & ~extension(m, s.rhs, s.ctx, memo)


def is_model(m, t):
    return not any(violations(m, ax) for ax in t.axioms)


GUARD_BITS = 22  # largest table space enumerate_models scans: 2^22 valuations


def _tables(blocks, mask, ones):
    """The tables of a mask: each symbol's rows whose bits are set in its
    block.  blocks lists (symbol, first slot, rows in ``product`` order);
    ones(v) is the tuple of ``bit_positions(v)``."""
    return {sym: [rows[j] for j in ones(mask >> off & (1 << len(rows)) - 1)]
            for sym, off, rows in blocks}


def _symbols(phi):
    """The relation symbols that occur in phi."""
    if isinstance(phi, Atom):
        return {phi.sym}
    kids = phi.parts if isinstance(phi, (And, Or)) else \
        (phi.body,) if isinstance(phi, Exists) else ()
    return set().union(*map(_symbols, kids))


def _model_masks(size, blocks, axioms):
    """The masks over the slots of blocks whose tables satisfy every axiom,
    in ascending order.

    The slots are decided from the last to the first, 0 before 1, so full
    masks come in ascending order.  A partial mask is pruned once some axiom
    has lhs in its lower table (undecided slots false) but not rhs in its
    upper table (undecided slots true).  This is exact: every positive
    formula is monotone in the tables, so each completion satisfies lhs at
    least where the lower table does and rhs at most where the upper table
    does; and a full mask is its own lower and upper table, where the test
    is ``is_model``'s.  Deciding a slot 1 changes only the lower table and
    0 only the upper one, and only in the slot's symbol: a node re-evaluates
    just the lhs, or just the rhs, of the axioms that mention it and takes
    every other extension from its parent, where they passed the test."""
    width = sum(len(rows) for _, _, rows in blocks)
    if not axioms:
        yield from range(1 << width)
        return
    sides = ([(ax.lhs, ax.ctx) for ax in axioms], [(ax.rhs, ax.ctx) for ax in axioms])
    # watch[side][i]: the axioms whose side mentions the symbol of slot i
    watch = []
    for side in sides:
        mentions = [_symbols(phi) for phi, _ in side]
        watch.append([[a for a, syms in enumerate(mentions) if sym in syms]
                      for sym, _, rows in blocks for _ in rows])
    ones = cache(lambda v: tuple(bit_positions(v)))

    def ext(mask, side, which, exts):
        if not which:
            return exts
        # the tables of mask, which ``extension`` reads as a lone model
        view = SimpleNamespace(size=size, blocks=1, tables=_tables(blocks, mask, ones))
        memo, exts = {}, list(exts)
        for a in which:
            phi, n = sides[side][a]
            exts[a] = extension(view, phi, n, memo)
        return exts

    everything, unset = range(len(axioms)), [None] * len(axioms)
    lower = ext(0, 0, everything, unset)
    upper = ext((1 << width) - 1, 1, everything, unset)
    if any(lo & ~up for lo, up in zip(lower, upper)):
        return
    # (mask, undecided slots, lhs exts of the lower table, rhs exts of the
    # upper table), each node passing the test
    stack = [(0, width, lower, upper)]
    while stack:
        mask, i, lower, upper = stack.pop()
        if not i:
            yield mask
            continue
        i -= 1
        one = mask | 1 << i
        new = ext(one, 0, watch[0][i], lower)
        if not any(new[a] & ~upper[a] for a in watch[0][i]):
            stack.append((one, i, new, upper))
        new = ext(mask | (1 << i) - 1, 1, watch[1][i], upper)
        if not any(lower[a] & ~new[a] for a in watch[1][i]):
            stack.append((mask, i, lower, new))


def _orbit(code, moves):
    """The codes of every relabelling of one encoded object: the closure of
    code under moves, functions that relabel a code by each of a set of
    relabellings that generate all of them."""
    out, todo = {code}, [code]
    while todo:
        x = todo.pop()
        for move in moves:
            y = move(x)
            if y not in out:
                out.add(y)
                todo.append(y)
    return out


def _relabeller(size, blocks, perm):
    """The relabelling of masks by perm, looked up 8 slots at a time in three
    tables, which cover the GUARD_BITS slots."""
    image = [off + tuple_index(size, [perm[v] for v in row])
             for _, off, rows in blocks for row in rows]
    tables = []
    for lo in (0, 8, 16):
        chunk, table = image[lo:lo + 8], [0]
        for b in range(1, 1 << len(chunk)):
            table.append(table[b & b - 1] | 1 << chunk[(b & -b).bit_length() - 1])
        tables.append(table)
    t0, t1, t2 = tables
    return lambda x: t0[x & 255] | t1[x >> 8 & 255] | t2[x >> 16]


def _classes(t, size):
    """(key, model) for each isomorphism class of models of t of one size,
    ascending by key, the class key of ``enumerate_models``."""
    blocks, off = [], 0
    for sym, ar in t.signature.relations:
        rows = list(product(range(size), repeat=ar))
        blocks.append((sym, off, rows))
        off += len(rows)
    perms = [(1, 0, *range(2, size)), (*range(1, size), 0)] if size > 1 else []
    moves = [_relabeller(size, blocks, perm) for perm in perms]
    order = sorted(blocks)
    syms = tuple(sym for sym, _, _ in order)
    spans = [(off, (1 << len(rows)) - 1) for _, off, rows in order]
    seen, level = set(), []
    ones = cache(lambda v: tuple(bit_positions(v)))
    for mask in _model_masks(size, blocks, t.axioms):
        if mask in seen:
            continue
        m = FiniteModel(size, _tables(blocks, mask, ones))
        masks = _orbit(mask, moves)
        seen |= masks
        code = min(tuple([ones(x >> off & full) for off, full in spans])
                   for x in masks)
        key = tuple([tuple([rows[j] for j in c])
                     for (_, _, rows), c in zip(order, code)])
        level.append(((size, syms, key), m))
    level.sort(key=lambda kv: kv[0])
    return level


def enumerate_models(t, max_size):
    """All models of t with carrier at most max_size, one per isomorphism
    class, in canonical ascending order.  Raises ResourceGuard, before it
    scans any size, if the table space at some size exceeds 2^GUARD_BITS
    valuations.

    A table valuation of one size is a mask over its slots, the (symbol,
    row) pairs with the symbols in signature order and the rows of each in
    ``product`` order; bit i is slot i.  ``_model_masks`` gives the models
    in ascending mask order, and the first of a class, its representative,
    marks its orbit: the closure of its mask under relabelling by a
    transposition and a full cycle, which generate every relabelling.  So
    every later mask of the class is skipped unbuilt.

    The key of a class is (size, symbols, code) with the symbols sorted and
    code the least over all relabellings of the model's tables: a
    relabelling's code lists, for each symbol in sorted order, its
    relabelled rows in ascending order.  Isomorphic models, and only they,
    have equal keys.  A relabelling's code depends only on the relabelled
    tables, which the relabelled mask is, so the least code is the least
    over the distinct masks of the orbit.  Within a symbol's block the set
    bits come in row order, so codes compare as tuples of slot indices."""
    for size in range(max_size + 1):
        bits = sum(size ** ar for _, ar in t.signature.relations)
        if bits > GUARD_BITS:
            raise ResourceGuard(
                f"size {size} needs 2^{bits} valuations (> 2^{GUARD_BITS})"
            )
    return [m for size in range(max_size + 1) for _, m in _classes(t, size)]


def ctp(m, a, t, d, cap=2000):
    """Truth profile of the tuple a in m over the canonical depth-d formula
    enumeration, as ``profile`` gives it."""
    return profile(m, a, enum_formulas(t.signature, len(a), d, cap))


def profile(m, a, formulas):
    """The profile of the tuple a in m over formulas as ``profile_bits``
    lays it out: bit i says that formula i holds; 0 if a is out of range."""
    j = tuple_index(m.size, a)
    if j is None:
        return 0
    n, memo = len(a), m._ext_cache
    return sum(1 << i for i, phi in enumerate(formulas)
               if extension(m, phi, n, memo) >> j & 1)


_CHUNK = 256  # tuples per transposed slice of profile_bits


def profile_bits(m, formulas, n):
    """The profile of every n-tuple of m over formulas, in tuple-index
    order, each as an int whose bit i says that formula i holds: tuple j's
    profile gathers bit j of every extension.  m may be a ``ModelBatch``;
    then the list runs over the tuples of each model in turn.  Evaluates
    with a fresh memo, dropped before the formula-by-tuple bit matrix is
    transposed in slices of ``_CHUNK`` tuples, so neither the subformula
    extensions nor a whole transposed matrix are kept."""
    width = m.blocks * m.size ** n
    if not width or not formulas:
        return [0] * width
    memo = {}
    rows = [extension(m, phi, n, memo) for phi in formulas]
    del memo
    out = []
    for lo in range(0, width, _CHUNK):
        w = min(_CHUNK, width - lo)
        mask = (1 << w) - 1
        cols = zip(*[format(r >> lo & mask, f"0{w}b") for r in rows])
        # column c of the slice belongs to tuple lo+w-1-c; reversing the
        # column puts formula i on bit i
        out.extend(int("".join(col)[::-1], 2) for col in reversed(list(cols)))
    return out


def model_profiles(models, formulas, n):
    """``profile_bits`` of each model, in the order of models, from one
    ``ModelBatch`` evaluation per carrier size."""
    by_size = {}
    for mi, m in enumerate(models):
        by_size.setdefault(m.size, []).append(mi)
    out = [None] * len(models)
    for size, group in by_size.items():
        span = size ** n
        flat = profile_bits(ModelBatch(models[mi] for mi in group), formulas, n)
        for i, mi in enumerate(group):
            out[mi] = flat[i * span:(i + 1) * span]
    return out


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
    size, relations = obj.get("carrier"), obj.get("relations")
    if type(size) is not int or size < 0 or not isinstance(relations, dict):
        raise SemanticsError("a model needs a natural-number carrier and an "
                             "object of relations")
    for sym, rows in relations.items():
        if not isinstance(rows, list) or not all(
                isinstance(r, list) and all(type(v) is int for v in r) for r in rows):
            raise SemanticsError(f"relation {sym} is not a list of integer rows")
    return FiniteModel(size, relations)
