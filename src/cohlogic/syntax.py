"""Relational signatures, positive formulas-in-context, sequents and theories.

Formulas are positive existential: atoms, equality, top, bottom, n-ary
conjunction/disjunction and existential quantification.  Variables are
positional indices 1..n within an explicit context size; ``Exists`` binds
index n+1 of its body.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, insort
from functools import lru_cache, wraps
from heapq import nsmallest
from itertools import combinations, product
from operator import attrgetter
from types import SimpleNamespace
from weakref import finalize


class SyntaxError_(Exception):
    """Raised on malformed formulas, sequents or theory source text."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# records


class Record:
    """A value record: ``_fields`` names its fields, in order.  A record
    equals only a record of its own type with equal fields, prints as
    ``Name(field=value, ...)`` and is unhashable unless frozen."""

    _fields = ()

    def __init_subclass__(cls):  # one getter of the fields per class
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A record whose fields are set once, in ``__init__``, through
    ``__dict__`` past ``__setattr__``.  It hashes on its fields."""

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {value!r} to field {name!r} "
                             f"of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} "
                             f"of a frozen {type(self).__name__}")


# ---------------------------------------------------------------------------
# formula trees
#
# Keys sort formulas by kind (top, bottom, atom, equality, and, or, exists),
# then symbol, then arguments or the keys of the parts.  Every formula stores
# its hash, size (node count) and depth (connective nesting) when it is made,
# from its parts' stored values, and its key on first use.


_set = object.__setattr__  # fills a slot of a frozen formula


class _Formula:
    """Equality is structural: two formulas are equal when they are of one
    kind with equal keys, as a key determines the formula, and their stored
    hashes settle most unequal pairs.  A leaf has size 1 and depth 0."""

    __slots__ = ("key", "_hash")
    _fields = ()
    size, depth = 1, 0
    # the record methods, not the record bases: a longer MRO on every formula
    # kind measurably slowed the prover's loop of hashes and isinstance tests
    __setattr__, __delattr__, __repr__ = (
        Frozen.__setattr__, Frozen.__delattr__, Record.__repr__)

    def __init__(self):  # of top and bottom
        self._leaf((_RANK[type(self)], "", ()))

    def _leaf(self, key):  # a leaf's key is flat; it is hashed whole
        _set(self, "key", key)
        _set(self, "_hash", hash(key))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (type(self) is type(other)
                                 and self._hash == other._hash
                                 and self.key == other.key)

    def __reduce__(self):  # pickled and copied through __init__
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Atom(_Formula):
    __slots__ = _fields = ("sym", "args")

    def __init__(self, sym, args):
        _set(self, "sym", sym)
        _set(self, "args", args)
        self._leaf((2, sym, args))


class Eq(_Formula):
    __slots__ = _fields = ("i", "j")

    def __init__(self, i, j):
        _set(self, "i", i)
        _set(self, "j", j)
        self._leaf((3, "", (i, j)))


class Top(_Formula):
    __slots__ = ()


class Bot(_Formula):
    __slots__ = ()


class _Node(_Formula):
    """A node stores its hash, size and depth when it is made, from its
    parts' stored values, and its key on first use: most interned nodes are
    never ordered or compared with an equal copy, and never build one."""

    __slots__ = ("size", "depth")

    def _measure(self, kids):
        size, depth = 1, 0
        for p in kids:
            size += p.size
            if p.depth > depth:
                depth = p.depth
        _set(self, "_hash", hash((_RANK[type(self)], kids)))
        _set(self, "size", size)
        _set(self, "depth", depth + 1)

    def __getattr__(self, name):  # the key, not set yet
        if name != "key":
            raise AttributeError(name)
        key = self._key()
        _set(self, "key", key)
        return key


class _Junction(_Node):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts):
        _set(self, "parts", parts)
        self._measure(parts)

    def _key(self):
        return (_RANK[type(self)], "", tuple([p.key for p in self.parts]))


class And(_Junction):
    __slots__ = ()


class Or(_Junction):
    __slots__ = ()


class Exists(_Node):
    __slots__ = _fields = ("body",)

    def __init__(self, body):
        _set(self, "body", body)
        self._measure((body,))

    def _key(self):
        return (6, "", self.body.key)


Formula = Atom | Eq | Top | Bot | And | Or | Exists

_RANK = {Top: 0, Bot: 1, Atom: 2, Eq: 3, And: 4, Or: 5, Exists: 6}

TOP = Top()
BOT = Bot()

# the total order key (used for canonical sorting), the node count and the
# connective-nesting depth of a formula
formula_key = attrgetter("key")
formula_size = attrgetter("size")
formula_depth = attrgetter("depth")


# ---------------------------------------------------------------------------
# signatures, sequents, theories


class Signature(Frozen):
    _fields = ("name", "relations")

    def __init__(self, name, relations):  # (symbol, arity), symbols unique
        seen = set()
        for sym, ar in relations:
            if sym in seen:
                raise SyntaxError_(f"duplicate relation symbol {sym!r}")
            if ar < 0:
                raise SyntaxError_(f"negative arity for {sym!r}")
            if sym == "=":
                raise SyntaxError_("equality is built in and cannot be declared")
            seen.add(sym)
        self.__dict__.update(name=name, relations=relations)

    def arity(self, sym):
        for s, ar in self.relations:
            if s == sym:
                return ar
        raise SyntaxError_(f"unknown relation symbol {sym!r}")


class Sequent(Frozen):
    _fields = ("ctx", "lhs", "rhs")

    def __init__(self, ctx, lhs, rhs):
        self.__dict__.update(ctx=ctx, lhs=lhs, rhs=rhs)

    # spelt out, as plain attribute reads beat the shared getter
    def __hash__(self):
        return hash((self.ctx, self.lhs, self.rhs))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ctx, self.lhs, self.rhs) == (other.ctx, other.lhs, other.rhs)


class Theory(Frozen):
    """Equality is structural; the hash is computed once, when the theory
    is made.  The prover's instance tables are kept per theory object."""

    _fields = ("name", "signature", "axioms")

    def __init__(self, name, signature, axioms):
        axioms = tuple(axioms)
        for seq in axioms:
            check_formula(signature, seq.lhs, seq.ctx)
            check_formula(signature, seq.rhs, seq.ctx)
        self.__dict__.update(name=name, signature=signature, axioms=axioms,
                             _hash=hash((name, signature, axioms)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # pickled through __init__, which hashes anew
        return type(self), self._values(self)


def check_formula(sig, phi, ctx):
    """Raise SyntaxError_ unless phi is well-formed over sig in context ctx."""
    if isinstance(phi, Atom):
        if sig.arity(phi.sym) != len(phi.args):
            raise SyntaxError_(
                f"{phi.sym} expects {sig.arity(phi.sym)} arguments, got {len(phi.args)}"
            )
        for a in phi.args:
            if not 1 <= a <= ctx:
                raise SyntaxError_(f"variable index {a} outside context 1..{ctx}")
    elif isinstance(phi, Eq):
        for a in (phi.i, phi.j):
            if not 1 <= a <= ctx:
                raise SyntaxError_(f"variable index {a} outside context 1..{ctx}")
    elif isinstance(phi, (And, Or)):
        for p in phi.parts:
            check_formula(sig, p, ctx)
    elif isinstance(phi, Exists):
        check_formula(sig, phi.body, ctx + 1)
    elif not isinstance(phi, (Top, Bot)):
        raise SyntaxError_(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# substitution and normalization


_CACHED = []  # the ``cached`` and ``cached_per_owner`` functions


def cached(fn):
    """``lru_cache`` without a bound, emptied by ``clear_caches``."""
    fn = lru_cache(maxsize=None)(fn)
    _CACHED.append(fn)
    return fn


def cached_per_owner(fn):
    """``cached`` for fn(owner, *args), with one table per owner object,
    keyed by identity and dropped when the owner is finalized: equal owners
    share nothing, and no owner is kept alive until a clear.  No value may
    refer to its owner, or the owner is never freed."""
    tables = {}  # id(owner) -> {args: value}

    @wraps(fn)
    def lookup(owner, *args):
        table = tables.get(id(owner))
        if table is None:
            table = tables[id(owner)] = {}
            finalize(owner, tables.pop, id(owner), None)
        if args not in table:
            table[args] = fn(owner, *args)
        return table[args]

    lookup.cache_clear = tables.clear
    lookup.cache_info = lambda: SimpleNamespace(
        currsize=sum(map(len, tables.values())))
    _CACHED.append(lookup)
    return lookup


def substitute(phi, f, m):
    """phi(x_f(1), ..., x_f(n)) in context m, for an index map f: n -> m.

    f is a tuple with f[i-1] the image of variable i.  Bound variables are
    re-indexed: under Exists the map extends with n+1 -> m+1.
    """
    for v in f:
        if not 1 <= v <= m:
            raise SyntaxError_(f"substitution image {v} outside context 1..{m}")
    return _subst(phi, f, m)


def _subst(phi, f, m):
    if isinstance(phi, Atom):
        return Atom(phi.sym, tuple(f[a - 1] for a in phi.args))
    if isinstance(phi, Eq):
        return Eq(f[phi.i - 1], f[phi.j - 1])
    if isinstance(phi, And):
        return And(tuple(_subst(p, f, m) for p in phi.parts))
    if isinstance(phi, Or):
        return Or(tuple(_subst(p, f, m) for p in phi.parts))
    if isinstance(phi, Exists):
        return Exists(_subst(phi.body, f + (m + 1,), m + 1))
    return phi


def all_maps(n, m):
    """All index maps n -> m, as the tuples of length n over 1..m in the
    order of ``itertools.product``, which is lexicographic.  Atoms in
    ``_enum`` and the prover's axiom instances are listed in this order."""
    return list(product(range(1, m + 1), repeat=n))


def shift(phi, n):
    """Embed a formula from context n into context n+1 (inclusion map)."""
    return substitute(phi, tuple(range(1, n + 1)), n + 1)


# ---------------------------------------------------------------------------
# normal forms, interned
#
# meet, join and exists build normal forms from normal forms and intern
# them (hash-consing, Filliatre & Conchon, ML 2006): until clear_caches,
# each normal form And, Or or Exists is one node, so equal normal forms are
# nearly always the same object.  normalize takes any tree, such as a parsed
# one, to its normal form through the same constructors, and reindex builds
# the normal form of a substitution through them without a raw tree.  Raw
# trees are made only by the parser, build_lattice_theory and the derivation
# checker (tests/test_normal_form_edge.py).

_NODES = {And: {}, Or: {}, Exists: {}}  # interned nodes by parts or body
_LAWS = {And: (TOP, BOT), Or: (BOT, TOP)}  # (unit, zero) of each junction


def clear_caches():
    """Empty the intern table and every table in ``_CACHED``.  Nodes
    made before stay valid, and equal to those made after."""
    for table in _NODES.values():
        table.clear()
    for fn in _CACHED:
        fn.cache_clear()


def _intern(cls, arg):
    table = _NODES[cls]
    node = table.get(arg)
    if node is None:
        node = table[arg] = cls(arg)
    return node


def meet(*items):
    """The normal form of the conjunction of normal forms items."""
    return _connect(And, items)


def join(*items):
    """The normal form of the disjunction of normal forms items."""
    return _connect(Or, items)


def exists(body):
    """The normal form of exists x. body, for a normal form body."""
    return body if type(body) is Bot else _intern(Exists, body)


def _connect(cls, items):
    """The normal form of cls(items) for normal forms items, with the unit
    and zero laws.  The parts are merged in key order: an item of kind cls
    brings its sorted parts and their keys, and a part whose key is there
    already is dropped."""
    unit, zero = _LAWS[cls]
    parts, keys = [], []
    for q in items:
        t = type(q)
        if t is type(zero):
            return zero
        if t is type(unit):
            continue
        qparts, qkeys = (q.parts, q.key[2]) if t is cls else ((q,), (q.key,))
        if not parts:  # the first item's parts are sorted already
            parts, keys = list(qparts), list(qkeys)
            continue
        for p, k in zip(qparts, qkeys):
            i = bisect_left(keys, k)
            if i == len(keys) or keys[i] != k:
                keys.insert(i, k)
                parts.insert(i, p)
    if len(parts) > 1:
        return _intern(cls, tuple(parts))
    return parts[0] if parts else unit


@cached
def normalize(phi):
    """Canonical form: flatten and/or, dedupe, sort, unit and zero laws.

    Nothing more: no absorption (p & (p | q) stays as it is).  The pruning
    in formula enumeration depends on that, since without absorption a
    meet or join of two distinct normalized formulas is one of them, top,
    bottom, or a formula at least as large as the bound ``_candidates``
    states.
    """
    t = type(phi)
    if t is Eq:
        if phi.i == phi.j:
            return TOP
        return Eq(min(phi.i, phi.j), max(phi.i, phi.j))
    if t is And or t is Or:
        return _connect(t, map(normalize, phi.parts))
    if t is Exists:
        return exists(normalize(phi.body))
    return phi


@cached
def reindex(phi, f, m):
    """normalize(substitute(phi, f, m)), built bottom-up through meet, join
    and exists, for an index map f whose images lie in 1..m.  Keyed by the
    interned node of a normal form phi, the cache holds no raw tree."""
    t = type(phi)
    if t is Atom:
        return Atom(phi.sym, tuple([f[a - 1] for a in phi.args]))
    if t is Eq:
        i, j = f[phi.i - 1], f[phi.j - 1]
        return TOP if i == j else Eq(min(i, j), max(i, j))
    if t is And or t is Or:
        return _connect(t, [reindex(p, f, m) for p in phi.parts])
    if t is Exists:
        return exists(reindex(phi.body, f + (m + 1,), m + 1))
    return phi


def normalize_sequent(s):
    return Sequent(s.ctx, normalize(s.lhs), normalize(s.rhs))


def conj(parts):
    return normalize(And(tuple(parts)))


def disj(parts):
    return normalize(Or(tuple(parts)))


# ---------------------------------------------------------------------------
# printing


def print_formula(phi, names=None):
    def go(phi, names, prec):
        # prec: 0 = or-level, 1 = and-level, 2 = atom-level
        if isinstance(phi, Top):
            return "true"
        if isinstance(phi, Bot):
            return "false"
        if isinstance(phi, Atom):
            if not phi.args:
                return phi.sym
            return f"{phi.sym}({', '.join(nm(a, names) for a in phi.args)})"
        if isinstance(phi, Eq):
            return f"{nm(phi.i, names)} = {nm(phi.j, names)}"
        if isinstance(phi, And):
            s = " & ".join(go(p, names, 2) for p in phi.parts)
            return f"({s})" if prec > 1 else s
        if isinstance(phi, Or):
            s = " | ".join(go(p, names, 1) for p in phi.parts)
            return f"({s})" if prec > 0 else s
        if isinstance(phi, Exists):
            v = fresh(names)
            s = go(phi.body, names + [v], 0)
            out = f"exists {v}. {s}"
            return f"({out})" if prec > 0 else out
        raise SyntaxError_(f"not a formula: {phi!r}")

    def nm(i, names):
        return names[i - 1] if i <= len(names) else f"x{i}"

    def fresh(names):
        k = len(names) + 1
        while f"x{k}" in names:
            k += 1
        return f"x{k}"

    base = list(names) if names else []
    return go(phi, base, 0)


def print_sequent(s):
    names = [f"x{i}" for i in range(1, s.ctx + 1)]
    ctx = ",".join(names)
    return f"[{ctx}] {print_formula(s.lhs, names)} |- {print_formula(s.rhs, names)}"


def print_theory(t):
    lines = [f"theory {t.name}"]
    decls = ", ".join(f"{s}/{a}" for s, a in t.signature.relations)
    lines.append(f"sig {{ {decls} }}" if decls else "sig { }")
    for ax in t.axioms:
        lines.append(f"axiom {print_sequent(ax)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<comment>#[^\n]*)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<punct>\|-|[()\[\]{},.&|=/])|(?P<num>[0-9]+)|(?P<bad>\S))"
)

# Parentheses and existentials nested deeper than this are rejected: the
# parser and every later pass over formulas recurse once per level.
MAX_NESTING = 200


class _Tokens:
    """The tokens of a text as (text, kind, line, column), the kind being a
    group of ``_TOKEN`` or "end".  Each line ends in a newline token and the
    text in a token whose text is None, both of kind "end"; ``take`` never
    steps past that last token."""

    def __init__(self, text):
        self.toks = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in _TOKEN.finditer(line):
                kind = m.lastgroup
                if kind == "bad":
                    raise SyntaxError_(f"unexpected character {m[kind]!r}",
                                       lineno, m.start() + 1)
                if kind != "comment":
                    self.toks.append((m[kind], kind, lineno, m.start(kind) + 1))
            self.toks.append(("\n", "end", lineno, len(line) + 1))
        self.toks.append((None, "end", self.toks[-1][2] if self.toks else 1, 1))
        self.pos = 0
        self.nesting = 0
        self.skip_newlines()

    def peek(self):
        return self.toks[self.pos][0]

    def kind(self):
        return self.toks[self.pos][1]

    def loc(self):
        return self.toks[self.pos][2:]

    def take(self, kind=None, what=None):
        """The current token's text, line and column, stepping past it; with
        a kind, raise what at a token of another kind."""
        text, got, line, col = self.toks[self.pos]
        if kind is not None and got != kind:
            raise SyntaxError_(what, line, col)
        self.pos = min(self.pos + 1, len(self.toks) - 1)
        return text, line, col

    def expect(self, tok):
        got, line, col = self.take()
        if got != tok:
            raise SyntaxError_(f"expected {tok!r}, got {got!r}", line, col)

    def skip_newlines(self):
        while self.peek() == "\n":
            self.take()

    def listed(self, opening, closing, lines=False):
        """Yield once per item of a comma list from opening to closing, for
        the caller to read the item; with lines, newlines may stand around
        the items and commas."""
        self.expect(opening)
        gap = self.skip_newlines if lines else lambda: None
        gap()
        if self.peek() != closing:
            while True:
                yield
                gap()
                if self.peek() != ",":
                    break
                self.take()
                gap()
        self.expect(closing)

    def finish(self, what):
        """Raise unless only newlines are left; what names a leftover."""
        self.skip_newlines()
        if self.peek() is not None:
            raise SyntaxError_(f"{what} {self.peek()!r}", *self.loc())

    def enter(self, line, col):
        if self.nesting == MAX_NESTING:
            raise SyntaxError_(f"nesting deeper than {MAX_NESTING} levels", line, col)
        self.nesting += 1

    def leave(self):
        self.nesting -= 1


def parse_formula(text, ctx_names, sig):
    """Parse a single formula over the given context variable names."""
    toks = _Tokens(text)
    phi = _parse_or(toks, list(ctx_names), sig)
    toks.finish("trailing input")
    return phi


def _parse_or(toks, names, sig):
    """Atomic formulas joined by ``&`` and ``|``, ``&`` binding tighter."""
    disjuncts = [[_parse_atomic(toks, names, sig)]]
    while toks.peek() in ("|", "&"):
        if toks.take()[0] == "|":
            disjuncts.append([])
        disjuncts[-1].append(_parse_atomic(toks, names, sig))
    return _joined(Or, [_joined(And, parts) for parts in disjuncts])


def _joined(junction, parts):
    return parts[0] if len(parts) == 1 else junction(tuple(parts))


def _var(names, name, line, col):
    try:
        return names.index(name) + 1
    except ValueError:
        raise SyntaxError_(f"variable {name!r} not in context", line, col) from None


def _parse_atomic(toks, names, sig):
    kind = toks.kind()
    tok, line, col = toks.take()
    if tok == "(":
        toks.enter(line, col)
        phi = _parse_or(toks, names, sig)
        toks.expect(")")
        toks.leave()
        return phi
    if tok == "true":
        return TOP
    if tok == "false":
        return BOT
    if tok == "exists":
        v, vline, vcol = toks.take("name", "expected variable name after 'exists'")
        if v in names:
            raise SyntaxError_(f"variable {v!r} shadows the context", vline, vcol)
        toks.expect(".")
        toks.enter(line, col)
        body = _parse_or(toks, names + [v], sig)
        toks.leave()
        return Exists(body)
    if kind == "end":
        raise SyntaxError_("unexpected end of formula", line, col)
    if kind != "name":
        raise SyntaxError_(f"unexpected token {tok!r}", line, col)
    # either an atom R(...), a 0-ary atom, or a variable in an equation
    if toks.peek() == "(":
        args = [_var(names, *toks.take()) for _ in toks.listed("(", ")")]
        arity = sig.arity(tok)  # raises on unknown symbol
        if arity != len(args):
            raise SyntaxError_(
                f"{tok} expects {arity} arguments, got {len(args)}", line, col
            )
        return Atom(tok, tuple(args))
    if toks.peek() == "=":
        toks.take()
        i = _var(names, tok, line, col)
        return Eq(i, _var(names, *toks.take()))
    if any(s == tok for s, _ in sig.relations):
        if sig.arity(tok) != 0:
            raise SyntaxError_(f"{tok} expects {sig.arity(tok)} arguments", line, col)
        return Atom(tok, ())
    raise SyntaxError_(f"unknown symbol or lone variable {tok!r}", line, col)


def _parse_sequent(toks, sig):
    """The sequent ``[x,y] lhs |- rhs`` at the current token."""
    names = []
    for _ in toks.listed("[", "]"):
        v, line, col = toks.take("name", "expected context variable")
        if v in names:
            raise SyntaxError_(f"duplicate context variable {v!r}", line, col)
        names.append(v)
    lhs = _parse_or(toks, names, sig)
    toks.expect("|-")
    rhs = _parse_or(toks, names, sig)
    return Sequent(len(names), lhs, rhs)


def parse_sequent(text, sig):
    """Parse a standalone sequent of the form ``[x,y] lhs |- rhs``."""
    toks = _Tokens(text)
    s = _parse_sequent(toks, sig)
    toks.finish("trailing input")
    return s


_KEYWORDS = frozenset({"true", "false", "exists", "theory", "sig", "axiom"})


def parse_theory(text):
    """Parse theory source text; see the grammar in the README."""
    toks = _Tokens(text)
    toks.expect("theory")
    name = toks.take("name", "expected theory name")[0]
    toks.skip_newlines()
    rels = []
    if toks.peek() == "sig":
        toks.take()
        for _ in toks.listed("{", "}", lines=True):
            sym, line, col = toks.take("name", "expected relation symbol")
            if sym in _KEYWORDS:
                raise SyntaxError_(f"keyword {sym!r} is not a relation symbol",
                                   line, col)
            toks.expect("/")
            rels.append((sym, int(toks.take("num", "expected arity")[0])))
    sig = Signature(name, tuple(rels))
    axioms = []
    toks.skip_newlines()
    while toks.peek() == "axiom":
        toks.take()
        axioms.append(_parse_sequent(toks, sig))
        toks.skip_newlines()
    toks.finish("unexpected token")
    return Theory(name, sig, tuple(axioms))


# ---------------------------------------------------------------------------
# fixture builders


def build_lattice_theory(lattice, name="TL"):
    """Propositional theory of a finite distributive lattice.

    One 0-ary symbol per lattice element; axioms force the empty domain and
    one implication per covering pair of the lattice order.
    """
    syms = tuple((f"R{a}", 0) for a in range(lattice.n))
    sig = Signature(name, syms)
    axioms = [Sequent(0, Exists(Eq(1, 1)), BOT)]
    for a, b in lattice.covers():
        axioms.append(Sequent(0, Atom(f"R{a}", ()), Atom(f"R{b}", ())))
    return Theory(name, sig, tuple(axioms))


# ---------------------------------------------------------------------------
# canonical formula enumeration


def enum_formulas(sig, n, depth, cap=2000):
    """Canonically ordered normalized formulas in context n up to the given
    generation depth.

    Level 0 holds top, bottom, atoms and equalities; each further level adds
    the meets and joins (``meet``, ``join``) of pairs of the ``cap`` simplest
    formulas found so far and the existentials (``exists``) of the
    context-(n+1) enumeration one level down.
    The list is sorted by (size, structural key) and truncated at ``cap``
    entries, simplest first.

    Generation is pruned at the cap by the full sort key (size, key): once
    ``cap`` formulas of depth at most ``depth`` are known, a formula above
    the cap-th of them enters neither a later level's ``cap`` simplest nor
    the final list, as both are the ``cap`` smallest by that key, the cap-th
    only falls and distinct normal forms have distinct keys.  A level forms
    its candidates by ascending lower bound on their key and stops at the
    first bound above the cap-th; a batch whose keys rise stops at its first
    result above it.  At the last level a meet or
    join deeper than ``depth`` is not formed.  The list is the one the
    unpruned generation gives.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    return list(_enum(sig, n, depth, cap)) if cap else []


_order = attrgetter("size", "key")


@cached
def _enum(sig, n, depth, cap, ceiling=None):
    """The list of ``enum_formulas``, cut to the formulas that come no
    later than the formula ceiling in (size, key) order.  A new meet, join
    or existential is larger than each of its parts, so no formula above
    ceiling helps to make one below it, and the generation keeps none from
    the start.  If ceiling is a candidate of the list (a level-0 formula or
    the existential of a body) and the cut list lacks it, the cap cut the
    list before ceiling, so the cut list is the whole list."""
    level = {TOP, BOT}
    for sym, ar in sig.relations:
        for args in all_maps(ar, n):
            level.add(Atom(sym, args))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            level.add(Eq(i, j))
    seen = set()

    # best: the sorted keys of the cap smallest formulas of depth <= depth
    # in seen; top: the largest of them once there are cap (cap is >= 1),
    # and ceiling before
    best = []
    top = (math.inf,) if ceiling is None else (ceiling.size, ceiling.key)

    def add(q):
        """Keep q if new; False if its key is above top."""
        nonlocal top
        k = (q.size, q.key)
        if k > top:
            return False
        if q not in seen:
            seen.add(q)
            if q.depth <= depth:
                insort(best, k)
                if len(best) >= cap:
                    del best[cap:]
                    top = best[-1]
        return True

    for p in level:
        add(p)

    prev = set()  # pairs drawn entirely from here were combined already
    for level_no in range(1, depth + 1):
        ordered = nsmallest(cap, seen, key=_order)
        bodies = _enum(sig, n + 1, depth - 1, cap)
        # formulas deeper than ``depth`` still take part in the next level's
        # ``ordered`` prefix, but after the last level they are never used
        max_depth = depth if level_no == depth else math.inf
        for bound, exact, cons, batch in _candidates(ordered, prev, bodies,
                                                     max_depth):
            if bound > top:
                break
            for args in batch:
                if bound > top or not add(cons(*args)) and exact:
                    break
        prev = set(ordered)
    final = [p for p in seen if p.depth <= depth]
    final.sort(key=_order)
    return tuple(final[:cap])


def _candidates(ordered, prev, bodies, max_depth):
    """Meets and joins of distinct formulas in ``ordered`` (not both from
    ``prev``) and existentials of ``bodies``, as batches (bound, exact,
    constructor, argument tuples) in ascending order of bound, leaving out
    those whose result, if new, would be deeper than ``max_depth``.

    The bound (size, (rank,)) is at most the key of each result unless that
    is already known: one of its parts, top or bottom.  A new result is of
    the connective's rank.  As there is no absorption, for distinct normal
    forms a, b and a connective C a new result has
      - size 1 + |a| + |b| and depth 1 + max(da, db) if neither is a C;
      - size |a| + |b| and depth max(da, db + 1) if only a is a C;
      - size at least max(|a|, |b|) + 1 and depth max(da, db) if both are
        (the union of their parts is larger than either part list).
    The result of an ``exact`` batch's arguments is the plain node on them
    unless it is already known, and the keys of these nodes rise along the
    batch: ∃ of a body, or C(a, b) where neither is a C and a, b come from
    one group or from groups of two types.  ``ordered`` is sorted and its
    groups are taken by rank, so such pairs come in the order of their part
    keys.
    """
    groups = {}
    for p in ordered:
        groups.setdefault((p.size, p.depth, type(p)), []).append(p)
    groups = sorted(groups.items(), key=lambda g: _RANK[g[0][2]])
    work = {}  # bound -> batches
    for body in bodies:
        work.setdefault((1 + body.size, (_RANK[Exists],)), []).append(
            (True, exists, [(body,)]))
    for i, ((sa, da, ta), ga) in enumerate(groups):
        for (sb, db, tb), gb in groups[i:]:
            for cls, cons in ((And, meet), (Or, join)):
                exact = (ga is gb or ta is not tb) and cls not in (ta, tb)
                if ta is cls and tb is cls:
                    size, depth = max(sa, sb) + 1, max(da, db)
                elif ta is cls:
                    size, depth = sa + sb, max(da, db + 1)
                elif tb is cls:
                    size, depth = sa + sb, max(da + 1, db)
                else:
                    size, depth = sa + sb + 1, max(da, db) + 1
                if depth <= max_depth:
                    work.setdefault((size, (_RANK[cls],)), []).append(
                        (exact, cons, _pairs(ga, gb, prev)))
    for bound in sorted(work):
        for batch in work[bound]:
            yield bound, *batch


def _pairs(ga, gb, prev):
    pairs = combinations(ga, 2) if ga is gb else product(ga, gb)
    for pa, pb in pairs:
        if pa not in prev or pb not in prev:
            yield pa, pb
