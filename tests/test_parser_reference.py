"""Differential test: the text parser against the one it replaced.

The reference below is the parser section of ``syntax.py`` as it was before
the tokenizer decided identifiers and numbers, verbatim: it spelled the
identifier rule out at each use, read each comma list with its own loop and
parsed ``|`` and ``&`` in two functions.  On every draw the two parsers must
return equal results from ``parse_theory``, ``parse_sequent`` and
``parse_formula``, or raise ``SyntaxError_`` with the same message, line
and column.  The draws are valid theories, sequents and formulas with
comments, multi-line ``sig`` blocks and nested existentials, conjunctions
and disjunctions, and the same texts changed in one to three places: a
character deleted, inserted or replaced, a span cut, or the text truncated.

Run as a script for a larger draw::

    PYTHONPATH=src python tests/test_parser_reference.py 20000 300000
"""

import random
import re
import sys

import pytest

from cohlogic import syntax
from cohlogic.syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Eq,
    Exists,
    Or,
    Sequent,
    Signature,
    SyntaxError_,
    Theory,
)


# ---------------------------------------------------------------------------
# the reference: the parser section of syntax.py before the change, verbatim

_TOKEN = re.compile(
    r"\s*(?:(?P<comment>#[^\n]*)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<punct>\|-|[()\[\]{},.&|=/])|(?P<num>[0-9]+))"
)

# Parentheses and existentials nested deeper than this are rejected: the
# parser and every later pass over formulas recurse once per level.
MAX_NESTING = 200


class _Tokens:
    def __init__(self, text):
        self.toks = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            pos = 0
            while pos < len(line):
                m = _TOKEN.match(line, pos)
                if not m or m.end() == pos:
                    stripped = line[pos:].lstrip()
                    if not stripped:
                        break
                    raise SyntaxError_(
                        f"unexpected character {stripped[0]!r}", lineno, pos + 1
                    )
                if m.lastgroup != "comment":
                    self.toks.append((m.group(m.lastgroup), lineno,
                                      m.start(m.lastgroup) + 1))
                pos = m.end()
            self.toks.append(("\n", lineno, len(line) + 1))
        self.pos = 0
        self.nesting = 0
        self.skip_newlines()

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def loc(self):
        if self.pos < len(self.toks):
            _, line, col = self.toks[self.pos]
            return line, col
        return self.toks[-1][1] if self.toks else 1, 1

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        line, col = self.loc()
        got = self.next()
        if got != tok:
            raise SyntaxError_(f"expected {tok!r}, got {got!r}", line, col)

    def skip_newlines(self):
        while self.peek() == "\n":
            self.next()

    def finish(self, what):
        """Raise unless only newlines are left; what names a leftover."""
        self.skip_newlines()
        if self.peek() is not None:
            line, col = self.loc()
            raise SyntaxError_(f"{what} {self.peek()!r}", line, col)

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
    parts = [_parse_and(toks, names, sig)]
    while toks.peek() == "|":
        toks.next()
        parts.append(_parse_and(toks, names, sig))
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _parse_and(toks, names, sig):
    parts = [_parse_atomic(toks, names, sig)]
    while toks.peek() == "&":
        toks.next()
        parts.append(_parse_atomic(toks, names, sig))
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _var(name, names, loc):
    try:
        return names.index(name) + 1
    except ValueError:
        raise SyntaxError_(f"variable {name!r} not in context", *loc) from None


def _parse_atomic(toks, names, sig):
    line, col = toks.loc()
    tok = toks.next()
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
        vline, vcol = toks.loc()
        v = toks.next()
        if v is None or not v[0].isalpha() and v[0] != "_":
            raise SyntaxError_("expected variable name after 'exists'", vline, vcol)
        if v in names:
            raise SyntaxError_(f"variable {v!r} shadows the context", vline, vcol)
        toks.expect(".")
        toks.enter(line, col)
        body = _parse_or(toks, names + [v], sig)
        toks.leave()
        return Exists(body)
    if tok is None or tok == "\n":
        raise SyntaxError_("unexpected end of formula", line, col)
    if not (tok[0].isalpha() or tok[0] == "_"):
        raise SyntaxError_(f"unexpected token {tok!r}", line, col)
    # either an atom R(...), a 0-ary atom, or a variable in an equation
    if toks.peek() == "(":
        toks.next()
        args = []
        if toks.peek() != ")":
            while True:
                aline, acol = toks.loc()
                a = toks.next()
                args.append(_var(a, names, (aline, acol)))
                if toks.peek() == ",":
                    toks.next()
                    continue
                break
        toks.expect(")")
        arity = sig.arity(tok)  # raises on unknown symbol
        if arity != len(args):
            raise SyntaxError_(
                f"{tok} expects {arity} arguments, got {len(args)}", line, col
            )
        return Atom(tok, tuple(args))
    if toks.peek() == "=":
        toks.next()
        i = _var(tok, names, (line, col))
        jline, jcol = toks.loc()
        j = _var(toks.next(), names, (jline, jcol))
        return Eq(i, j)
    if any(s == tok for s, _ in sig.relations):
        if sig.arity(tok) != 0:
            raise SyntaxError_(f"{tok} expects {sig.arity(tok)} arguments", line, col)
        return Atom(tok, ())
    raise SyntaxError_(f"unknown symbol or lone variable {tok!r}", line, col)


def _parse_sequent(toks, sig):
    """The sequent ``[x,y] lhs |- rhs`` at the current token."""
    toks.expect("[")
    names = []
    if toks.peek() != "]":
        while True:
            vline, vcol = toks.loc()
            v = toks.next()
            if v is None or not (v[0].isalpha() or v[0] == "_"):
                raise SyntaxError_("expected context variable", vline, vcol)
            if v in names:
                raise SyntaxError_(f"duplicate context variable {v!r}", vline, vcol)
            names.append(v)
            if toks.peek() == ",":
                toks.next()
                continue
            break
    toks.expect("]")
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
    line, col = toks.loc()
    name = toks.next()
    if name is None or name in ("\n",) or not (name[0].isalpha() or name[0] == "_"):
        raise SyntaxError_("expected theory name", line, col)
    toks.skip_newlines()
    rels = []
    if toks.peek() == "sig":
        toks.next()
        toks.expect("{")
        toks.skip_newlines()
        if toks.peek() != "}":
            while True:
                sline, scol = toks.loc()
                sym = toks.next()
                if sym is None or not (sym[0].isalpha() or sym[0] == "_"):
                    raise SyntaxError_("expected relation symbol", sline, scol)
                if sym in _KEYWORDS:
                    raise SyntaxError_(f"keyword {sym!r} is not a relation symbol",
                                       sline, scol)
                toks.expect("/")
                aline, acol = toks.loc()
                ar = toks.next()
                if ar is None or not ar.isdigit():
                    raise SyntaxError_("expected arity", aline, acol)
                rels.append((sym, int(ar)))
                toks.skip_newlines()
                if toks.peek() == ",":
                    toks.next()
                    toks.skip_newlines()
                    continue
                break
        toks.expect("}")
    sig = Signature(name, tuple(rels))
    axioms = []
    toks.skip_newlines()
    while toks.peek() == "axiom":
        toks.next()
        axioms.append(_parse_sequent(toks, sig))
        toks.skip_newlines()
    toks.finish("unexpected token")
    return Theory(name, sig, tuple(axioms))


# ---------------------------------------------------------------------------
# draws

SIG = Signature("s", (("P", 1), ("Q", 0), ("E", 2), ("R_1", 1), ("F'", 3)))
NAMES = ["x", "y", "z1", "_u", "v'"]
SPACES = [" ", " ", " ", "", "  ", "\t", " "]
NOISE = list("()[]{},.&|=/-#$@é\t\n 019xyPQE_'") + [
    "exists ", "|-", "axiom ", "sig", "theory ", "true", "false", "\n#c\n"]


def _formula(rng, names, depth):
    sp = rng.choice(SPACES)
    pick = rng.randrange(9 if depth else 4)
    if pick == 0:
        sym, arity = rng.choice(SIG.relations)
        if arity == 0:
            return sym
        return f"{sym}({sp}" + f",{sp}".join(
            rng.choice(names) for _ in range(arity)) + ")"
    if pick == 1:
        return f"{rng.choice(names)}{sp}={sp}{rng.choice(names)}"
    if pick in (2, 3):
        return rng.choice(["true", "false", "Q", f"P({rng.choice(names)})"])
    if pick == 4:
        return f"({sp}{_formula(rng, names, depth - 1)}{sp})"
    if pick == 5:
        v = f"w{len(names)}"
        return f"exists {v}.{sp}{_formula(rng, names + [v], depth - 1)}"
    parts = [_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))]
    # an existential extends to the right, over the later parts
    parts = [f"({p})" if p.startswith("exists") else p for p in parts]
    return f"{sp}{rng.choice('&|')}{sp}".join(parts)


def _sequent(rng):
    names = rng.sample(NAMES, rng.randint(0, 3))
    depth = rng.randint(0, 3)
    lhs = _formula(rng, names or ["x"], depth) if names else rng.choice(["true", "Q"])
    rhs = _formula(rng, names or ["x"], depth) if names else rng.choice(["false", "Q"])
    return f"[{', '.join(names)}] {lhs} |- {rhs}"


def _theory(rng):
    lines = [rng.choice(["", "# a comment", "  "]) for _ in range(rng.randint(0, 2))]
    lines.append(f"theory {rng.choice(['t', 'pqr', '_T1', 'sig'])}"
                 + rng.choice(["", "  # name"]))
    axioms = rng.randint(0, 4)
    if axioms or rng.random() < 0.5:
        seps = [rng.choice([", ", ",\n  ", "\n, ", " ,"]) for _ in SIG.relations]
        seps[-1] = rng.choice([" ", "\n"])
        lines.append("sig {" + rng.choice([" ", "\n  "]) + "".join(
            f"{s}/{a}{sep}" for (s, a), sep in zip(SIG.relations, seps)) + "}")
    for _ in range(axioms):
        lines.append("axiom " + _sequent(rng) + rng.choice(["", " # why"]))
        if rng.random() < 0.3:
            lines.append(rng.choice(["", "# between", "   "]))
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n"])


def _changed(rng, text):
    """text changed in one to three places."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        how = rng.randrange(5)
        if how == 0:
            text = text[:i] + text[i + 1:]
        elif how == 1:
            text = text[:i] + rng.choice(NOISE) + text[i:]
        elif how == 2:
            text = text[:i] + rng.choice(NOISE) + text[i + 1:]
        elif how == 3:
            text = text[:i] + text[i + rng.randint(1, 12):]
        else:
            text = text[:i]
    return text


def _outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except Exception as e:  # noqa: BLE001 - the two must fail alike
        return type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "col", None)


def _names(rng):
    names = rng.sample(NAMES, rng.randint(0, 4))
    if rng.random() < 0.05:  # context names that are no identifiers
        names.append(rng.choice([",", ")", "\n", "1", "exists"]))
    return names


def _draws(rng, valid, changed):
    """(entry point, valid text, changed copies) of each draw."""
    for k in range(valid):
        entry = ("theory", "sequent", "formula")[k % 3]
        if entry == "theory":
            text = _theory(rng)
        elif entry == "sequent":
            text = _sequent(rng)
        else:
            text = _formula(rng, NAMES, rng.randint(0, 4))
        yield entry, text, [_changed(rng, text) for _ in range(changed)]


def _both(entry, text, names):
    pairs = {"theory": (parse_theory, syntax.parse_theory),
             "sequent": (parse_sequent, syntax.parse_sequent),
             "formula": (parse_formula, syntax.parse_formula)}[entry]
    args = {"theory": (text,), "sequent": (text, SIG),
            "formula": (text, names, SIG)}[entry]
    return [_outcome(parse, *args) for parse in pairs]


def compare(seed, valid, changed):
    """Counts of (accepted, rejected) inputs; raises at the first input on
    which the two parsers differ."""
    rng = random.Random(seed)
    counts = [0, 0]
    for entry, text, copies in _draws(rng, valid, changed):
        for t in [text] + copies:
            names = NAMES if t is text else _names(rng)
            ref, new = _both(entry, t, names)
            assert ref == new, (entry, t, names, ref, new)
            counts[ref[0] != "ok"] += 1
    return counts


@pytest.mark.parametrize("seed", range(4))
def test_parsers_agree_on_random_texts(seed):
    accepted, rejected = compare(seed, valid=300, changed=8)
    assert accepted > 300 and rejected > 1000


def test_valid_draws_parse():
    rng = random.Random("valid")
    for entry, text, _ in _draws(rng, 300, 0):
        assert _both(entry, text, NAMES)[0][0] == "ok", text


@pytest.mark.parametrize("text", [
    "", "\n\n", "#", "$", "  é", "P(x", "P(x,)", "P(x\n)", "(" * 200 + "P(x)" + ")" * 200,
    "(" * 201 + "P(x)" + ")" * 201, " ".join(["exists w."] * 200) + " P(x)",
    "exists x. P(x)", "exists 1. Q", "x = ", "x = y = z", "P(x) |", "Q & ", "E(x y)",
    "R_1(x) & Q | P(y) & Q & E(x,y) | false", "F'(x,y)", "P", "Q(x)",
])
def test_parsers_agree_on_edge_formulas(text):
    ref, new = _both("formula", text, ["x", "y"])
    assert ref == new


@pytest.mark.parametrize("text", [
    "theory", "theory 1", "theory t\nsig {", "theory t\nsig { P/x }",
    "theory t\nsig { P/1, }", "theory t\nsig { true/1 }", "theory t\nsig\n{ P/1 }",
    "theory t\nsig {\n P/1\n ,\n Q/0\n}\naxiom [x] P(x) |- Q\n",
    "theory t\naxiom [x, x] true |- true", "theory t\naxiom [x,] true |- true",
    "theory t\naxiom [] true |- false\nextra", "theory t # c\n\n# c\naxiom [] true |- true",
    "theory t\nsig { P/1 }\naxiom [x]\nP(x) |- P(x)",
])
def test_parsers_agree_on_edge_theories(text):
    ref, new = _both("theory", text, [])
    assert ref == new


if __name__ == "__main__":
    valid, total = (int(a) for a in sys.argv[1:3])
    accepted, rejected = compare("script", valid, max(total // valid - 1, 0))
    print(f"{accepted + rejected} inputs, {accepted} accepted and {rejected} "
          "rejected alike by both parsers")
