"""Differential test: the size, depth and key that each formula stores
against the recursive definitions they replaced, and the interning
constructors against the normalization they replaced.

``reference_size``, ``reference_depth`` and ``reference_key`` walk the whole
tree on each call, as ``formula_size``, ``formula_depth`` and ``formula_key``
once did.  ``reference_normalize`` flattens, dedupes and sorts by
``reference_key`` on plain nodes.  The corpus is the enumerated formulas of
a few theories, their parsed axioms, and the enumerated formulas
substituted along every index map into a context one larger.  The file also
pins what ``clear_caches`` promises: the same lists afterwards, and old
nodes equal to their rebuilt twins.  ``reindex``, the substitution into
normal forms, is pinned to ``normalize`` of the raw ``substitute`` it
replaces in the prover and the functor layers.  Last, ``clear_caches``
empties every ``cached`` table, the prover's axiom instances and a
presentation's adjoints and induced models among them, and the same
sequents are decided as before.
"""

import pytest

from cohlogic import calculus, syntax
from cohlogic.internal_logic import export_presentation, induced_models, th_of
from cohlogic.lattice import chain
from cohlogic.semantics import eval_formula
from cohlogic.syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Bot,
    Eq,
    Exists,
    Or,
    Sequent,
    Top,
    all_maps,
    build_lattice_theory,
    clear_caches,
    conj,
    disj,
    enum_formulas,
    exists,
    formula_depth,
    formula_key,
    formula_size,
    join,
    meet,
    normalize,
    parse_formula,
    parse_sequent,
    parse_theory,
    reindex,
    substitute,
)

_RANK = {Top: 0, Bot: 1, Atom: 2, Eq: 3, And: 4, Or: 5, Exists: 6}


def reference_key(phi):
    r = _RANK[type(phi)]
    if isinstance(phi, Atom):
        return (r, phi.sym, phi.args)
    if isinstance(phi, Eq):
        return (r, "", (phi.i, phi.j))
    if isinstance(phi, (And, Or)):
        return (r, "", tuple(reference_key(p) for p in phi.parts))
    if isinstance(phi, Exists):
        return (r, "", reference_key(phi.body))
    return (r, "", ())


def reference_size(phi):
    if isinstance(phi, (And, Or)):
        return 1 + sum(reference_size(p) for p in phi.parts)
    if isinstance(phi, Exists):
        return 1 + reference_size(phi.body)
    return 1


def reference_depth(phi):
    if isinstance(phi, (And, Or)):
        return 1 + max((reference_depth(p) for p in phi.parts), default=0)
    if isinstance(phi, Exists):
        return 1 + reference_depth(phi.body)
    return 0


def reference_normalize(phi):
    if isinstance(phi, Eq):
        return TOP if phi.i == phi.j else Eq(min(phi.i, phi.j), max(phi.i, phi.j))
    if isinstance(phi, (And, Or)):
        unit, zero = (Top, Bot) if isinstance(phi, And) else (Bot, Top)
        parts = []
        for p in phi.parts:
            q = reference_normalize(p)
            if isinstance(q, zero):
                return zero()
            if isinstance(q, type(phi)):
                parts.extend(q.parts)
            elif not isinstance(q, unit):
                parts.append(q)
        parts = sorted(set(parts), key=reference_key)
        if not parts:
            return unit()
        return parts[0] if len(parts) == 1 else type(phi)(tuple(parts))
    if isinstance(phi, Exists):
        body = reference_normalize(phi.body)
        return BOT if isinstance(body, Bot) else Exists(body)
    return phi


def subformulas(phi):
    yield phi
    if isinstance(phi, (And, Or)):
        for p in phi.parts:
            yield from subformulas(p)
    elif isinstance(phi, Exists):
        yield from subformulas(phi.body)


THEORIES = {
    "pqr": parse_theory(
        "theory pqr\nsig { P/1, Q/1, R/1 }\n"
        "axiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
    ),
    "peq": parse_theory(
        "theory peq\nsig { E/2 }\n"
        "axiom [x,y] E(x,y) |- E(y,x)\n"
        "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n"
    ),
    "mixed": parse_theory(
        "theory mixed\nsig { P/1, E/2, C/0 }\n"
        "axiom [x] P(x) & (C | true) & P(x) |- exists y. (E(x,y) | x = y)\n"
        "axiom [x,y] (E(y,x) & false) | (y = x & P(y)) |- exists z. E(z,z) & C\n"
        "axiom [] exists x. exists y. (E(x,y) & (P(x) & P(y))) |- false\n"
    ),
    "chain2": build_lattice_theory(chain(2)),
}


def corpus(name):
    t = THEORIES[name]
    out = []
    for ax in t.axioms:
        out += [(ax.ctx, ax.lhs), (ax.ctx, ax.rhs)]
    for n in (0, 1, 2):
        for phi in enum_formulas(t.signature, n, 2, 200):
            out.append((n, phi))
            if n:
                out += [(n + 1, substitute(phi, f, n + 1))
                        for f in all_maps(n, n + 1)]
    return out


@pytest.mark.parametrize("name", list(THEORIES))
def test_stored_fields_match_recursive_definitions(name):
    checked = 0
    for _, phi in corpus(name):
        for p in subformulas(phi):
            assert formula_size(p) == reference_size(p), p
            assert formula_depth(p) == reference_depth(p), p
            assert formula_key(p) == reference_key(p), p
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("name", list(THEORIES))
def test_equality_and_hash_follow_the_key(name):
    # raw trees (parsed, substituted) and interned nodes alike: two formulas
    # are equal, with equal hashes, exactly when their recursive keys are
    formulas = [p for _, phi in corpus(name) for p in subformulas(phi)]
    formulas += [normalize(phi) for phi in formulas]
    twins = [substitute(phi, tuple(range(1, n + 1)), n)
             for n, phi in corpus(name)]
    keys = {reference_key(phi) for phi in formulas}
    assert len(set(formulas)) == len(keys)
    assert len(set(formulas + twins)) == len(keys)
    assert all(phi == twin and hash(phi) == hash(twin)
               for (_, phi), twin in zip(corpus(name), twins))


@pytest.mark.parametrize("name", list(THEORIES))
def test_constructors_match_reference_normalize(name):
    formulas = [phi for _, phi in corpus(name)]
    for phi in formulas:
        want = reference_normalize(phi)
        got = normalize(phi)
        assert got == want, phi
        assert formula_key(got) == reference_key(want), phi
    normal = [normalize(phi) for phi in formulas[::7]]
    for a in normal[:40]:
        for b in normal:
            assert meet(a, b) == reference_normalize(And((a, b))), (a, b)
            assert join(a, b) == reference_normalize(Or((a, b))), (a, b)
            assert meet(a, b) is meet(b, a)
            assert join(a, b) is join(b, a)
        assert exists(a) == reference_normalize(Exists(a))
    assert conj(normal[:5]) is normalize(And(tuple(normal[:5])))
    assert disj(normal[:5]) is normalize(Or(tuple(normal[:5])))


def test_equal_normal_forms_are_one_node():
    a, b, c = (Atom("E", args) for args in ((1, 2), (2, 1), (1, 1)))
    built = meet(join(a, b), c)
    parsed = parse_theory(
        "theory t\nsig { E/2 }\naxiom [x,y] E(x,x) & (E(y,x) | E(x,y)) |- true\n"
    ).axioms[0].lhs
    assert normalize(parsed) is built
    assert meet(built, meet(c, join(b, a))) is built


def test_clear_caches_keeps_lists_and_equality():
    sig = THEORIES["mixed"].signature
    old = {n: enum_formulas(sig, n, 2, 200) for n in (0, 1, 2)}
    clear_caches()
    for n in (0, 1, 2):
        new = enum_formulas(sig, n, 2, 200)
        assert new == old[n]
        rebuilt = 0
        for a, b in zip(old[n], new):
            assert a == b and hash(a) == hash(b)
            assert formula_key(a) == formula_key(b)
            rebuilt += a is not b
        assert rebuilt > 0  # composite nodes are made afresh
    # an old node still builds with new ones, and equals the new result
    a, b = old[1][-1], enum_formulas(sig, 1, 2, 200)[-2]
    assert meet(a, b) == meet(enum_formulas(sig, 1, 2, 200)[-1], b)


def presented_signature(name):
    from test_internal_logic import peq_pres, pqr_pres

    return th_of(pqr_pres() if name == "th_pqr" else peq_pres()).signature


@pytest.mark.parametrize("name", ["pqr", "peq", "th_pqr", "th_peq"])
def test_reindex_is_normalize_of_substitute(name):
    """Every formula of the depth-2 lists at n <= 2, along every index map
    n -> m for m <= 3: reindex builds the very node that normalizing the
    raw substitution looks up; leaves are equal."""
    sig = (THEORIES[name].signature if name in THEORIES
           else presented_signature(name))
    checked = 0
    for n in (0, 1, 2):
        for phi in enum_formulas(sig, n, 2, cap=200):
            for m in range(4):
                for f in all_maps(n, m):
                    want = normalize(substitute(phi, f, m))
                    got = reindex(phi, f, m)
                    assert got is want or type(got) in (Atom, Eq) and got == want
                    checked += 1
    assert checked > 3000


def test_reindex_of_normalized_parsed_formulas():
    """Parsed trees, normalized first as apply_interpretation does: unsorted
    and nested junctions, units and zeros, reversed and reflexive
    equalities, existentials."""
    sig = THEORIES["mixed"].signature
    raw = [(ax.ctx, side) for t in THEORIES.values() for ax in t.axioms
           for side in (ax.lhs, ax.rhs)]
    raw += [(2, parse_formula(text, ["x", "y"], sig)) for text in (
        "y = x & (P(y) & (C | false)) & (y = x | true)",
        "exists z. (E(z, x) | z = y) & (exists w. E(w, z) & w = x)",
        "(x = x & P(x)) | (P(y) | (E(y, x) & true)) | false",
    )]
    for n, phi in raw:
        for m in range(4):
            for f in all_maps(n, m):
                want = normalize(substitute(phi, f, m))
                got = reindex(normalize(phi), f, m)
                assert got is want or type(got) in (Atom, Eq) and got == want


def test_clear_caches_empties_reindex():
    phi = enum_formulas(THEORIES["peq"].signature, 1, 2, 200)[-1]
    reindex(phi, (2,), 2)
    assert reindex.cache_info().currsize > 0
    clear_caches()
    assert reindex.cache_info().currsize == 0


def test_clear_caches_empties_every_cached_table(monkeypatch):
    """A prove on pqr and on th(S_peq), an export, the induced models, an
    adjoint and an eval_formula fill every registered cache; after
    clear_caches each is empty, and deciding the same sequents again gives
    equal verdicts and derivations from the same summed ``_Prover.calls``."""
    from test_internal_logic import approx, peq_pres

    provers = []

    class Counted(calculus._Prover):
        def __init__(self, t, budgets):
            super().__init__(t, budgets)
            provers.append(self)

    monkeypatch.setattr(calculus, "_Prover", Counted)
    pqr, th = THEORIES["pqr"], th_of(peq_pres())
    formulas = enum_formulas(th.signature, 1, 1, cap=12)
    jobs = [(pqr, parse_sequent(text, pqr.signature)) for text in (
        "[x] P(x) & Q(x) |- R(x)", "[x,y] P(x) & Q(y) |- R(x)")]
    jobs += [(th, Sequent(1, phi, psi)) for phi in formulas for psi in formulas]
    budgets = calculus.Budgets(size=300)

    def decide():
        provers.clear()
        out = [calculus.prove(t, s, budgets) for t, s in jobs]
        return out, sum(p.calls for p in provers)

    first = decide()
    assert any(first[0]) and not all(first[0]) and first[1] > len(jobs)
    pres = export_presentation(approx("peq"), gen_depth=1)
    models = induced_models(pres)
    assert pres.adjoint((1,), 1, 2) == pres.adjoint((1,), 1, 2)
    assert eval_formula(models[-1], formulas[-1], (0,)) in (True, False)
    assert all(fn.cache_info().currsize > 0 for fn in syntax._CACHED)
    clear_caches()
    assert [fn.cache_info().currsize for fn in syntax._CACHED] == \
        [0] * len(syntax._CACHED)
    assert not any(syntax._NODES.values())
    assert decide() == first
