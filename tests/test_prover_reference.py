"""Differential tests: the proof search against its linear-scan reference.

``ReferenceProver`` keeps four methods of ``calculus._Prover`` as they were
before the instance indexes and the depth-1 guards: ``derive`` with a flat
memo keyed by ``(n, lhs, rhs)``, ``_derive``, which tries every step in the
prover's order with its own premise loop and asks each premise through
``premise``, and the forward and backward axiom steps, each a scan of the
whole instance list of ``reference_axiom_instances``.  The equality
collapse is the prover's own.  For every sequent of the corpus the verdict
of ``entails``, the derivation, the countermodel and its assignment, the way a
search ends (a derivation, none within the depth bound, or the call budget
spent) and ``_Prover.calls`` must be the same.

The corpus draws pairs from ``enum_formulas(sig, n, 2, cap=200)``, n <= 2,
of pqr, peq, ``th_of(pqr_pres())`` and ``th_of(peq_pres())``.  On the two
``th_of`` theories it takes pairs that the presentation's lattice orders and
pairs that it does not, and it runs the prover on every sequent, also where
a countermodel decides ``entails``.  The reference spends a few
milliseconds per call on the ``th_of`` theories, so their searches run on a
reduced call budget; most of them end on it.

The forward step's table of instances per antecedent,
``calculus._forward_steps``, is compared with the reference step's filter
on every antecedent that the step sees on the corpus.
"""

import collections
import functools
import gc
import random
import weakref

import pytest

from cohlogic import internal_logic
from cohlogic.calculus import (
    Budgets,
    BudgetExceeded,
    Proved,
    Refuted,
    Unknown,
    _axiom_instances,
    _d_axiom_instance,
    _forward_steps,
    _Prover,
    d_cut,
    d_identity,
    d_proj,
    d_to_conjunction,
    _d,
    conjuncts,
    d_exists_intro,
    derivation_to_json,
    entails,
    find_countermodel,
    parts_of,
)
from cohlogic.semantics import enumerate_models
from cohlogic.syntax import (
    BOT,
    TOP,
    And,
    Eq,
    Exists,
    Or,
    Sequent,
    Theory,
    all_maps,
    conj,
    enum_formulas,
    exists,
    formula_key,
    join,
    meet,
    normalize,
    normalize_sequent,
    parse_sequent,
    reindex,
    substitute,
)

from test_internal_logic import PEQ, PQR, peq_pres, pqr_pres


def reference_axiom_instances(t, n):
    """All normalized axiom instances of t in context n, in one list."""
    cache = t.__dict__.setdefault("_reference_instances", {})
    if n not in cache:
        out = []
        for ai, ax in enumerate(t.axioms):
            for f in all_maps(ax.ctx, n):
                al = normalize(substitute(ax.lhs, f, n))
                ar = normalize(substitute(ax.rhs, f, n))
                if al == ar or ar == TOP:
                    continue
                out.append((parts_of(al), al, ar, ai, f))
        cache[n] = out
    return cache[n]


class ReferenceProver(_Prover):
    """The search with a flat memo and linear scans of the instances."""

    def __init__(self, t, budgets):
        super().__init__(t, budgets)
        self.in_progress = set()

    def derive(self, n, lhs, rhs, depth):
        key = (n, lhs, rhs)
        if key in self.memo:
            return self.memo[key]
        if depth <= 0 or key in self.in_progress:
            return None
        if key in self.fail_depth and self.fail_depth[key] >= depth:
            return None
        self.calls += 1
        if self.calls > self.budgets.size:
            raise BudgetExceeded()
        self.in_progress.add(key)
        try:
            d = self._derive(n, lhs, rhs, depth)
        finally:
            self.in_progress.discard(key)
        if d is not None:
            self.memo[key] = d
        else:
            prev = self.fail_depth.get(key, -1)
            if depth > prev:
                self.fail_depth[key] = depth
        return d

    def _derive(self, n, lhs, rhs, depth):
        """The prover's steps in its order, with no skipped step: each
        premise is asked through ``premise``, named by its step."""
        if lhs == rhs:
            return d_identity(n, lhs)
        if rhs == TOP:
            return _d("top_intro", n, lhs, TOP)
        if lhs == BOT:
            return _d("bot_elim", n, BOT, rhs)
        eq = next((p for p in conjuncts(lhs) if isinstance(p, Eq)), None)
        if eq is not None:
            d = self._by_eq_collapse(n, lhs, rhs, eq, depth)
            if d is not None:
                return d
        if isinstance(lhs, Or):
            return self._all_premises("or_left", "disj_rule", n, lhs, rhs,
                                      [(p, rhs) for p in lhs.parts], depth)
        if isinstance(lhs, Exists):
            up = reindex(rhs, tuple(range(1, n + 1)), n + 1)
            d = self.premise("exists_left", n + 1, lhs.body, up, depth)
            return None if d is None else _d("exists_up", n, lhs, rhs, children=(d,))
        if isinstance(rhs, And):
            return self._all_premises("and_right", "conj_rule", n, lhs, rhs,
                                      [(lhs, p) for p in rhs.parts], depth)
        if isinstance(lhs, And):
            for p in lhs.parts:
                if not isinstance(p, (Or, Exists)):
                    continue
                phi = meet(*[q for q in lhs.parts if q != p])
                if isinstance(p, Or):
                    rule, params = "distributivity", (phi, p.parts)
                    new = join(*[meet(phi, q) for q in p.parts])
                else:
                    rule, params = "frobenius", (phi, p.body)
                    up = reindex(phi, tuple(range(1, n + 1)), n + 1)
                    new = exists(meet(up, p.body))
                d = self.premise(rule, n, new, rhs, depth)
                if d is not None:
                    return d_cut(_d(rule, n, lhs, new, params), d)
        d = self._by_axiom_forward(n, lhs, rhs, depth)
        if d is not None:
            return d
        if isinstance(rhs, Or):
            for p in rhs.parts:
                d = self.premise("or_right", n, lhs, p, depth)
                if d is not None:
                    return d_cut(d, _d("disj_inj", n, p, rhs))
        if isinstance(rhs, Exists):
            for w in range(1, n + 1):
                target = reindex(rhs.body, tuple(range(1, n + 1)) + (w,), n)
                d = self.premise("exists_right", n, lhs, target, depth)
                if d is not None:
                    return d_cut(d, d_exists_intro(n, rhs.body, w))
        d = self._by_axiom_backward(n, lhs, rhs, depth)
        if d is not None:
            return d
        if isinstance(lhs, And):
            for p in lhs.parts:
                d = self.premise("projection", n, p, rhs, depth)
                if d is not None:
                    return d_cut(d_proj(n, lhs, p), d)
        return None

    def premise(self, step, n, lhs, rhs, depth):
        """A premise of a step of the goal at depth: a call one deeper."""
        return self.derive(n, lhs, rhs, depth - 1)

    def _all_premises(self, step, rule, n, lhs, rhs, premises, depth):
        kids = []
        for p_lhs, p_rhs in premises:
            d = self.premise(step, n, p_lhs, p_rhs, depth)
            if d is None:
                return None
            kids.append(d)
        return _d(rule, n, lhs, rhs, children=kids)

    def _by_axiom_forward(self, n, lhs, rhs, depth):
        lparts = parts_of(lhs)
        for alp, al, ar, ai, f in reference_axiom_instances(self.t, n):
            if not alp <= lparts:
                continue
            arparts = parts_of(ar)
            if arparts <= lparts:
                continue  # nothing new
            newlhs = conj([lhs, ar])
            d_rest = self.premise("forward", n, newlhs, rhs, depth)
            if d_rest is None:
                continue
            d_axi = _d_axiom_instance(self.t, n, ai, f, al, ar)
            d_to_al = d_to_conjunction(n, lhs, al)
            d_ar = d_cut(d_to_al, d_axi)  # lhs |- ar
            kids = []
            for p in sorted(parts_of(newlhs), key=formula_key):
                if p in lparts or p == lhs:
                    kids.append(
                        d_identity(n, lhs) if p == lhs else d_proj(n, lhs, p)
                    )
                elif p == ar:
                    kids.append(d_ar)
                else:
                    kids.append(d_cut(d_ar, d_proj(n, ar, p)))
            if not isinstance(newlhs, And):
                d_new = d_ar if newlhs == ar else kids[0]
            else:
                d_new = _d("conj_rule", n, lhs, newlhs, children=tuple(kids))
            return d_cut(d_new, d_rest)
        return None

    def _by_axiom_backward(self, n, lhs, rhs, depth):
        for alp, al, ar, ai, f in reference_axiom_instances(self.t, n):
            if ar != rhs:
                continue
            d = self.premise("backward", n, lhs, al, depth)
            if d is not None:
                d_axi = _d_axiom_instance(self.t, n, ai, f, al, ar)
                return d_cut(d, d_axi)
        return None


class CountingReference(ReferenceProver):
    """The reference, counting per step the premise calls at depth 0 that
    hit the memo: the only calls below depth 1 that return a derivation."""

    def __init__(self, t, budgets):
        super().__init__(t, budgets)
        self.memo_hits = collections.Counter()

    def premise(self, step, n, lhs, rhs, depth):
        if depth <= 1 and (n, lhs, rhs) in self.memo:
            self.memo_hits[step] += 1
        return super().premise(step, n, lhs, rhs, depth)


class SkippingReference(ReferenceProver):
    """The reference with one step skipped at depth 1, memo or not."""

    def __init__(self, t, budgets, step):
        super().__init__(t, budgets)
        self.step = step

    def premise(self, step, n, lhs, rhs, depth):
        if step == self.step and depth <= 1:
            return None
        return super().premise(step, n, lhs, rhs, depth)


def search(prover, s):
    """(outcome, calls) of a fresh prover's search for s: the derivation as
    JSON, None when none was found within the depth bound, or "calls" when
    the call budget ran out."""
    try:
        d = prover.derive(s.ctx, s.lhs, s.rhs, prover.budgets.depth)
    except BudgetExceeded:
        return "calls", prover.calls
    return (None if d is None else derivation_to_json(d)), prover.calls


def verdict_json(v):
    if isinstance(v, Proved):
        return "Proved", derivation_to_json(v.derivation)
    if isinstance(v, Refuted):
        return "Refuted", v.model.size, v.model.tables, v.assignment
    assert isinstance(v, Unknown)
    return "Unknown", v.reason


# ---------------------------------------------------------------------------
# the corpus

TH_SIZE = 120  # call budget of the th_of searches


@functools.lru_cache(maxsize=None)
def theory(name):
    """(theory, presentation or None, model pool) of one corpus theory."""
    if name in ("pqr", "peq"):
        t = PQR if name == "pqr" else PEQ
        return t, None, tuple(enumerate_models(t, 3))
    pres = pqr_pres() if name == "th_pqr" else peq_pres()
    return (internal_logic.th_of(pres), pres,
            tuple(internal_logic.induced_models(pres)))


def lattice_order(pres, s):
    """Whether the presentation's lattice orders the two sides, or None
    where denote is undefined."""
    try:
        a = internal_logic.denote(pres, s.lhs, s.ctx)
        b = internal_logic.denote(pres, s.rhs, s.ctx)
    except internal_logic.InternalLogicError:
        return None
    return pres.lattices[s.ctx].leq[a][b]


def draw(name, per_context, want_order=None):
    """per_context sequents phi != psi in each context n <= 2, seeded by
    the theory's name; with want_order set, only those whose lattice order
    is defined and equal to it."""
    t, pres, _ = theory(name)
    rng = random.Random(f"{name}/{want_order}")
    out = []
    for n in range(3):
        formulas = enum_formulas(t.signature, n, 2, cap=200)
        kept = 0
        while kept < per_context:
            s = Sequent(n, *rng.sample(formulas, 2))
            if want_order is None or lattice_order(pres, s) == want_order:
                out.append(s)
                kept += 1
    return out


# Sequents added to the drawn corpus.  On the first pqr one and on the peq
# ones the reference asks a premise at depth 0 that an earlier call of the
# same search proved: by And-left projection, And-right and the forward
# step.  On the peq ones, skipping the forward step at depth 1 without
# looking at the memo changes the call count.
MEMO_HITS = {
    "pqr": ("[x,y] P(x) & Q(y) |- R(x) | R(y)",
            "[x] P(x) & (P(x) | Q(x)) |- P(x) | (exists y. Q(y))",
            "[x] P(x) & Q(x) & (exists y. R(y)) |- P(x) & Q(x) & R(x)",
            "[x,y] P(y) & Q(x) & x = y |- P(x) & R(x)"),
    "peq": ("[x,y] E(x, x) & (exists z. E(z, x)) |- E(x, x) & E(x, y) & E(y, x)",
            "[x,y] E(x, y) | (exists z. E(z, x)) |- E(y, x) | E(y, y)"),
}


# One sequent per step that the prover skips at depth 1 when none of its
# premises can hit the memo, on which the reference's step asks a premise at
# depth 0 that an earlier call of the same search proved, and the hit
# decides the search.  They stay out of ``corpus``, whose work counts
# tests/test_work_counts.py pins.
STEP_HITS = {
    "or_left": ("peq", "[x,y] (E(x, x) | (exists z. E(y, x))) "
                       "& (x = y | (exists z. E(x, x))) |- E(x, x) & E(x, y)"),
    "exists_left": ("peq", "[x,y] (E(x, x) | E(y, x)) & (exists z. E(x, x)) "
                           "|- exists z. E(z, y)"),
    "and_right": ("peq", "[x,y] E(x, y) | (exists z. true) "
                         "|- E(y, x) & (exists z. E(z, x))"),
    "distributivity": ("pqr", "[x,y] P(x) & Q(x) & Q(y) & (P(y) | Q(x) | R(x)) "
                              "& (P(y) | Q(y) | x = y) |- exists z. exists w. R(y)"),
    "frobenius": ("pqr", "[x,y] (P(x) | (exists z. Q(x))) & (P(y) | Q(x) | R(y)) "
                         "& (Q(x) | (exists z. y = z)) |- Q(x) | (exists z. x = z)"),
    "forward": ("peq", MEMO_HITS["peq"][1]),
    "or_right": ("pqr", "[x] P(x) & (exists y. Q(y)) |- P(x) & (P(x) | R(x))"),
    "exists_right": ("peq", "[x] (exists y. exists z. E(x, z)) "
                            "|- (exists y. E(x, x)) & (exists y. E(x, y))"),
    "backward": ("peq", "[x,y] E(x, y) | x = y |- E(x, y) & E(y, y)"),
    "projection": ("pqr", MEMO_HITS["pqr"][0]),
}


def corpus(name):
    """(sequent, budgets) pairs of one theory, normalized."""
    if name in ("pqr", "peq"):
        t = theory(name)[0]
        extra = [parse_sequent(s, t.signature) for s in MEMO_HITS[name]]
        pairs = [(s, Budgets()) for s in draw(name, 20) + extra]
    else:
        budgets = Budgets(size=TH_SIZE)
        pairs = [(s, budgets) for s in draw(name, 3, True) + draw(name, 3, False)]
    return [(normalize_sequent(s), b) for s, b in pairs]


# ---------------------------------------------------------------------------
# the tests


@pytest.mark.parametrize("name", ["pqr", "peq", "th_pqr", "th_peq"])
def test_search_matches_reference(name):
    """Same search outcome, calls and entails verdict on every sequent.
    The corpus holds proofs, searches that end within the depth bound and,
    on the th_of theories, searches that spend the call budget.  On pqr and
    peq some premises asked at depth 0 hit the memo, which a depth-1 guard
    that skips a step without looking at the memo misses."""
    t, _, pool = theory(name)
    outcomes, memo_hits = set(), 0
    for s, budgets in corpus(name):
        got = search(_Prover(t, budgets), s)
        reference = CountingReference(t, budgets)
        want = search(reference, s)
        assert got == want, s
        outcomes.add(want[0] if want[0] in (None, "calls") else "proved")
        memo_hits += sum(reference.memo_hits.values())
        cm = find_countermodel(t, s, pool=pool)
        if cm is not None:
            expected = ("Refuted", cm[0].size, cm[0].tables, cm[1])
        elif want[0] is None:
            expected = ("Unknown", f"no derivation within depth {budgets.depth}")
        elif want[0] == "calls":
            expected = ("Unknown", f"call budget of {budgets.size} exhausted")
        else:
            expected = ("Proved", want[0])
        with_pool = Budgets(depth=budgets.depth, size=budgets.size,
                            model_pool=pool)
        assert verdict_json(entails(t, s, with_pool)) == expected, s
    if name.startswith("th_"):
        assert outcomes == {"proved", "calls"}
    else:
        assert outcomes == {"proved", None}
        assert memo_hits > 0


@pytest.mark.parametrize("step", sorted(STEP_HITS))
def test_skipped_steps_match_reference(step):
    """Each step that the prover skips at depth 1 when its premises can only
    miss the memo, on a sequent where the reference's step hits it: the
    prover's search is the reference's, and skipping the step at depth 1
    whatever the memo holds would change it."""
    name, text = STEP_HITS[step]
    t = theory(name)[0]
    s = normalize_sequent(parse_sequent(text, t.signature))
    reference = CountingReference(t, Budgets())
    want = search(reference, s)
    assert search(_Prover(t, Budgets()), s) == want
    assert reference.memo_hits[step] > 0, reference.memo_hits
    assert search(SkippingReference(t, Budgets(), step), s) != want


def rules_of(d, out):
    """Count the rules of a derivation in JSON form into out."""
    out[d["rule"]] = out.get(d["rule"], 0) + 1
    for c in d["children"]:
        rules_of(c, out)
    return out


def test_corpus_covers_every_builder():
    """The corpus's derivations use every rule built by the prover's shared
    steps: the premise loop (conj_rule, disj_rule), the conjunction builder
    (conj_rule, reached from the equality collapse, whose eq_subst rules
    are counted, and from the forward axiom step) and the And-left rewrite
    (distributivity, frobenius).  So the comparison with the reference
    keeps covering each of them."""
    rules = {}
    for name in ("pqr", "peq", "th_pqr", "th_peq"):
        t = theory(name)[0]
        for s, budgets in corpus(name):
            d = search(_Prover(t, budgets), s)[0]
            if d not in (None, "calls"):
                rules_of(d, rules)
    for rule in ("conj_rule", "eq_subst", "distributivity", "frobenius",
                 "disj_rule"):
        assert rules.get(rule, 0) > 0, (rule, rules)


@pytest.mark.parametrize("text, budgets, outcome", [
    ("[x] (exists y. E(x, y)) & (exists y. x = y) "
     "|- (exists y. E(x, x)) & (exists y. E(x, y))", Budgets(depth=6), None),
    ("[x,y] E(x, x) & (exists z. E(z, y)) |- exists z. exists w. E(y, w)",
     Budgets(size=30), "calls"),
])
def test_unknowns_match_reference(text, budgets, outcome):
    """Valid sequents of peq that end Unknown: one on the depth bound (it
    is proved at depth 7), one on the call budget (it is proved in 36 calls
    at the default budgets)."""
    t, _, pool = theory("peq")
    s = normalize_sequent(parse_sequent(text, t.signature))
    assert find_countermodel(t, s, pool=pool) is None
    got = search(_Prover(t, budgets), s)
    assert got == search(ReferenceProver(t, budgets), s)
    assert got[0] == outcome
    assert isinstance(entails(t, s, budgets), Unknown)
    assert isinstance(entails(t, s), Proved)


@pytest.mark.parametrize("name", ["pqr", "peq", "th_pqr", "th_peq"])
def test_axiom_instance_indexes(name):
    """The instance list is the reference's.  ``by_rhs`` partitions it by
    consequent and ``by_part`` partitions its positions by the least
    conjunct of the antecedent, each part in list order."""
    t = theory(name)[0]
    for n in range(4):
        instances, by_rhs, by_part = _axiom_instances(t, n)
        assert instances == reference_axiom_instances(t, n)
        rhs_parts, least_parts = {}, {}
        for i, (alp, _, ar, _, _) in enumerate(instances):
            rhs_parts.setdefault(ar, []).append(instances[i])
            least = sorted(alp, key=formula_key)[0] if alp else None
            least_parts.setdefault(least, []).append(i)
        assert by_rhs == rhs_parts
        assert by_part == least_parts


@pytest.mark.parametrize("name", ["pqr", "peq", "th_pqr", "th_peq"])
def test_forward_steps_match_reference(name):
    """For every antecedent that the forward step sees on the corpus, its
    table holds the instances that the reference's scan fires on: those
    whose antecedent lies inside it and whose consequent adds a conjunct,
    in list order."""
    t = theory(name)[0]
    seen = set()

    class Seeing(_Prover):
        def _by_axiom_forward(self, n, lhs, rhs, depth):
            seen.add((n, lhs))
            return super()._by_axiom_forward(n, lhs, rhs, depth)

    for s, budgets in corpus(name):
        search(Seeing(t, budgets), s)
    fired = 0
    for n, lhs in seen:
        lparts = parts_of(lhs)
        want = tuple(inst for inst in reference_axiom_instances(t, n)
                     if inst[0] <= lparts and not parts_of(inst[2]) <= lparts)
        assert _forward_steps(t, n, lhs) == want, (n, lhs)
        fired += bool(want)
    assert fired > 0


def test_forward_steps_are_freed_with_their_theory():
    """The table is kept per theory object and holds no reference to it:
    it goes when the theory does."""
    before = _forward_steps.cache_info().currsize
    t = Theory(PEQ.name, PEQ.signature, PEQ.axioms)
    for s, budgets in corpus("peq")[:5]:
        search(_Prover(t, budgets), s)
    assert _forward_steps.cache_info().currsize > before
    freed = weakref.ref(t)
    del t
    gc.collect()
    assert freed() is None
    assert _forward_steps.cache_info().currsize == before
