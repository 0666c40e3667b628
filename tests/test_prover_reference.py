"""Differential tests: the proof search against its linear-scan reference.

``ReferenceProver`` keeps three methods of ``calculus._Prover`` as they were
before the instance indexes: ``derive`` with a flat memo keyed by
``(n, lhs, rhs)``, and the forward and backward axiom steps, each a scan of
the whole instance list of ``reference_axiom_instances``.  Every other
method is the prover's own.  For every sequent of the corpus the verdict of
``entails``, the derivation, the countermodel and its assignment, the way a
search ends (a derivation, none within the depth bound, or the call budget
spent) and ``_Prover.calls`` must be the same.

The corpus draws pairs from ``enum_formulas(sig, n, 2, cap=200)``, n <= 2,
of pqr, peq, ``th_of(pqr_pres())`` and ``th_of(peq_pres())``.  On the two
``th_of`` theories it takes pairs that the presentation's lattice orders and
pairs that it does not, and it runs the prover on every sequent, also where
a countermodel decides ``entails``.  The reference spends a few
milliseconds per call on the ``th_of`` theories, so their searches run on a
reduced call budget; most of them end on it.
"""

import functools
import random

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
    _Prover,
    d_cut,
    d_identity,
    d_proj,
    d_to_conjunction,
    _d,
    derivation_to_json,
    entails,
    find_countermodel,
    parts_of,
)
from cohlogic.semantics import enumerate_models
from cohlogic.syntax import (
    TOP,
    And,
    Sequent,
    all_maps,
    conj,
    enum_formulas,
    formula_key,
    normalize,
    normalize_sequent,
    parse_sequent,
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

    def _by_axiom_forward(self, n, lhs, rhs, depth):
        lparts = parts_of(lhs)
        for alp, al, ar, ai, f in reference_axiom_instances(self.t, n):
            if not alp <= lparts:
                continue
            arparts = parts_of(ar)
            if arparts <= lparts:
                continue  # nothing new
            newlhs = conj([lhs, ar])
            d_rest = self.derive(n, newlhs, rhs, depth - 1)
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
            d = self.derive(n, lhs, al, depth - 1)
            if d is not None:
                d_axi = _d_axiom_instance(self.t, n, ai, f, al, ar)
                return d_cut(d, d_axi)
        return None


class CountingReference(ReferenceProver):
    """The reference, counting memo hits of depth-0 calls made by the
    forward step: the only calls below depth 1 that can return a
    derivation."""

    def __init__(self, t, budgets):
        super().__init__(t, budgets)
        self.forward = 0
        self.depth0_memo_hits = 0

    def derive(self, n, lhs, rhs, depth):
        if self.forward and depth <= 0 and (n, lhs, rhs) in self.memo:
            self.depth0_memo_hits += 1
        return super().derive(n, lhs, rhs, depth)

    def _by_axiom_forward(self, n, lhs, rhs, depth):
        self.forward += 1
        try:
            return super()._by_axiom_forward(n, lhs, rhs, depth)
        finally:
            self.forward -= 1


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


# Sequents on which the reference's forward step hits the memo at depth 0:
# a premise proved earlier in the same search.  On the peq ones, skipping
# the step at depth 1 without looking at the memo changes the call count.
MEMO_HITS = {
    "pqr": ("[x,y] P(x) & Q(y) |- R(x) | R(y)",
            "[x] P(x) & (P(x) | Q(x)) |- P(x) | (exists y. Q(y))",
            "[x] P(x) & Q(x) & (exists y. R(y)) |- P(x) & Q(x) & R(x)",
            "[x,y] P(y) & Q(x) & x = y |- P(x) & R(x)"),
    "peq": ("[x,y] E(x, x) & (exists z. E(z, x)) |- E(x, x) & E(x, y) & E(y, x)",
            "[x,y] E(x, y) | (exists z. E(z, x)) |- E(y, x) | E(y, y)"),
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
    peq the reference's forward step hits the memo at depth 0, which a
    depth-1 guard that skips the step without looking at the memo misses."""
    t, _, pool = theory(name)
    outcomes, memo_hits = set(), 0
    for s, budgets in corpus(name):
        got = search(_Prover(t, budgets), s)
        reference = CountingReference(t, budgets)
        want = search(reference, s)
        assert got == want, s
        outcomes.add(want[0] if want[0] in (None, "calls") else "proved")
        memo_hits += reference.depth0_memo_hits
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
