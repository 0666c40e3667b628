"""Proof objects and bounded proof search for the coherent sequent calculus.

Rules: identity, substitution, cut, the two equality rules, n-ary
conjunction and disjunction introduction/elimination, the existential double
rule, distributivity and Frobenius axioms, and theory axioms.  Conclusions
are compared up to `syntax.normalize`, which is semantics-preserving; the
prover only ever builds sequents with normalized sides, through `meet`, `join`,
`exists` and `reindex`, which the checker re-derives from raw substitutions.

Each proof step is stated once: `d_to_conjunction` builds every
``lhs |- conjunction``, Or-left and And-right share one premise loop, and
one step rewrites an And-left by distributivity or Frobenius.  A step builds
its rule node only once its premises are derived.

Verdicts are three-valued: Proved carries a checked derivation, Refuted a
finite model with a falsifying assignment, Unknown names the budget that
ended the search: the call budget, or the depth bound when the search ran
out of steps without a derivation.

The prover's memo maps ``(n, rhs)`` to the derivations found for each lhs,
with the set of its ``(n, lhs)`` sources beside it, and one table maps each
goal ``(n, lhs, rhs)`` to the depth it was last attempted at (0 when
never).  A goal missing from the memo is not attempted again at that depth
or less, whether the attempt failed or is still running further up the
search: a nested call on a goal is always shallower.  A depth-0 call can
only return a memo entry, and at depth 1 every premise is one, so the memo
cannot grow during the step.  At depth 1 a step therefore runs only if the
side its premises share with the goal is in the memo: ``(n, rhs)`` for
Or-left, distributivity, Frobenius, the forward step and the And-left
projections, ``(n, lhs)`` among the sources for And-right, Or-right,
Exists-right and the backward step, and ``(n + 1, body)`` for Exists-left.
A skipped step builds none of its premise goals.  The axiom instances of a
theory in context n are kept per theory object with two indexes: by
consequent, which gives the backward step its instances, and by the least
conjunct of the antecedent (in ``formula_key`` order), which gives the
forward step every instance whose antecedent may lie in the current lhs, in
list order.  None of these changes the search: derivations, verdicts and
call counts are those of the linear scan with every step tried
(``tests/test_prover_reference.py``).
"""

from __future__ import annotations

from .semantics import (GUARD_BITS, ResourceGuard, enumerate_models, tuple_at,
                        violations)
from .syntax import (
    BOT,
    TOP,
    And,
    Eq,
    Exists,
    Frozen,
    Or,
    Record,
    Sequent,
    SyntaxError_,
    Top,
    all_maps,
    cached,
    cached_per_owner,
    check_formula,
    conj,
    disj,
    exists,
    join,
    meet,
    normalize,
    normalize_sequent,
    print_formula,
    print_sequent,
    reindex,
    shift,
    substitute,
)


class BudgetExceeded(Exception):
    pass


class Derivation(Frozen):
    _fields = ("rule", "concl", "params", "children")

    def __init__(self, rule, concl, params=(), children=()):
        self.__dict__.update(rule=rule, concl=concl, params=params,
                             children=children)


class Budgets(Frozen):
    _fields = ("depth", "size", "model_size", "model_pool")

    def __init__(self, depth=8, size=5000, model_size=3, model_pool=None):
        # model_pool: optional pre-supplied list of models of the theory to
        # use for refutation instead of exhaustive enumeration
        self.__dict__.update(depth=depth, size=size, model_size=model_size,
                             model_pool=model_pool)

    def replace(self, **changes):
        return Budgets(**{**self.__dict__, **changes})

    def scaled(self, factor):
        return self.replace(depth=self.depth * factor, size=self.size * factor)


class Proved(Frozen):
    _fields = ("derivation",)

    def __init__(self, derivation):
        self.__dict__["derivation"] = derivation


class Refuted(Frozen):
    _fields = ("model", "assignment")

    def __init__(self, model, assignment):
        self.__dict__.update(model=model, assignment=assignment)


class Unknown(Frozen):
    _fields = ("reason",)

    def __init__(self, reason):  # the budget that ended the search, and its value
        self.__dict__["reason"] = reason


class Tally(Record):
    """Verdict counts over a batch of checks.  A check expects Proved, or
    with ``expected`` false a verdict other than Proved: a settled verdict
    counts as proved when it agrees with the expectation and as refuted
    when it does not.  ``failures`` lists the witnesses of refuted checks
    and the failures a caller records itself, and ``first_failure`` is the
    witness of the first check not counted as proved.  ``unknowns`` lists
    the witnesses of the Unknown checks.  ``verdict`` decides Fails, Unknown
    or Holds."""

    _fields = ("proved", "refuted", "unknown", "failures", "first_failure",
               "unknowns")

    def __init__(self):
        self.proved = self.refuted = self.unknown = 0
        self.failures = []
        self.first_failure = None
        self.unknowns = []

    def add(self, verdict, witness, expected=True):
        if isinstance(verdict, Unknown):
            self.unknown += 1
            self.unknowns.append(witness)
        elif isinstance(verdict, Proved) == expected:
            self.proved += 1
            return
        else:
            self.refuted += 1
            self.failures.append(witness)
        if self.first_failure is None:
            self.first_failure = witness

    @property
    def verdict(self):
        if self.refuted or self.failures:
            return "Fails"
        return "Unknown" if self.unknown else "Holds"

    @property
    def ok(self):
        return self.verdict == "Holds"


# ---------------------------------------------------------------------------
# helpers shared by checker and prover


def conjuncts(phi):
    """The conjuncts of a normalized formula in ``formula_key`` order, in
    which a normalized ``And`` keeps its parts; TOP contributes nothing."""
    if isinstance(phi, Top):
        return ()
    if isinstance(phi, And):
        return phi.parts
    return (phi,)


def parts_of(phi):
    """Conjunct set of a normalized formula, for membership tests."""
    return frozenset(conjuncts(phi))


def make_pattern(phi, j, n):
    """phi with every free occurrence of variable j replaced by a hole,
    represented as index n+1 of a context-(n+1) formula."""
    f = tuple(n + 1 if t == j else t for t in range(1, n + 1))
    return substitute(phi, f, n + 1)


def plug(pattern, v, n):
    """Fill the hole (index n+1) of a context-(n+1) pattern with variable v."""
    return substitute(pattern, tuple(range(1, n + 1)) + (v,), n)


# ---------------------------------------------------------------------------
# derivation checking


def check_derivation(t, d):
    return check_derivation_reason(t, d) is None


def check_derivation_reason(t, d):
    """None if valid, else a string describing the first bad node."""
    try:
        _check_tree(t, d)
    except _BadNode as e:
        return str(e)
    return None


class _BadNode(Exception):
    pass


def _bad(msg, d):
    raise _BadNode(f"{d.rule}: {msg}")


def _check_tree(t, d):
    for c in d.children:
        if not isinstance(c, Derivation):
            _bad("child is not a derivation", d)
        _check_tree(t, c)
    try:
        _check_node(t, d)
    except SyntaxError_ as e:  # a formula outside the signature or context
        _bad(str(e), d)
    except (AttributeError, TypeError, ValueError):
        _bad(f"malformed node (parameters {d.params!r})", d)


def _check_node(t, d):
    """Check d's rule instance, its children being valid derivations."""
    s = d.concl
    check_formula(t.signature, s.lhs, s.ctx)
    check_formula(t.signature, s.rhs, s.ctx)
    for c in d.children:
        if d.rule not in ("subst", "exists_up", "exists_down") and c.concl.ctx != s.ctx:
            _bad("child context mismatch", d)
    n = s.ctx
    lhs, rhs = normalize(s.lhs), normalize(s.rhs)
    kids = [normalize_sequent(c.concl) for c in d.children]
    rule = d.rule

    def need(k):
        if len(kids) != k:
            _bad(f"expected {k} children, got {len(kids)}", d)

    if rule == "identity":
        need(0)
        if lhs != rhs:
            _bad("sides differ", d)
    elif rule == "top_intro":
        need(0)
        if rhs != TOP:
            _bad("rhs is not top", d)
    elif rule == "bot_elim":
        need(0)
        if lhs != BOT:
            _bad("lhs is not bottom", d)
    elif rule == "eq_refl":
        need(0)
        (i,) = d.params
        if not 1 <= i <= n or lhs != TOP or rhs != normalize(Eq(i, i)):
            _bad("not an equality-reflexivity instance", d)
    elif rule == "eq_subst":
        need(0)
        i, j, pattern = d.params
        if not (1 <= i <= n and 1 <= j <= n):
            _bad("indices out of context", d)
        check_formula(t.signature, pattern, n + 1)
        want_l = conj([Eq(i, j), plug(pattern, i, n)])
        want_r = normalize(plug(pattern, j, n))
        if lhs != want_l or rhs != want_r:
            _bad("conclusion does not match the pattern instance", d)
    elif rule == "axiom":
        need(0)
        (i,) = d.params
        if not 0 <= i < len(t.axioms):
            _bad("axiom index out of range", d)
        ax = t.axioms[i]
        if s.ctx != ax.ctx or lhs != normalize(ax.lhs) or rhs != normalize(ax.rhs):
            _bad("conclusion is not that axiom", d)
    elif rule == "subst":
        need(1)
        (f,) = d.params
        child = kids[0]
        if len(f) != child.ctx:
            _bad("substitution length mismatch", d)
        if any(not 1 <= v <= n for v in f):
            _bad("substitution image out of context", d)
        if lhs != normalize(substitute(child.lhs, f, n)) or rhs != normalize(
            substitute(child.rhs, f, n)
        ):
            _bad("conclusion is not the substituted child", d)
    elif rule == "cut":
        need(2)
        a, b = kids
        if a.rhs != b.lhs or lhs != a.lhs or rhs != b.rhs:
            _bad("cut formula mismatch", d)
    elif rule == "conj_proj":
        need(0)
        if lhs != rhs and not (isinstance(lhs, And) and rhs in lhs.parts):
            _bad("rhs is not a conjunct of lhs", d)
    elif rule == "conj_rule":
        if not kids:
            _bad("needs at least one child", d)
        if any(k.lhs != lhs for k in kids):
            _bad("children lhs differ from conclusion lhs", d)
        if rhs != conj([k.rhs for k in kids]):
            _bad("rhs is not the conjunction of children rhs", d)
    elif rule == "disj_inj":
        need(0)
        if lhs != rhs and not (isinstance(rhs, Or) and lhs in rhs.parts):
            _bad("lhs is not a disjunct of rhs", d)
    elif rule == "disj_rule":
        if not kids:
            _bad("needs at least one child", d)
        if any(k.rhs != rhs for k in kids):
            _bad("children rhs differ from conclusion rhs", d)
        if lhs != disj([k.lhs for k in kids]):
            _bad("lhs is not the disjunction of children lhs", d)
    elif rule == "exists_up":
        need(1)
        child = kids[0]
        if child.ctx != n + 1:
            _bad("child context must extend conclusion context", d)
        if lhs != normalize(Exists(child.lhs)):
            _bad("lhs is not the existential of the child lhs", d)
        if child.rhs != normalize(shift(rhs, n)):
            _bad("child rhs is not the shifted conclusion rhs", d)
    elif rule == "exists_down":
        need(1)
        child = kids[0]
        if n != child.ctx + 1:
            _bad("conclusion context must extend child context", d)
        if not isinstance(child.lhs, Exists):
            _bad("child lhs is not existential", d)
        if lhs != normalize(child.lhs.body):
            _bad("lhs is not the child existential body", d)
        if rhs != normalize(shift(child.rhs, child.ctx)):
            _bad("rhs is not the shifted child rhs", d)
    elif rule == "distributivity":
        need(0)
        phi, dparts = d.params
        want_l = conj([phi, Or(dparts)])
        want_r = disj([conj([phi, p]) for p in dparts])
        if lhs != want_l or rhs != want_r:
            _bad("not a distributivity instance", d)
    elif rule == "frobenius":
        need(0)
        phi, psi = d.params
        want_l = conj([phi, Exists(psi)])
        want_r = normalize(Exists(conj([shift(phi, n), psi])))
        if lhs != want_l or rhs != want_r:
            _bad("not a Frobenius instance", d)
    else:
        _bad("unknown rule", d)


# ---------------------------------------------------------------------------
# derivation builders (always produce normalized conclusions)


def _d(rule, n, lhs, rhs, params=(), children=()):
    return Derivation(rule, Sequent(n, lhs, rhs), params, tuple(children))


def d_identity(n, phi):
    return _d("identity", n, phi, phi)


def d_cut(a, b):
    n = a.concl.ctx
    return _d("cut", n, a.concl.lhs, b.concl.rhs, children=(a, b))


def d_proj(n, lhs, part):
    return _d("conj_proj", n, lhs, part)


def d_to_conjunction(n, lhs, target, free=None, d_b=None):
    """lhs |- target, each conjunct of target being lhs (identity), a
    conjunct of lhs in free (projection; by default all are free), the rhs b
    of d_b: lhs |- b, or a conjunct of b (d_b cut with a projection).
    Without d_b, target == lhs is one identity."""
    if target == lhs and d_b is None:
        return d_identity(n, lhs)
    if target == TOP:
        return _d("top_intro", n, lhs, TOP)
    free = conjuncts(lhs) if free is None else free

    def part(p):
        if p == lhs:
            return d_identity(n, lhs)
        if p in free:
            return d_proj(n, lhs, p)
        if d_b is None:
            raise ValueError("target is not a conjunct of lhs")
        b = d_b.concl.rhs
        return d_b if p == b else d_cut(d_b, d_proj(n, b, p))

    if not isinstance(target, And):
        return part(target)
    return _d("conj_rule", n, lhs, target, children=map(part, target.parts))


def d_exists_intro(n, body, witness):
    """body[hole := witness] |- Exists(body), body normal, via the double
    rule + subst."""
    ex = exists(body)
    ids = tuple(range(1, n + 1))
    down = _d("exists_down", n + 1, body, reindex(ex, ids, n + 1),
              children=(d_identity(n, ex),))
    f = ids + (witness,)
    return _d("subst", n, reindex(body, f, n), ex, params=(f,), children=(down,))


# ---------------------------------------------------------------------------
# the prover


@cached_per_owner
def _axiom_instances(t, n):
    """(instances, by_rhs, by_part) of t in context n: all normalized axiom
    instances with their builders, a map from each consequent to its
    instances, and a map from the least conjunct of each antecedent (None
    for TOP) to the positions of its instances, both in list order."""
    out = []
    by_rhs, by_part = {}, {}
    for ai, ax in enumerate(t.axioms):
        lhs, rhs = normalize(ax.lhs), normalize(ax.rhs)
        for f in all_maps(ax.ctx, n):
            al, ar = reindex(lhs, f, n), reindex(rhs, f, n)
            if al == ar or ar == TOP:
                continue
            alp = parts_of(al)
            inst = (alp, al, ar, ai, f)
            by_rhs.setdefault(ar, []).append(inst)
            least = (*conjuncts(al), None)[0]
            by_part.setdefault(least, []).append(len(out))
            out.append(inst)
    return out, by_rhs, by_part


@cached_per_owner
def _forward_steps(t, n, lhs):
    """The instances of t in context n that the forward step may fire on
    lhs, in list order: antecedent inside lhs, consequent adding to it."""
    out, _, by_part = _axiom_instances(t, n)
    lparts = parts_of(lhs)
    picked = sorted(i for p in (*lparts, None) for i in by_part.get(p, ()))
    return tuple(out[i] for i in picked if out[i][0] <= lparts
                 and not all(p in lparts for p in conjuncts(out[i][2])))


def _d_axiom_instance(t, n, ai, f, al, ar):
    ax = t.axioms[ai]
    leaf = _d("axiom", ax.ctx, normalize(ax.lhs), normalize(ax.rhs), params=(ai,))
    if f == tuple(range(1, ax.ctx + 1)) and ax.ctx == n:
        return leaf
    return _d("subst", n, al, ar, params=(f,), children=(leaf,))


@cached
def _extended(lhs, ar):
    """meet(lhs, ar), the forward step's new antecedent: half of these meets
    repeat within their search, the rest when a sequent is decided again."""
    return meet(lhs, ar)


class _Prover:
    def __init__(self, t, budgets):
        self.t = t
        self.budgets = budgets
        self.memo = {}  # (n, rhs) -> {lhs: derivation}
        self.sources = set()  # the (n, lhs) of every memo entry
        self.fail_depth = {}  # (n, lhs, rhs) -> depth of its last attempt
        self.calls = 0

    def derive(self, n, lhs, rhs, depth):
        proved = self.memo.get((n, rhs))
        if proved is not None:
            d = proved.get(lhs)  # a stored derivation is never None
            if d is not None:
                return d
        if depth <= 0 or depth <= self.fail_depth.get((n, lhs, rhs), 0):
            return None
        self.calls += 1
        if self.calls > self.budgets.size:
            raise BudgetExceeded()
        self.fail_depth[n, lhs, rhs] = depth
        d = self._derive(n, lhs, rhs, depth)
        if d is not None:
            self.memo.setdefault((n, rhs), {})[lhs] = d
            self.sources.add((n, lhs))
        return d

    def _derive(self, n, lhs, rhs, depth):
        if lhs == rhs:
            return d_identity(n, lhs)
        if rhs == TOP:
            return _d("top_intro", n, lhs, TOP)
        if lhs == BOT:
            return _d("bot_elim", n, BOT, rhs)
        # at depth 1 a step runs only if the side its premises share is known
        rhs_hits = depth > 1 or (n, rhs) in self.memo
        lhs_hits = depth > 1 or (n, lhs) in self.sources

        # collapse variables identified by an equality on the left
        eq = next((p for p in conjuncts(lhs) if isinstance(p, Eq)), None)
        if eq is not None:
            d = self._by_eq_collapse(n, lhs, rhs, eq, depth)
            if d is not None:
                return d

        if isinstance(lhs, Or):
            if not rhs_hits:
                return None
            return self._every_premise(
                "disj_rule", n, lhs, rhs, ((p, rhs) for p in lhs.parts), depth)

        if isinstance(lhs, Exists):
            if depth <= 1 and (n + 1, lhs.body) not in self.sources:
                return None
            up = reindex(rhs, tuple(range(1, n + 1)), n + 1)
            d = self.derive(n + 1, lhs.body, up, depth - 1)
            return None if d is None else _d("exists_up", n, lhs, rhs, children=(d,))

        if isinstance(rhs, And):
            if not lhs_hits:
                return None
            return self._every_premise(
                "conj_rule", n, lhs, rhs, ((lhs, p) for p in rhs.parts), depth)

        if isinstance(lhs, And) and rhs_hits:
            # distributivity over a disjunct, Frobenius over an existential
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
                d = self.derive(n, new, rhs, depth - 1)
                if d is not None:
                    return d_cut(_d(rule, n, lhs, new, params), d)

        d = self._by_axiom_forward(n, lhs, rhs, depth) if rhs_hits else None
        if d is not None:
            return d

        if isinstance(rhs, Or) and lhs_hits:
            for p in rhs.parts:
                d = self.derive(n, lhs, p, depth - 1)
                if d is not None:
                    return d_cut(d, _d("disj_inj", n, p, rhs))

        if isinstance(rhs, Exists) and lhs_hits:
            for w in range(1, n + 1):
                target = reindex(rhs.body, tuple(range(1, n + 1)) + (w,), n)
                d = self.derive(n, lhs, target, depth - 1)
                if d is not None:
                    return d_cut(d, d_exists_intro(n, rhs.body, w))

        d = self._by_axiom_backward(n, lhs, rhs, depth) if lhs_hits else None
        if d is not None:
            return d

        if isinstance(lhs, And) and rhs_hits:
            for p in lhs.parts:
                d = self.derive(n, p, rhs, depth - 1)
                if d is not None:
                    return d_cut(d_proj(n, lhs, p), d)
        return None

    def _every_premise(self, rule, n, lhs, rhs, premises, depth):
        """The rule's node over derivations of all premises, or None."""
        kids = []
        for p_lhs, p_rhs in premises:
            d = self.derive(n, p_lhs, p_rhs, depth - 1)
            if d is None:
                return None
            kids.append(d)
        return _d(rule, n, lhs, rhs, children=kids)

    def _by_eq_collapse(self, n, lhs, rhs, eq, depth):
        i, j = eq.i, eq.j
        c = tuple(i if v == j else v for v in range(1, n + 1))
        lhs_c = reindex(lhs, c, n)
        rhs_c = reindex(rhs, c, n)
        if lhs_c == lhs and rhs_c == rhs:
            return None
        d_c = self.derive(n, lhs_c, rhs_c, depth - 1)
        if d_c is None:
            return None
        # lhs |- rhs_c, through lhs_c by rewriting j to i (the equality is a
        # conjunct of lhs); carry the equality along and rewrite the goal back
        d_to_c = _d("eq_subst", n, lhs, lhs_c, params=(j, i, make_pattern(lhs, j, n)))
        with_eq = meet(rhs_c, eq)
        d_with = d_to_conjunction(n, lhs, with_eq, (eq,), d_cut(d_to_c, d_c))
        back = _d("eq_subst", n, with_eq, rhs, params=(i, j, make_pattern(rhs, j, n)))
        return d_cut(d_with, back)

    def _by_axiom_forward(self, n, lhs, rhs, depth):
        for alp, al, ar, ai, f in _forward_steps(self.t, n, lhs):
            newlhs = _extended(lhs, ar)
            d_rest = self.derive(n, newlhs, rhs, depth - 1)
            if d_rest is None:
                continue
            d_axi = _d_axiom_instance(self.t, n, ai, f, al, ar)
            d_ar = d_cut(d_to_conjunction(n, lhs, al), d_axi)  # lhs |- ar
            d_new = d_to_conjunction(n, lhs, newlhs, parts_of(lhs), d_ar)
            return d_cut(d_new, d_rest)
        return None

    def _by_axiom_backward(self, n, lhs, rhs, depth):
        _, by_rhs, _ = _axiom_instances(self.t, n)
        for alp, al, ar, ai, f in by_rhs.get(rhs, ()):
            d = self.derive(n, lhs, al, depth - 1)
            if d is not None:
                return d_cut(d, _d_axiom_instance(self.t, n, ai, f, al, ar))
        return None


def prove(t, s, budgets=Budgets()):
    """A checked derivation of s from t within budget, or None."""
    return _search(t, s, budgets)[0]


def _search(t, s, budgets):
    """(derivation, None) for a checked derivation of s from t, else
    (None, the budget that ended the search)."""
    s = normalize_sequent(s)
    prover = _Prover(t, budgets)
    try:
        d = prover.derive(s.ctx, s.lhs, s.rhs, budgets.depth)
    except BudgetExceeded:
        return None, f"call budget of {budgets.size} exhausted"
    except RecursionError:  # a few Python frames per level of depth
        return None, f"depth {budgets.depth} exceeds the recursion limit"
    if d is None:
        return None, f"no derivation within depth {budgets.depth}"
    reason = check_derivation_reason(t, d)
    if reason is not None:
        raise AssertionError(f"prover produced an invalid derivation: {reason}")
    return d, None


def find_countermodel(t, s, max_size=3, pool=None):
    """A model of t (carrier <= max_size) and assignment satisfying lhs but
    not rhs, or None.  An explicit pool of models of t may be supplied.
    Raises ResourceGuard, before it evaluates a model, if the model's
    context tuples exceed 2^GUARD_BITS."""
    if pool is None:
        pool = enumerate_models(t, max_size)
    for m in pool:
        if m.size ** s.ctx > 1 << GUARD_BITS:
            raise ResourceGuard(f"size {m.size} has {m.size}^{s.ctx} tuples of "
                                f"the context (> 2^{GUARD_BITS})")
        bad = violations(m, s)
        if bad:
            # the lowest set bit is the lexicographically least tuple
            return m, tuple_at(m.size, s.ctx, (bad & -bad).bit_length() - 1)
    return None


def entails(t, s, budgets=Budgets()):
    s = normalize_sequent(s)
    cm = find_countermodel(t, s, budgets.model_size, budgets.model_pool)
    if cm is not None:
        return Refuted(cm[0], cm[1])
    d, reason = _search(t, s, budgets)
    if d is not None:
        return Proved(d)
    return Unknown(reason)


class EquivalenceVerdict(Frozen):
    _fields = ("status", "forward", "backward")

    def __init__(self, status, forward, backward):
        # status is "Equivalent", "Inequivalent" or "Unknown"
        self.__dict__.update(status=status, forward=forward, backward=backward)

    @property
    def equivalent(self):
        return self.status == "Equivalent"


def equivalent(t, phi, psi, ctx, budgets=Budgets()):
    fwd = entails(t, Sequent(ctx, phi, psi), budgets)
    if isinstance(fwd, Refuted):
        return EquivalenceVerdict("Inequivalent", fwd, None)
    bwd = entails(t, Sequent(ctx, psi, phi), budgets)
    if isinstance(bwd, Refuted):
        return EquivalenceVerdict("Inequivalent", fwd, bwd)
    if isinstance(fwd, Proved) and isinstance(bwd, Proved):
        return EquivalenceVerdict("Equivalent", fwd, bwd)
    return EquivalenceVerdict("Unknown", fwd, bwd)


# ---------------------------------------------------------------------------
# JSON


def derivation_to_json(d):
    return {
        "rule": d.rule,
        "conclusion": print_sequent(d.concl),
        "parameters": _params_json(d.params),
        "children": [derivation_to_json(c) for c in d.children],
    }


def _params_json(params):
    out = []
    for p in params:
        if isinstance(p, (int, str)):
            out.append(p)
        elif isinstance(p, tuple) and all(isinstance(v, int) for v in p):
            out.append(list(p))
        elif isinstance(p, tuple):
            out.append([print_formula(q) for q in p])
        else:
            out.append(print_formula(p))
    return out
