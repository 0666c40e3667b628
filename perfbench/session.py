"""The in-process workloads: one warm interpreter that imports cohlogic and
calls its functions, as a library user does.

    python3 perfbench/session.py WORKLOAD SEED SECONDS TRACE_FILE [--setup-only]

WORKLOAD is ``deduce-session`` or ``iso-sweep``.  TRACE_FILE is ``-`` for an
untraced run, which makes passes until SECONDS have gone by (at least one).
Otherwise the run makes exactly one pass with spans on and writes them to
TRACE_FILE.  ``--setup-only`` stops after set-up.  The last line printed is
a JSON object with the set-up time, each pass's figures and the peak RSS.
"""

import json
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

PQR = ("theory pqr\nsig { P/1, Q/1, R/1 }\n"
       "axiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n")
PEQ = ("theory peq\nsig { E/2 }\n"
       "axiom [x,y] E(x,y) |- E(y,x)\n"
       "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n")
UNARY = "theory unary\nsig { P/1 }\n"

# deduce-session: draws per pass.  The valid sequents of the th_of theories
# are the prover's hard case (an Unknown spends the whole call budget, 5-20s)
# and their cost varies too much from sequent to sequent for a seeded draw
# to give steady figures, so they form a fixed core, the same in every run.
CORE = (("th_S_pqr", 6), ("th_S_peq", 7))
SEEDED_ANY = (("pqr", 24), ("peq", 24))
SEEDED_INVALID = (("th_S_pqr", 12), ("th_S_peq", 12))


class Op:
    """One operation of a pass: ``run`` is timed, ``check`` is not and
    returns None or what was wrong."""

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


# ---------------------------------------------------------------------------
# deduce-session


class Theory:
    """A theory, its model pool and its formula lists, plus the tuple forms
    the independent checks use."""

    def __init__(self, name, theory, pool, pres=None):
        from cohlogic import syntax

        self.name, self.theory, self.pool, self.pres = name, theory, pool, pres
        self.formulas = {n: syntax.enum_formulas(theory.signature, n, 2, cap=200)
                         for n in range(3)}

    def prepare_checks(self):
        self.axioms = [(s.ctx, checks.as_tuple(s.lhs), checks.as_tuple(s.rhs))
                       for s in self.theory.axioms]
        self.models = [(m.size, m.tables) for m in self.pool]
        self.is_model = {}

    def lattice_order(self, phi, psi, n):
        """denote(phi) <= denote(psi) in the presentation's lattice, or
        None where denote is undefined (an existential beyond the cutoff)."""
        from cohlogic import internal_logic

        try:
            a = internal_logic.denote(self.pres, phi, n)
            b = internal_logic.denote(self.pres, psi, n)
        except internal_logic.InternalLogicError:
            return None
        return self.pres.lattices[n].leq[a][b]


def deduce_setup():
    from cohlogic import internal_logic, semantics, syntax, typespace

    pqr = syntax.parse_theory(PQR)
    peq = syntax.parse_theory(PEQ)
    out = {
        "pqr": Theory("pqr", pqr, tuple(semantics.enumerate_models(pqr, 3))),
        "peq": Theory("peq", peq, tuple(semantics.enumerate_models(peq, 3))),
    }
    gens = {"pqr": {1: [syntax.parse_formula("R(x1)", ["x1"], pqr.signature)]},
            "peq": None}
    for base in (pqr, peq):
        approx = typespace.compute_typespace(base, check_stability=False)
        pres = internal_logic.export_presentation(
            approx, gen_depth=1, max_size=200, generators=gens[base.name])
        th = internal_logic.th_of(pres)
        name = f"th_S_{base.name}"
        out[name] = Theory(name, th, internal_logic.induced_models(pres), pres)
    return out


def draw(rng, th, count, want_order):
    """count sequents of th with phi != psi from its formula lists, the
    context cycling through 0, 1, 2.  With want_order set, keep only
    sequents whose lattice order is defined and equals it."""
    out = []
    while len(out) < count:
        n = len(out) % 3
        phi, psi = rng.sample(th.formulas[n], 2)
        if want_order is not None and th.lattice_order(phi, psi, n) != want_order:
            continue
        out.append((th, n, phi, psi))
    return out


def deduce_ops(theories, seed):
    from cohlogic import calculus, syntax

    for th in theories.values():
        th.prepare_checks()
    sequents = []
    for name, count in CORE:
        sequents += draw(random.Random("core"), theories[name], count, True)
    rng = random.Random(seed)
    seeded = []
    for name, count in SEEDED_ANY:
        seeded += draw(rng, theories[name], count, None)
    for name, count in SEEDED_INVALID:
        seeded += draw(rng, theories[name], count, False)
    rng.shuffle(seeded)
    sequents += seeded

    def op(th, n, phi, psi):
        budgets = calculus.Budgets(model_pool=th.pool)
        seq = syntax.Sequent(n, phi, psi)
        verdict = {}

        def run():
            v = calculus.entails(th.theory, seq, budgets)
            verdict["v"] = v
            if isinstance(v, calculus.Proved):
                verdict["checked"] = calculus.check_derivation(th.theory,
                                                               v.derivation)

        def check():
            v = verdict["v"]
            lhs, rhs = checks.as_tuple(phi), checks.as_tuple(psi)
            order = th.lattice_order(phi, psi, n) if th.pres else None
            if isinstance(v, calculus.Proved):
                if not verdict["checked"]:
                    return "check_derivation rejects the derivation"
                if checks.find_countermodel(th.models, n, lhs, rhs):
                    return "proved, but the pool holds a countermodel"
                if order is False:
                    return "proved, but denote(phi) is not below denote(psi)"
            elif isinstance(v, calculus.Refuted):
                if v.model not in th.is_model:
                    th.is_model[v.model] = checks.satisfies(
                        v.model.size, v.model.tables, th.axioms)
                if not th.is_model[v.model]:
                    return "the countermodel violates an axiom"
                err = checks.countermodel_error(
                    v.model.size, v.model.tables, [], n, lhs, rhs,
                    tuple(v.assignment))
                if err:
                    return err
                if order is True:
                    return "refuted, but denote(phi) is below denote(psi)"
            elif not isinstance(v, calculus.Unknown):
                return f"not a verdict: {v!r}"
            return None

        return Op(f"{th.name}: {syntax.print_sequent(seq)}", run, check)

    return [op(*s) for s in sequents]


# ---------------------------------------------------------------------------
# iso-sweep


def iso_setup():
    from cohlogic import syntax

    return {name: syntax.parse_theory(text)
            for name, text in (("peq", PEQ), ("unary", UNARY), ("pqr", PQR))}


def iso_ops(theories, seed):
    from cohlogic import lattice, semantics

    def sizes(items, size, lo, hi):
        """Items per size lo..hi, then the sizes of any items outside that
        range, which makes the list too long to match."""
        found = Counter(size(x) for x in items)
        return [found.pop(n, 0) for n in range(lo, hi + 1)] + list(found.elements())

    def models_op(name, bound, want):
        th = theories[name]
        axioms = [(s.ctx, checks.as_tuple(s.lhs), checks.as_tuple(s.rhs))
                  for s in th.axioms]
        got = {}

        def run():
            got["models"] = semantics.enumerate_models(th, bound)

        def check():
            ms = got["models"]
            err = checks.count_error(name, sizes(ms, lambda m: m.size, 0, bound),
                                     want)
            if err:
                return err
            if not all(checks.satisfies(m.size, m.tables, axioms) for m in ms):
                return f"{name}: an enumerated structure is not a model"
            return None

        return Op(f"enumerate_models {name} B={bound}", run, check)

    def duality_op(name, generate, roundtrip, size, lo, hi, want):
        got = {}

        def run():
            items = generate(hi)
            got["items"] = items
            got["ok"] = [roundtrip(x) for x in items]

        def check():
            err = checks.count_error(name, sizes(got["items"], size, lo, hi),
                                     want)
            if err:
                return err
            if not all(got["ok"]):
                return f"{name}: a duality round trip fails"
            return None

        return Op(f"{name} and duality round trips", run, check)

    ops = [
        models_op("peq", 4, checks.per_model_counts(4)),
        models_op("unary", 7, checks.unary_model_counts(7)),
        models_op("pqr", 4, checks.pqr_model_counts(4)),
        duality_op("all_dist_lattices(7)", lattice.all_dist_lattices,
                   lattice.duality_roundtrip_lattice, lambda l: l.n, 1, 7,
                   checks.DIST_LATTICES[:7]),
        duality_op("all_posets(5)", lattice.all_posets,
                   lattice.duality_roundtrip_poset, lambda p: p.n, 0, 5,
                   checks.POSETS[:6]),
    ]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "deduce-session": (deduce_setup, deduce_ops),
    "iso-sweep": (iso_setup, iso_ops),
}


# ---------------------------------------------------------------------------


def run_pass(ops):
    """Run every op once; wall time counts the ops, not their checks."""
    times, errors = [], []
    for op in ops:
        t = time.perf_counter()
        try:
            op.run()
            err = None
        except Exception as e:  # a crash is a failed operation
            err = f"{type(e).__name__}: {e}"
        times.append(time.perf_counter() - t)
        if err is None:
            err = op.check()
        if err:
            errors.append([op.name, err])
    return {"run_s": sum(times), "slowest_s": max(times),
            "attempted": len(ops), "failed": len(errors), "errors": errors}


def main(argv):
    workload, seed, seconds, trace_path = argv[:4]
    setup_only = "--setup-only" in argv[4:]
    seed, seconds = int(seed), float(seconds)
    setup, make_ops = WORKLOADS[workload]
    tracer = None
    t0 = time.perf_counter()
    import cohlogic.cli  # noqa: F401  (imports every module)

    import_s = time.perf_counter() - t0
    if trace_path != "-":
        tracer = Tracer()
        tracer.instrument()
    t0 = time.perf_counter()
    state = setup()
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "passes": []}
    if not setup_only:
        ops = make_ops(state, seed)
        started = time.perf_counter()
        while True:
            result["passes"].append(run_pass(ops))
            if tracer or time.perf_counter() - started >= seconds:
                break
    if tracer:
        from cohlogic import syntax

        tracer.dump(trace_path, import_s=import_s,
                    normalize_cache=syntax.normalize.cache_info().currsize)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
