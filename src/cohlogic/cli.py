"""Single command-line entry point for every pipeline in the package.

Subcommands: parse, prove, refute, eval, models, typespace, duality,
check-bc, check-frobenius, interpret, thf, roundtrip.

Exit codes: 0 = holds/proved, 1 = fails/refuted, 2 = unknown (budget ran
out), 3 = input error.  ``--json`` emits a machine-readable run report;
identical invocations produce identical reports apart from the wall-time
field.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import calculus, internal_logic, lattice, semantics, syntax, typespace

SCHEMA_VERSIONS = {
    "run-report": "1",
    "poset": "1",
    "lattice": "1",
    "model": "1",
    "derivation": "1",
    "presentation": "1",
}

# exit code per verdict; a run exits with the code of its worst verdict
EXIT = {"Holds": 0, "Fails": 1, "Unknown": 2}
EXIT_INPUT = 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract wants 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


# ---------------------------------------------------------------------------
# report plumbing


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _jsonable(x):
    if isinstance(x, syntax.Formula):
        return syntax.print_formula(x)
    if isinstance(x, syntax.Sequent):
        return syntax.print_sequent(x)
    if isinstance(x, semantics.FiniteModel):
        return semantics.model_to_json(x)
    if isinstance(x, calculus.Derivation):
        return calculus.derivation_to_json(x)
    if isinstance(x, calculus.Proved):
        return {"verdict": "Proved"}
    if isinstance(x, calculus.Refuted):
        return {"verdict": "Refuted",
                "countermodel": semantics.model_to_json(x.model),
                "assignment": list(x.assignment)}
    if isinstance(x, calculus.Unknown):
        return {"verdict": "Unknown", "reason": x.reason}
    if isinstance(x, (frozenset, set)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def _report(command, inputs, bounds, verdicts, extra=None):
    rep = {
        "schema": SCHEMA_VERSIONS["run-report"],
        "command": command,
        "inputs": {k: _sha256(v) for k, v in inputs.items()},
        "bounds": bounds,
        "verdicts": _jsonable(verdicts),
    }
    if extra:
        rep.update(_jsonable(extra))
    return rep


def _emit(args, rep, lines):
    if args.json:
        print(json.dumps(rep, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _read(path):
    p = Path(path)
    if not p.is_file():
        raise CliError(f"no such file: {path}")
    try:
        return p.read_text()
    except UnicodeDecodeError as e:
        raise CliError(f"{path} is not {e.encoding} text: {e.reason}") from None


def _object(value, what):
    """value, a decoded JSON value, checked to be an object."""
    if not isinstance(value, dict):
        raise CliError(f"{what} must be a JSON object")
    return value


def _formula_text(value, what):
    if not isinstance(value, str):
        raise CliError(f"{what} must be a formula string")
    return value


def _budgets(args):
    return calculus.Budgets(depth=args.depth, model_size=args.model_size)


def _tally(out):
    """Report fields and summary line of a ``calculus.Tally``."""
    line = (f"{out.verdict}: proved {out.proved}, refuted {out.refuted}, "
            f"unknown {out.unknown}")
    return {"verdict": out.verdict, "proved": out.proved,
            "refuted": out.refuted, "unknown": out.unknown}, line


def _verdict_name(v):
    if isinstance(v, calculus.Proved):
        return "Holds"
    if isinstance(v, calculus.Refuted):
        return "Fails"
    return "Unknown"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args):
    text = _read(args.theory)
    t = syntax.parse_theory(text)
    rep = _report(
        "parse", {"theory": text},
        {}, [{"verdict": "Holds"}],
        {"name": t.name,
         "relations": [list(r) for r in t.signature.relations],
         "axioms": len(t.axioms)},
    )
    return rep, [syntax.print_theory(t)]


def _cmd_prove(args, want="prove"):
    text = _read(args.theory)
    t = syntax.parse_theory(text)
    s = syntax.parse_sequent(args.sequent, t.signature)
    v = calculus.entails(t, s, _budgets(args))
    verdict = {"verdict": _verdict_name(v), "sequent": s}
    lines = [f"{_verdict_name(v)}: {syntax.print_sequent(s)}"]
    if isinstance(v, calculus.Proved):
        verdict["derivation"] = v.derivation
        ok = calculus.check_derivation(t, v.derivation)
        verdict["derivation_checked"] = ok
        lines.append(f"derivation checked: {ok}")
    if isinstance(v, calculus.Refuted):
        verdict["countermodel"] = v.model
        verdict["assignment"] = list(v.assignment)
        lines.append(f"countermodel of size {v.model.size} at {v.assignment}")
    if isinstance(v, calculus.Unknown):
        verdict["reason"] = v.reason
        lines.append(f"reason: {v.reason}")
    rep = _report(
        want, {"theory": text, "sequent": args.sequent},
        {"depth": args.depth, "model_size": args.model_size},
        [verdict],
    )
    return rep, lines


def _cmd_refute(args):
    return _cmd_prove(args, want="refute")


def _cmd_eval(args):
    text = _read(args.theory)
    t = syntax.parse_theory(text)
    mtext = _read(args.model)
    m = semantics.model_from_json(_object(json.loads(mtext), "a model"))
    for sym, ar in t.signature.relations:
        if any(len(row) != ar for row in m.tables.get(sym, ())):
            raise CliError(f"a row of {sym} does not have its arity {ar}")
    names = [v for v in args.vars.split(",") if v] if args.vars else []
    phi = syntax.parse_formula(args.formula, names, t.signature)
    try:
        a = tuple(int(v) for v in args.args.split(",") if v)
    except ValueError:
        raise CliError("--args must be comma-separated integers") from None
    if len(a) != len(names):
        raise CliError("--args must assign every context variable")
    if any(not 0 <= v < m.size for v in a):
        raise CliError("assignment out of carrier range")
    value = semantics.eval_formula(m, phi, a)
    rep = _report(
        "eval", {"theory": text, "model": mtext, "formula": args.formula},
        {}, [{"verdict": "Holds" if value else "Fails", "value": value}],
    )
    return rep, [str(value).lower()]


def _cmd_models(args):
    text = _read(args.theory)
    t = syntax.parse_theory(text)
    ms = semantics.enumerate_models(t, args.bound)
    shown = ms if args.limit is None else ms[: args.limit]
    rep = _report(
        "models", {"theory": text}, {"bound": args.bound},
        [{"verdict": "Holds", "count": len(ms)}],
        {"models": shown},
    )
    lines = [f"{len(ms)} models up to size {args.bound} (up to isomorphism)"]
    for m in shown:
        lines.append(json.dumps(semantics.model_to_json(m)))
    return rep, lines


def _cmd_typespace(args):
    text = _read(args.theory)
    t = syntax.parse_theory(text)
    a = typespace.compute_typespace(t, N=args.cutoff, B=args.bound,
                                    d=args.formula_depth)
    points = {n: len(a.points[n]) for n in range(args.cutoff + 1)}
    rep = _report(
        "typespace", {"theory": text},
        {"bound": args.bound, "formula_depth": args.formula_depth,
         "cutoff": args.cutoff},
        [{"verdict": "Holds", "points": points}],
        {"stable": a.stable, "stable_arities": list(a.stable_arities)},
    )
    lines = [f"arity {n}: {points[n]} points"
             f" ({'stable' if a.stable_arities[n] else 'not stable'})"
             for n in range(args.cutoff + 1)]
    lines.append(f"stable at every arity: {a.stable}")
    return rep, lines


def _cmd_duality(args):
    if (args.lattice is None) == (args.poset is None):
        raise CliError("give exactly one of --lattice or --poset")
    if args.lattice:
        text = _read(args.lattice)
        l = lattice.lattice_from_json(_object(json.loads(text), "a lattice"))
        ok = lattice.duality_roundtrip_lattice(l)
        kind, size = "lattice", l.n
    else:
        text = _read(args.poset)
        p = lattice.poset_from_json(_object(json.loads(text), "a poset"))
        ok = lattice.duality_roundtrip_poset(p)
        kind, size = "poset", p.n
    rep = _report(
        "duality", {kind: text}, {},
        [{"verdict": "Holds" if ok else "Fails", "kind": kind, "size": size}],
    )
    return rep, [
        f"{kind} round trip: {'isomorphism' if ok else 'FAILED'}"
    ]


def _parse_span(text):
    # "b<-d->c": a span d -> b, d -> c of finite sets given by their sizes
    try:
        left, legs = text.replace(" ", "").split("<-")
        mid, right = legs.split("->")
        sizes = int(mid), int(left), int(right)
        if min(sizes) >= 0:
            return sizes
    except ValueError:
        pass
    raise CliError(f"cannot parse span {text!r}; expected like '1<-0->1'")


def _parse_map(text, dn, size):
    if text is None:
        if dn == 0:
            return ()
        raise CliError("span legs with nonempty source need --left/--right")
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        values = None
    if values is None or len(values) != dn or any(not 1 <= v <= size for v in values):
        raise CliError(f"map {text!r} is not a function [{dn}] -> [{size}]")
    return values


def _cmd_check_bc(args):
    text = _read(args.theory)
    t = syntax.parse_theory(text)
    dn, bn, cn = _parse_span(args.pushout)
    if max(dn, bn, cn) > args.cutoff:
        raise CliError(f"span {args.pushout!r} has a set of {max(dn, bn, cn)} "
                       f"elements, beyond cutoff {args.cutoff}")
    h = _parse_map(args.left, dn, bn)
    f = _parse_map(args.right, dn, cn)
    an, u, v = internal_logic.pushout_of_span(h, f, dn, bn, cn)
    if an > args.cutoff:
        raise CliError(f"pushout has {an} elements, beyond cutoff {args.cutoff}")
    a = typespace.compute_typespace(t, N=args.cutoff, B=args.bound,
                                    d=args.formula_depth)
    out = typespace.check_functor_bc(a, h, f, dn, bn, cn, an, u, v)
    verdict = "Holds" if out["bc"] else "Fails"
    rep = _report(
        "check-bc", {"theory": text},
        {"bound": args.bound, "formula_depth": args.formula_depth,
         "cutoff": args.cutoff},
        [{"verdict": verdict, "bc": out["bc"],
          "bc_witness": out["bc_witness"],
          "universal_map_surjective": out["universal_map_surjective"],
          "missed_pair": out["missed_pair"]}],
        {"pushout": {"span": [dn, bn, cn], "apex": an,
                     "left": list(u), "right": list(v)},
         "stable_arities": list(a.stable_arities)},
    )
    lines = [
        f"beck-chevalley: {out['bc']}",
        f"universal_map_surjective: "
        f"{str(out['universal_map_surjective']).lower()}",
    ]
    if out["missed_pair"] is not None:
        lines.append(f"point pair missed by the universal map: {out['missed_pair']}")
    return rep, lines


def _cmd_check_frobenius(args):
    text = _read(args.map)
    obj = _object(json.loads(text), "a map")
    src = lattice.poset_from_json(_object(obj.get("source"), "the source"))
    tgt = lattice.poset_from_json(_object(obj.get("target"), "the target"))
    values = obj.get("values")
    if not isinstance(values, list):
        raise CliError("the values must be a JSON list")
    g = lattice.MonotoneMap(src, tgt, values)
    f = lattice.dual_lattice_hom(g)
    h = lattice.left_adjoint(f)
    frob, witness = lattice.check_frobenius(h, f)
    open_ = lattice.is_open_map(g)
    verdict = "Holds" if frob else "Fails"
    rep = _report(
        "check-frobenius", {"map": text}, {},
        [{"verdict": verdict, "frobenius": frob, "witness": witness,
          "open_map": open_, "agreement": frob == open_}],
    )
    return rep, [
        f"frobenius: {frob}",
        f"open map: {open_}",
    ]


def _cmd_interpret(args):
    src_text = _read(args.source)
    tgt_text = _read(args.target)
    map_text = _read(args.map)
    src = syntax.parse_theory(src_text)
    tgt = syntax.parse_theory(tgt_text)
    obj = _object(json.loads(map_text), "an interpretation")
    k = obj.pop("k", 1)
    if type(k) is not int:
        raise CliError("k must be an integer")

    def blocks(arity):
        return [f"x{i}" for i in range(1, arity * k + 1)]

    mapping = {}
    for sym, formula_text in obj.items():
        arity = 2 if sym == "=" else src.signature.arity(sym)
        mapping[sym] = syntax.parse_formula(
            _formula_text(formula_text, f"the image of {sym}"), blocks(arity),
            tgt.signature)
    g = typespace.Interpretation(src, tgt, k, mapping)
    out = typespace.check_interpretation(g, _budgets(args))
    verdict, line = _tally(out)
    rep = _report(
        "interpret",
        {"source": src_text, "target": tgt_text, "map": map_text},
        {"depth": args.depth, "model_size": args.model_size},
        [dict(verdict, first_failure=out.first_failure)],
        {"strong": g.strong},
    )
    return rep, [line]


def _generators(args, t):
    if not args.generators:
        return None
    obj = _object(json.loads(_read(args.generators)), "the generators")
    gens = {}
    for n_text, formulas in obj.items():
        if not n_text.isdecimal():
            raise CliError(f"generator key {n_text!r} is not an arity")
        n = int(n_text)
        names = [f"x{i}" for i in range(1, n + 1)]
        if not isinstance(formulas, list):
            raise CliError(f"the generators of arity {n} must be a JSON list")
        gens[n] = [syntax.parse_formula(
            _formula_text(f, "a generator"), names, t.signature) for f in formulas]
    return gens


def _export(args, t):
    gens = _generators(args, t)
    a = typespace.compute_typespace(t, N=args.cutoff, B=args.bound,
                                    d=args.formula_depth,
                                    check_stability=False)
    return internal_logic.export_presentation(
        a, gen_depth=args.gen_depth, max_size=args.max_size, generators=gens,
    )


def _cmd_thf(args):
    if args.action == "validate":
        text = _read(args.input)
        pres = internal_logic.presentation_from_json(
            _object(json.loads(text), "a presentation"))
        out = internal_logic.validate_presentation(pres)
        verdict = "Holds" if out["ok"] else "Fails"
        rep = _report(
            "thf validate", {"presentation": text}, {},
            [{"verdict": verdict, "failures": out["failures"][:10]}],
        )
        return rep, [
            f"presentation valid: {out['ok']}"
        ]

    text = _read(args.input)
    t = syntax.parse_theory(text)
    bounds = {"bound": args.bound, "formula_depth": args.formula_depth,
              "cutoff": args.cutoff, "gen_depth": args.gen_depth,
              "max_size": args.max_size}
    if args.action == "build":
        pres = _export(args, t)
        th = internal_logic.th_of(pres)
        obj = internal_logic.presentation_to_json(pres)
        if args.out:
            Path(args.out).write_text(json.dumps(obj, indent=2, sort_keys=True))
        sizes = {n: pres.lattices[n].n for n in range(args.cutoff + 1)}
        rep = _report(
            "thf build", {"theory": text}, bounds,
            [{"verdict": "Holds", "lattice_sizes": sizes,
              "axioms": len(th.axioms)}],
            None if args.out else {"presentation": obj},
        )
        lines = [f"arity {n}: lattice of {sizes[n]} opens" for n in sizes]
        lines.append(f"theory of the presentation: {len(th.axioms)} axioms")
        if args.out:
            lines.append(f"wrote {args.out}")
        return rep, lines

    # action == "roundtrip": theory -> presentation -> theory comparison
    out = internal_logic.roundtrip_theory(t, _export(args, t), cap=args.cap)
    verdict, line = _tally(out)
    rep = _report(
        "thf roundtrip", {"theory": text}, dict(bounds, cap=args.cap),
        [dict(verdict, failures=out.failures[:10])],
    )
    return rep, [line]


def _cmd_roundtrip(args):
    text = _read(args.theory)
    t = syntax.parse_theory(text)
    bounds = {"bound": args.bound, "formula_depth": args.formula_depth,
              "cutoff": args.cutoff, "gen_depth": args.gen_depth,
              "max_size": args.max_size, "cap": args.cap}
    verdicts = []
    lines = []
    pres = _export(args, t)
    if args.mode in ("theory", "both"):
        out = internal_logic.roundtrip_theory(t, pres, cap=args.cap)
        verdict, line = _tally(out)
        verdicts.append(dict(verdict, direction="theory",
                             failures=out.failures[:10]))
        lines.append(f"theory round trip {line}")
    if args.mode in ("functor", "both"):
        out = internal_logic.roundtrip_functor(pres)
        verdict = "Holds" if out["ok"] else "Fails"
        verdicts.append({"verdict": verdict, "direction": "functor",
                         "points": {str(n): list(v)
                                    for n, v in out["points"].items()},
                         "failures": out["failures"][:10],
                         "unrealized": out["unrealized"][:10]})
        for n, (realized, filters) in sorted(out["points"].items()):
            lines.append(f"arity {n}: {realized} realized types, "
                         f"{filters} prime filters")
        lines.append(f"functor round trip {verdict}")
    rep = _report("roundtrip", {"theory": text}, bounds, verdicts)
    return rep, lines


# ---------------------------------------------------------------------------
# argument wiring


def _nat(text):
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0: {text}")
    return int(text)


def _add_bounds(p, depth=False, model_size=False, bound=False,
                formula_depth=False, cutoff=False, export=False):
    if depth:
        p.add_argument("--depth", type=_nat, default=8,
                       help="proof search depth (default 8)")
    if model_size:
        p.add_argument("--model-size", type=_nat, default=3,
                       help="countermodel size bound (default 3)")
    if bound:
        p.add_argument("--bound", type=_nat, default=3,
                       help="model size bound (default 3)")
    if formula_depth:
        p.add_argument("--formula-depth", type=_nat, default=2,
                       help="formula depth bound (default 2)")
    if cutoff:
        p.add_argument("--cutoff", type=_nat, default=2,
                       help="arity cutoff (default 2)")
    if export:
        p.add_argument("--gen-depth", type=_nat, default=1,
                       help="generator formula depth for exports (default 1)")
        p.add_argument("--max-size", type=_nat, default=200,
                       help="largest exported lattice allowed (default 200)")
        p.add_argument("--generators",
                       help="JSON file of generator formulas per arity, "
                       "e.g. {\"1\": [\"R(x1)\"]}; overrides --gen-depth")


def build_parser():
    parser = _Parser(
        prog="cohlogic",
        description="Workbench for positive (coherent) logic: proofs, finite "
        "models, finite Stone duality, type-space approximations.",
    )
    parser.add_argument("--version", action="version",
                        version=json.dumps(SCHEMA_VERSIONS, sort_keys=True))
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable run report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and pretty-print a theory file")
    p.add_argument("theory")
    p.set_defaults(run=_cmd_parse)

    for name, fn in (("prove", _cmd_prove), ("refute", _cmd_refute)):
        p = sub.add_parser(name, help=f"{name} a sequent like '[x] P(x) |- R(x)'")
        p.add_argument("theory")
        p.add_argument("sequent")
        _add_bounds(p, depth=True, model_size=True)
        p.set_defaults(run=fn)

    p = sub.add_parser("eval", help="evaluate a formula in a finite model")
    p.add_argument("theory")
    p.add_argument("model", help="model JSON file")
    p.add_argument("formula")
    p.add_argument("--vars", default="", help="context variables, e.g. 'x,y'")
    p.add_argument("--args", default="", help="assignment, e.g. '0,1'")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("models", help="enumerate models up to isomorphism")
    p.add_argument("theory")
    p.add_argument("--limit", type=_nat, default=None,
                   help="print at most this many models")
    _add_bounds(p, bound=True)
    p.set_defaults(run=_cmd_models)

    p = sub.add_parser("typespace",
                       help="type-space approximation with stability flags")
    p.add_argument("theory")
    _add_bounds(p, bound=True, formula_depth=True, cutoff=True)
    p.set_defaults(run=_cmd_typespace)

    p = sub.add_parser("duality", help="finite Stone duality round trip")
    p.add_argument("--lattice", help="distributive lattice JSON file")
    p.add_argument("--poset", help="poset JSON file")
    p.add_argument("--roundtrip", action="store_true",
                   help="accepted for compatibility; always performed")
    p.set_defaults(run=_cmd_duality)

    p = sub.add_parser("check-bc",
                       help="Beck-Chevalley for a pushout square of "
                       "type-space restriction maps")
    p.add_argument("--theory", required=True)
    p.add_argument("--pushout", required=True,
                   help="span sizes like '1<-0->1'")
    p.add_argument("--left", help="left leg as 1-based values, e.g. '1,2'")
    p.add_argument("--right", help="right leg as 1-based values")
    _add_bounds(p, bound=True, formula_depth=True, cutoff=True)
    p.set_defaults(run=_cmd_check_bc)

    p = sub.add_parser("check-frobenius",
                       help="Frobenius for the preimage hom of a monotone map")
    p.add_argument("--map", required=True,
                   help="JSON file {source, target, values}")
    p.set_defaults(run=_cmd_check_frobenius)

    p = sub.add_parser("interpret", help="check an interpretation of theories")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--map", required=True,
                   help="JSON file {k, '=': formula, R: formula, ...} with "
                   "formulas over variables x1..xn")
    _add_bounds(p, depth=True, model_size=True)
    p.set_defaults(run=_cmd_interpret)

    p = sub.add_parser("thf", help="theory-of-the-type-space-functor pipeline")
    p.add_argument("action", choices=["build", "validate", "roundtrip"])
    p.add_argument("input", help="theory file (build/roundtrip) or "
                   "presentation JSON (validate)")
    p.add_argument("--out", help="write the built presentation JSON here")
    p.add_argument("--cap", type=_nat, default=6,
                   help="formulas per arity in round-trip comparisons")
    _add_bounds(p, bound=True, formula_depth=True, cutoff=True, export=True)
    p.set_defaults(run=_cmd_thf)

    p = sub.add_parser("roundtrip", help="theory and functor round trips")
    p.add_argument("--theory", required=True)
    p.add_argument("--mode", choices=["theory", "functor", "both"],
                   default="both")
    p.add_argument("--cap", type=_nat, default=6,
                   help="formulas per arity in round-trip comparisons")
    _add_bounds(p, bound=True, formula_depth=True, cutoff=True, export=True)
    p.set_defaults(run=_cmd_roundtrip)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.monotonic()
        rep, lines = args.run(args)
    except (CliError, syntax.SyntaxError_, json.JSONDecodeError, OSError,
            lattice.LatticeError, semantics.SemanticsError,
            typespace.TypeSpaceError, internal_logic.InternalLogicError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except semantics.ResourceGuard as e:
        print(f"unknown: {e}", file=sys.stderr)
        return EXIT["Unknown"]
    rep["wall_time_s"] = round(time.monotonic() - t0, 3)
    _emit(args, rep, lines)
    verdicts = {v["verdict"] for v in rep["verdicts"]}
    return next(EXIT[v] for v in ("Fails", "Unknown", "Holds") if v in verdicts)


if __name__ == "__main__":
    sys.exit(main())
