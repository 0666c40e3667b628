"""Single command-line entry point for every pipeline in the package.

Subcommands: parse, prove, refute, eval, models, typespace, duality,
check-bc, check-frobenius, interpret, thf, roundtrip.

Exit codes: 0 = holds/proved, 1 = fails/refuted, 2 = unknown (budget ran
out), 3 = input error.  ``--json`` emits a machine-readable run report;
identical invocations produce identical reports apart from the wall-time
field.  A report hashes every input text that decides it and lists the
bound flags its subcommand takes.
"""

import argparse
import hashlib
import json
import os
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

# the integer bound flags by destination: default and help text
BOUNDS = {
    "depth": (8, "proof search depth (default 8)"),
    "model_size": (3, "countermodel size bound (default 3)"),
    "bound": (3, "model size bound (default 3)"),
    "formula_depth": (2, "formula depth bound (default 2)"),
    "cutoff": (2, "arity cutoff (default 2)"),
    "gen_depth": (1, "generator formula depth for exports (default 1)"),
    "max_size": (internal_logic.MAX_EXPORT, "largest exported lattice allowed "
                 f"(default {internal_logic.MAX_EXPORT})"),
    "cap": (6, "formulas per arity in round-trip comparisons"),
}
PROOF = ("depth", "model_size")
SPACE = ("bound", "formula_depth", "cutoff")
EXPORT = (*SPACE, "gen_depth", "max_size")


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


def _report(args, fields):
    """The run report of a subcommand that returned fields, its verdicts
    and any further report keys."""
    command = f"{args.command} {args.action}" if "action" in args else args.command
    rep = {
        "schema": SCHEMA_VERSIONS["run-report"],
        "command": command,
        "inputs": {k: _sha256(v) for k, v in args.inputs.items()},
        "bounds": {b: getattr(args, b) for b in args.bounds},
    }
    rep.update(_jsonable(fields))
    return rep


def _input(args, key, text):
    """text, recorded as the report's input key, which the report hashes."""
    args.inputs[key] = text
    return text


def _read(args, key, path=None):
    """The text of the file at path, by default the value of the argument
    key, recorded as the report's input key."""
    path = getattr(args, key) if path is None else path
    p = Path(path)
    if not p.is_file():
        raise CliError(f"no such file: {path}")
    try:
        return _input(args, key, p.read_text())
    except UnicodeDecodeError as e:
        raise CliError(f"{path} is not {e.encoding} text: {e.reason}") from None


def _theory(args, key="theory", path=None):
    return syntax.parse_theory(_read(args, key, path))


def _load(args, key, what, path=None):
    """The JSON object in the file of input key (see ``_read``)."""
    return _object(json.loads(_read(args, key, path)), what)


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
# subcommands: each returns its report fields and its text lines


def _cmd_parse(args):
    t = _theory(args)
    return {"verdicts": [{"verdict": "Holds"}], "name": t.name,
            "relations": [list(r) for r in t.signature.relations],
            "axioms": len(t.axioms)}, [syntax.print_theory(t)]


def _cmd_prove(args):
    t = _theory(args)
    s = syntax.parse_sequent(_input(args, "sequent", args.sequent), t.signature)
    v = calculus.entails(t, s, _budgets(args))
    verdict = {"verdict": _verdict_name(v), "sequent": s}
    lines = [f"{_verdict_name(v)}: {syntax.print_sequent(s)}"]
    if isinstance(v, calculus.Proved):
        verdict["derivation"] = v.derivation  # entails checked it
        verdict["derivation_checked"] = True
        lines.append("derivation checked: True")
    if isinstance(v, calculus.Refuted):
        verdict["countermodel"] = v.model
        verdict["assignment"] = list(v.assignment)
        lines.append(f"countermodel of size {v.model.size} at {v.assignment}")
    if isinstance(v, calculus.Unknown):
        verdict["reason"] = v.reason
        lines.append(f"reason: {v.reason}")
    return {"verdicts": [verdict]}, lines


def _cmd_eval(args):
    t = _theory(args)
    m = semantics.model_from_json(_load(args, "model", "a model"))
    for sym, ar in t.signature.relations:
        if any(len(row) != ar for row in m.tables.get(sym, ())):
            raise CliError(f"a row of {sym} does not have its arity {ar}")
    names = [v for v in _input(args, "vars", args.vars).split(",") if v]
    phi = syntax.parse_formula(_input(args, "formula", args.formula), names,
                               t.signature)
    try:
        a = tuple(int(v) for v in _input(args, "args", args.args).split(",") if v)
    except ValueError:
        raise CliError("--args must be comma-separated integers") from None
    if len(a) != len(names):
        raise CliError("--args must assign every context variable")
    if any(not 0 <= v < m.size for v in a):
        raise CliError("assignment out of carrier range")
    value = semantics.eval_formula(m, phi, a)
    return ({"verdicts": [{"verdict": "Holds" if value else "Fails", "value": value}]},
            [str(value).lower()])


def _cmd_models(args):
    ms = semantics.enumerate_models(_theory(args), args.bound)
    shown = ms if args.limit is None else ms[: args.limit]
    lines = [f"{len(ms)} models up to size {args.bound} (up to isomorphism)"]
    for m in shown:
        lines.append(json.dumps(semantics.model_to_json(m)))
    return {"verdicts": [{"verdict": "Holds", "count": len(ms)}],
            "models": shown}, lines


def _typespace(args, t, check_stability=True):
    return typespace.compute_typespace(t, N=args.cutoff, B=args.bound,
                                       d=args.formula_depth,
                                       check_stability=check_stability)


def _cmd_typespace(args):
    a = _typespace(args, _theory(args))
    points = {n: len(a.points[n]) for n in range(args.cutoff + 1)}
    lines = [f"arity {n}: {points[n]} points"
             f" ({'stable' if a.stable_arities[n] else 'not stable'})"
             for n in range(args.cutoff + 1)]
    lines.append(f"stable at every arity: {a.stable}")
    return {"verdicts": [{"verdict": "Holds", "points": points}],
            "stable": a.stable, "stable_arities": list(a.stable_arities)}, lines


def _cmd_duality(args):
    if (args.lattice is None) == (args.poset is None):
        raise CliError("give exactly one of --lattice or --poset")
    if args.lattice is not None:
        kind, from_json, roundtrip = ("lattice", lattice.lattice_from_json,
                                      lattice.duality_roundtrip_lattice)
    else:
        kind, from_json, roundtrip = ("poset", lattice.poset_from_json,
                                      lattice.duality_roundtrip_poset)
    x = from_json(_load(args, kind, f"a {kind}"))
    ok = roundtrip(x)
    return ({"verdicts": [{"verdict": "Holds" if ok else "Fails", "kind": kind,
                           "size": x.n}]},
            [f"{kind} round trip: {'isomorphism' if ok else 'FAILED'}"])


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
    t = _theory(args)
    dn, bn, cn = _parse_span(args.pushout)
    if max(dn, bn, cn) > args.cutoff:
        raise CliError(f"span {args.pushout!r} has a set of {max(dn, bn, cn)} "
                       f"elements, beyond cutoff {args.cutoff}")
    h = _parse_map(args.left, dn, bn)
    f = _parse_map(args.right, dn, cn)
    an, u, v = internal_logic.pushout_of_span(h, f, dn, bn, cn)
    if an > args.cutoff:
        raise CliError(f"pushout has {an} elements, beyond cutoff {args.cutoff}")
    a = _typespace(args, t)
    out = typespace.check_functor_bc(a, h, f, dn, bn, cn, an, u, v)
    lines = [
        f"beck-chevalley: {out['bc']}",
        f"universal_map_surjective: "
        f"{str(out['universal_map_surjective']).lower()}",
    ]
    if out["missed_pair"] is not None:
        lines.append(f"point pair missed by the universal map: {out['missed_pair']}")
    return {"verdicts": [dict(out, verdict="Holds" if out["bc"] else "Fails")],
            "pushout": {"span": [dn, bn, cn], "apex": an,
                        "left": list(u), "right": list(v)},
            "stable_arities": list(a.stable_arities)}, lines


def _cmd_check_frobenius(args):
    obj = _load(args, "map", "a map")
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
    return ({"verdicts": [{"verdict": "Holds" if frob else "Fails",
                           "frobenius": frob, "witness": witness,
                           "open_map": open_, "agreement": frob == open_}]},
            [f"frobenius: {frob}", f"open map: {open_}"])


def _cmd_interpret(args):
    src = _theory(args, "source")
    tgt = _theory(args, "target")
    obj = _load(args, "map", "an interpretation")
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
    return {"verdicts": [dict(verdict, first_failure=out.first_failure)],
            "strong": g.strong}, [line]


def _generators(args, t):
    if not args.generators:
        return None
    gens = {}
    for n_text, formulas in _load(args, "generators", "the generators").items():
        if not n_text.isdecimal():
            raise CliError(f"generator key {n_text!r} is not an arity")
        n = int(n_text)
        if n > args.cutoff:
            raise CliError(f"generator arity {n} is beyond cutoff {args.cutoff}")
        names = [f"x{i}" for i in range(1, n + 1)]
        if not isinstance(formulas, list):
            raise CliError(f"the generators of arity {n} must be a JSON list")
        gens[n] = [syntax.parse_formula(
            _formula_text(f, "a generator"), names, t.signature) for f in formulas]
    return gens


def _export(args, t):
    gens = _generators(args, t)
    return internal_logic.export_presentation(
        _typespace(args, t, check_stability=False), gen_depth=args.gen_depth,
        max_size=args.max_size, generators=gens,
    )


def _cmd_thf_validate(args):
    out = internal_logic.validate_presentation(
        internal_logic.presentation_from_json(
            _load(args, "presentation", "a presentation", args.input)))
    return ({"verdicts": [{"verdict": out.verdict,
                           "failures": out.failures[:10]}]},
            [f"presentation valid: {out.ok}"])


def _cmd_thf_build(args):
    t = _theory(args, path=args.input)
    pres = _export(args, t)
    th = internal_logic.th_of(pres)
    obj = internal_logic.presentation_to_json(pres)
    if args.out:
        Path(args.out).write_text(json.dumps(obj, indent=2, sort_keys=True))
    sizes = {n: pres.lattices[n].n for n in range(args.cutoff + 1)}
    fields = {"verdicts": [{"verdict": "Holds", "lattice_sizes": sizes,
                            "axioms": len(th.axioms)}]}
    lines = [f"arity {n}: lattice of {sizes[n]} opens" for n in sizes]
    lines.append(f"theory of the presentation: {len(th.axioms)} axioms")
    if args.out:
        lines.append(f"wrote {args.out}")
    else:
        fields["presentation"] = obj
    return fields, lines


def _cmd_roundtrip(args):
    t = _theory(args)
    verdicts = []
    lines = []
    pres = _export(args, t)
    if args.mode in ("theory", "both"):
        out = internal_logic.roundtrip_theory(t, pres, cap=args.cap)
        verdict, line = _tally(out)
        verdicts.append(dict(verdict, direction="theory",
                             failures=out.failures[:10]))
        lines.append(f"theory round trip {line}")
        unknowns = [{"theory": name, "sequent": syntax.Sequent(n, phi, psi),
                     "reason": v.reason}
                    for _, name, n, phi, psi, v in out.unknowns[:10]]
        if unknowns:  # only then: a decided round trip reports as before
            verdicts[-1]["unknowns"] = unknowns
            lines += [f"unknown in {u['theory']}: "
                      f"{syntax.print_sequent(u['sequent'])} ({u['reason']})"
                      for u in unknowns]
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
    return {"verdicts": verdicts}, lines


# ---------------------------------------------------------------------------
# argument wiring


def _nat(text):
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0: {text}")
    return int(text)


def _add_bounds(p, *names):
    """The bound flags of names on parser p, which its report lists; the
    generators file comes with the generator depth it overrides."""
    for name in names:
        default, text = BOUNDS[name]
        p.add_argument("--" + name.replace("_", "-"), type=_nat,
                       default=default, help=text)
    if "gen_depth" in names:
        p.add_argument("--generators",
                       help="JSON file of generator formulas per arity, "
                       "e.g. {\"1\": [\"R(x1)\"]}; overrides --gen-depth")
    p.set_defaults(bounds=names)


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
    _add_bounds(p)
    p.set_defaults(run=_cmd_parse)

    for name in ("prove", "refute"):
        p = sub.add_parser(name, help=f"{name} a sequent like '[x] P(x) |- R(x)'")
        p.add_argument("theory")
        p.add_argument("sequent")
        _add_bounds(p, *PROOF)
        p.set_defaults(run=_cmd_prove)

    p = sub.add_parser("eval", help="evaluate a formula in a finite model")
    p.add_argument("theory")
    p.add_argument("model", help="model JSON file")
    p.add_argument("formula")
    p.add_argument("--vars", default="", help="context variables, e.g. 'x,y'")
    p.add_argument("--args", default="", help="assignment, e.g. '0,1'")
    _add_bounds(p)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("models", help="enumerate models up to isomorphism")
    p.add_argument("theory")
    p.add_argument("--limit", type=_nat, default=None,
                   help="print at most this many models")
    _add_bounds(p, "bound")
    p.set_defaults(run=_cmd_models)

    p = sub.add_parser("typespace",
                       help="type-space approximation with stability flags")
    p.add_argument("theory")
    _add_bounds(p, *SPACE)
    p.set_defaults(run=_cmd_typespace)

    p = sub.add_parser("duality", help="finite Stone duality round trip")
    p.add_argument("--lattice", help="distributive lattice JSON file")
    p.add_argument("--poset", help="poset JSON file")
    p.add_argument("--roundtrip", action="store_true",
                   help="accepted for compatibility; always performed")
    _add_bounds(p)
    p.set_defaults(run=_cmd_duality)

    p = sub.add_parser("check-bc",
                       help="Beck-Chevalley for a pushout square of "
                       "type-space restriction maps")
    p.add_argument("--theory", required=True)
    p.add_argument("--pushout", required=True,
                   help="span sizes like '1<-0->1'")
    p.add_argument("--left", help="left leg as 1-based values, e.g. '1,2'")
    p.add_argument("--right", help="right leg as 1-based values")
    _add_bounds(p, *SPACE)
    p.set_defaults(run=_cmd_check_bc)

    p = sub.add_parser("check-frobenius",
                       help="Frobenius for the preimage hom of a monotone map")
    p.add_argument("--map", required=True,
                   help="JSON file {source, target, values}")
    _add_bounds(p)
    p.set_defaults(run=_cmd_check_frobenius)

    p = sub.add_parser("interpret", help="check an interpretation of theories")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--map", required=True,
                   help="JSON file {k, '=': formula, R: formula, ...} with "
                   "formulas over variables x1..xn")
    _add_bounds(p, *PROOF)
    p.set_defaults(run=_cmd_interpret)

    p = sub.add_parser("thf", help="theory-of-the-type-space-functor pipeline")
    thf = p.add_subparsers(dest="action", required=True)
    p = thf.add_parser("build", help="export a presentation of a theory's "
                       "type-space functor")
    p.add_argument("input", help="theory file")
    p.add_argument("--out", help="write the built presentation JSON here")
    _add_bounds(p, *EXPORT)
    p.set_defaults(run=_cmd_thf_build)

    p = thf.add_parser("validate", help="check the laws of a presentation")
    p.add_argument("input", help="presentation JSON file")
    _add_bounds(p)  # a presentation is checked as it stands
    p.set_defaults(run=_cmd_thf_validate)

    p = sub.add_parser("roundtrip", help="theory and functor round trips")
    p.add_argument("--theory", required=True)
    p.add_argument("--mode", choices=["theory", "functor", "both"],
                   default="both")
    _add_bounds(p, "cap", *EXPORT)
    p.set_defaults(run=_cmd_roundtrip)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.inputs = {}
        t0 = time.monotonic()
        fields, lines = args.run(args)
    except (CliError, syntax.SyntaxError_, json.JSONDecodeError, OSError,
            lattice.LatticeError, semantics.SemanticsError,
            typespace.TypeSpaceError, internal_logic.InternalLogicError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except semantics.ResourceGuard as e:  # reported as its one verdict
        print(f"unknown: {e}", file=sys.stderr)
        fields, lines = {"verdicts": [{"verdict": "Unknown", "reason": str(e)}]}, []
    rep = _report(args, fields)
    rep["wall_time_s"] = round(time.monotonic() - t0, 3)
    out = [json.dumps(rep, indent=2, sort_keys=True)] if args.json else lines
    try:
        sys.stdout.writelines(f"{line}\n" for line in out)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: the rest goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    verdicts = {v["verdict"] for v in rep["verdicts"]}
    return next(EXIT[v] for v in ("Fails", "Unknown", "Holds") if v in verdicts)


if __name__ == "__main__":
    sys.exit(main())
