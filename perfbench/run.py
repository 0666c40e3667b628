"""cohlogic benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli-typespace, cli-roundtrip, deduce-session, iso-sweep, or
``all``, which runs each of them untraced and traced and prints every
metric.  With ``--trace 0`` the run makes whole passes over the workload's
operations until S seconds have gone by (at least one) and reports the
end-to-end metrics; with ``--trace 1`` it makes one untraced and one traced
pass and reports the per-layer metrics.  Every operation's output is
checked.  The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record FILE`` also appends
the result, with the workload, seed and trace flag, to FILE as a JSON line,
the input of ``perfbench/compare.py``.

Nothing needs building: the program runs from ``src/`` of the checkout.
The benchmark writes only under ``perfbench/out/``.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from session import PEQ, PQR  # noqa: E402
from spans import layer_metrics  # noqa: E402

WORKLOADS = ("cli-typespace", "cli-roundtrip", "deduce-session", "iso-sweep")
SETUP_REPEATS = 5  # fresh interpreters timed per run for setup_s
CHILD_TIMEOUT_S = 170  # a hung operation ends the run instead of stalling it
DEDUCE_SETUP_ONLY = 2  # extra set-up-only sessions per deduce-session run

FIXTURES = {
    "pqr.thy": PQR,
    "peq.thy": PEQ,
    "three.thy": "theory three\nsig { E/2, F/2, G/2 }\n",
    "gens.json": '{"1": ["R(x1)"]}\n',
}
DEEP = "[x] " + "(" * 3000 + "P(x)" + ")" * 3000 + " |- R(x)"
P1, Q1, R1 = (("atom", s, (1,)) for s in "PQR")
# operations that fail at this commit because of known faults; they are
# counted as failed and do not make the run incorrect
CONTRACT_CASES = ("models three.thy --bound 3", "prove with 3000 nested parentheses")


class Run:
    """Settings and scratch space of one benchmark run."""

    def __init__(self, seed):
        self.seed = seed
        self.work = OUT / f"work-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        PYTHONHASHSEED=str(seed % 2**32))

    def python(self, args, **kw):
        """Run a fresh interpreter to completion; (seconds, process)."""
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], env=self.env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, **kw)
        return time.perf_counter() - t, proc

    def write_fixtures(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for name, text in FIXTURES.items():
            (self.work / name).write_text(text)

    def interpreter_setup(self, write_fixtures):
        """Median over fresh interpreters of the time to (write the
        fixtures and) start Python and import cohlogic."""
        times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            if write_fixtures:
                self.write_fixtures()
            _, proc = self.python(["-c", "import cohlogic.cli"])
            if proc.returncode != 0:
                raise RuntimeError(f"cannot import cohlogic:\n{proc.stderr}")
            times.append(time.perf_counter() - t)
        return statistics.median(times)


# ---------------------------------------------------------------------------
# CLI workloads: one fresh interpreter per operation


def cli_ops(run, workload):
    """Groups of (name, argv, expected exit code, check of stdout); the
    seed shuffles the groups, and operations in a group keep their order."""
    w = run.work
    pqr, peq = str(w / "pqr.thy"), str(w / "peq.thy")

    def report(out):
        return json.loads(out)["verdicts"]

    def check_bc(out):
        rep = json.loads(out)
        v = rep["verdicts"][0]
        if not (v["bc"] is True and v["universal_map_surjective"] is False):
            return f"bc {v['bc']}, surjective {v['universal_map_surjective']}"
        pair = v["missed_pair"]
        if not (isinstance(pair, list) and len(pair) == 2):
            return f"missed pair {pair!r}"
        if rep["stable_arities"] != [True, True, False]:
            return f"stable_arities {rep['stable_arities']}"
        return None

    def check_typespace(out):
        points = report(out)[0]["points"]
        if points != {"0": 3, "1": 3, "2": 9}:
            return f"points {points}, expected 3, 3, 9"
        return None

    def check_prove(out):
        v = report(out)[0]
        if v["verdict"] != "Holds" or v.get("derivation_checked") is not True:
            return f"verdict {v['verdict']}, checked {v.get('derivation_checked')}"
        models = [m for m in checks.all_structures([("P", 1), ("Q", 1), ("R", 1)], 3)
                  if checks.satisfies(*m, checks.PQR_AXIOMS)]
        if checks.find_countermodel(models, 1, ("and", (P1, Q1)), R1):
            return "proved, but a model of size <= 3 refutes it"
        return None

    def check_refute(out):
        v = report(out)[0]
        if v["verdict"] != "Fails":
            return f"verdict {v['verdict']}"
        m = v["countermodel"]
        tables = {s: {tuple(r) for r in rows} for s, rows in m["relations"].items()}
        return checks.countermodel_error(m["carrier"], tables,
                                         checks.PQR_AXIOMS, 1,
                                         P1, R1, tuple(v["assignment"]))

    def check_roundtrip(points_expected):
        def check(out):
            theory, functor = report(out)
            if (theory["verdict"], functor["verdict"]) != ("Holds", "Holds"):
                return f"verdicts {theory['verdict']}, {functor['verdict']}"
            decided = (theory["proved"], theory["refuted"], theory["unknown"])
            # 3 arities x 6*5 ordered pairs x (rebuilt theory, original)
            if decided != (180, 0, 0):
                return f"theory direction proved/refuted/unknown {decided}"
            points = {n: tuple(p) for n, p in functor["points"].items()}
            if any(real != filters for real, filters in points.values()):
                return f"realized types differ from prime filters: {points}"
            if points_expected and points != points_expected:
                return f"points {points}"
            return None
        return check

    def check_built(out):
        if report(out)[0]["verdict"] != "Holds":
            return "thf build does not hold"
        obj = json.loads((w / "pres.json").read_text())
        if obj.get("cutoff") != 2:
            return "the written presentation is malformed"
        return None

    def check_valid(out):
        v = report(out)[0]
        return None if v["verdict"] == "Holds" else f"invalid: {v['failures']}"

    if workload == "cli-typespace":
        groups = [
            [("check-bc pqr 1<-0->1",
              ["--json", "check-bc", "--theory", pqr, "--pushout", "1<-0->1"],
              0, check_bc)],
            [("typespace peq", ["--json", "typespace", peq], 0, check_typespace)],
            [("prove [x] P(x) & Q(x) |- R(x)",
              ["--json", "prove", pqr, "[x] P(x) & Q(x) |- R(x)", "--depth", "8"],
              0, check_prove)],
            [("refute [x] P(x) |- R(x)",
              ["--json", "refute", pqr, "[x] P(x) |- R(x)"], 1, check_refute)],
            # exit 2: a budget ran out (here the model enumeration guard)
            [(CONTRACT_CASES[0], ["models", str(w / "three.thy"), "--bound", "3"],
              2, None)],
            # exit 3: input error
            [(CONTRACT_CASES[1], ["prove", pqr, DEEP], 3, None)],
        ]
    else:
        gens = str(w / "gens.json")
        groups = [
            [("roundtrip pqr", ["--json", "roundtrip", "--theory", pqr, "--mode",
                                "both", "--generators", gens, "--cap", "6"],
              0, check_roundtrip(None))],
            [("roundtrip peq", ["--json", "roundtrip", "--theory", peq, "--mode",
                                "both", "--cap", "6"],
              0, check_roundtrip({"0": (3, 3), "1": (3, 3), "2": (9, 9)}))],
            [("thf build peq", ["--json", "thf", "build", peq, "--out",
                                str(w / "pres.json")], 0, check_built),
             ("thf validate", ["--json", "thf", "validate", str(w / "pres.json")],
              0, check_valid)],
        ]
    random.Random(run.seed).shuffle(groups)
    return [op for g in groups for op in g]


def cli_pass(run, ops, trace_dir=None):
    times, errors, traces = [], [], []
    for i, (name, argv, want, check) in enumerate(ops):
        if trace_dir is None:
            args = ["-m", "cohlogic.cli", *argv]
        else:
            path = trace_dir / f"trace-{i}.json"
            args = [str(HERE / "cli_shim.py"), str(path), *argv]
        dt, proc = run.python(args, cwd=run.work)
        times.append(dt)
        if trace_dir is not None and path.is_file():
            traces.append(json.loads(path.read_text()))
        if "Traceback (most recent call last)" in proc.stderr:
            err = f"traceback: {proc.stderr.strip().splitlines()[-1][:200]}"
        elif proc.returncode != want:
            err = f"exit {proc.returncode}, expected {want}"
        else:
            try:
                err = check(proc.stdout) if check else None
            except (ValueError, KeyError, TypeError, IndexError, OSError) as e:
                err = f"unreadable output: {type(e).__name__}: {e}"
        if err:
            errors.append([name, err])
    return {"run_s": sum(times), "slowest_s": max(times), "attempted": len(ops),
            "failed": len(errors), "errors": errors, "traces": traces}


def cli_workload(run, workload, seconds, trace):
    if trace:
        run.write_fixtures()
        ops = cli_ops(run, workload)
        base = cli_pass(run, ops)
        traced = cli_pass(run, ops, trace_dir=run.work)
        return [base, traced], per_layer(base, traced, traced["traces"])
    setup_s = run.interpreter_setup(write_fixtures=True)
    ops = cli_ops(run, workload)
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(cli_pass(run, ops))
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return passes, end_to_end(setup_s, passes, rss)


# ---------------------------------------------------------------------------
# in-process workloads: one warm interpreter (perfbench/session.py)


def session(run, workload, seconds, trace_file="-", setup_only=False):
    args = [str(HERE / "session.py"), workload, str(run.seed), str(seconds),
            str(trace_file)]
    if setup_only:
        args.append("--setup-only")
    _, proc = run.python(args, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} session failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def session_workload(run, workload, seconds, trace):
    if trace:
        run.work.mkdir(parents=True, exist_ok=True)
        path = run.work / "trace.json"
        base = session(run, workload, 0)["passes"][0]
        traced = session(run, workload, 0, path)["passes"][0]
        spans = json.loads(path.read_text())
        return [base, traced], per_layer(base, traced, [spans])
    if workload == "deduce-session":
        setups = [session(run, workload, 0, setup_only=True)["setup_s"]
                  for _ in range(DEDUCE_SETUP_ONLY)]
    else:
        setups = [run.interpreter_setup(write_fixtures=False)]
    res = session(run, workload, seconds)
    if workload == "deduce-session":
        setups.append(res["setup_s"])
    return res["passes"], end_to_end(statistics.median(setups), res["passes"],
                                     res["rss_mb"])


# ---------------------------------------------------------------------------


def end_to_end(setup_s, passes, rss_mb):
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "slowest_verdict_s": (statistics.median(p["slowest_s"] for p in passes),
                              "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(base, traced, traces):
    """Per-layer metrics of a traced pass, and the tracing overhead: the
    traced pass's run_s minus the untraced one's."""
    metrics = layer_metrics(traces)
    metrics["trace.overhead_s"] = (traced["run_s"] - base["run_s"], "s")
    return metrics


def run_workload(workload, seed, seconds, trace):
    run = Run(seed)
    try:
        if workload.startswith("cli-"):
            passes, metrics = cli_workload(run, workload, seconds, trace)
        else:
            passes, metrics = session_workload(run, workload, seconds, trace)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    errors = [e for p in passes for e in p["errors"]]
    unexpected = [e for e in errors if e[0] not in CONTRACT_CASES]
    problems = checks.self_test()
    for name, msg in errors:
        kind = "known fault" if name in CONTRACT_CASES else "FAILED"
        print(f"{kind}: {name}: {msg}", file=sys.stderr)
    for p in problems:
        print("checker self-test: " + p, file=sys.stderr)
    return {
        "correct": not problems and not unexpected,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the result to this JSON-lines file")
    args = ap.parse_args(argv)
    if not (SRC / "cohlogic" / "cli.py").is_file():
        print(f"error: no cohlogic sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = {(w, t): run_workload(w, args.seed, args.seconds, t)
                   for w in WORKLOADS for t in (0, 1)}
        for (w, t), res in results.items():
            for name, m in res["metrics"].items():
                print(f"{w:15} {name:38} {m['value']:14.4f} {m['unit']}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for (w, _), r in results.items()
                        for name, m in r["metrics"].items()},
        }
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        for name, m in result["metrics"].items():
            print(f"{name:38} {m['value']:14.4f} {m['unit']}")
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
