"""Write the benchmark record of a change as one JSON file.

    python3 tools/bench_record.py PARENT.jsonl CHANGE.jsonl --out BENCH_<n>.json
        [--commits PARENT CHANGE] [--wall NAME PARENT_S CHANGE_S]...
        [--src PARENT_ROOT CHANGE_ROOT]

PARENT.jsonl and CHANGE.jsonl hold the lines that ``perfbench/run.py
--record`` appended, run on the two sides.  They are read and judged
through the functions of ``perfbench/compare.py``, so each workload and
metric gets the reading ``compare.py`` prints: each side's median and
quartiles, the pairs the change won and the verdict.  The file also records
the host (platform, cores, Python), the commits compared, any wall times
given with ``--wall`` (such as the Tier-1 suite or ``reproduce.sh``, one run
a side) and, with ``--src``, the ``tools/src_lines.py`` totals of each
side's ``src/cohlogic``.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import compare  # noqa: E402
import src_lines  # noqa: E402


def readings(parent, change):
    """{workload: {"runs": .., "failed_share": .., "metrics": {name:
    reading}}} for the (workload, trace) keys of both record sets, judged as
    ``compare.main`` judges them; a traced workload's name ends in
    " (traced)"."""
    bench = json.loads(compare.BENCHMARK.read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    out = {}
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        sides = {"parent": parent[key], "change": change[key]}
        share = {side: sum(r["result"]["failed"] for r in recs)
                 / sum(r["result"]["attempted"] for r in recs)
                 for side, recs in sides.items()}
        by_seed = {r["seed"]: r for r in sides["parent"]}
        paired = [(by_seed[r["seed"]], r) for r in sides["change"]
                  if r["seed"] in by_seed]
        metrics = {}
        for name in sides["parent"][0]["result"]["metrics"]:
            if name not in spec:
                continue
            values = {side: [r["result"]["metrics"][name]["value"] for r in recs]
                      for side, recs in sides.items()}
            pairs = [(p["result"]["metrics"][name]["value"],
                      c["result"]["metrics"][name]["value"]) for p, c in paired]
            m = spec[name]
            verdict, won = compare.verdict(values["parent"], values["change"],
                                           pairs, m["better"] == "lower",
                                           m.get("bound"))
            if verdict == "better" and share["change"] > share["parent"]:
                verdict = "better, not counted: more operations fail"
            reading = {"unit": m["unit"], "better": m["better"],
                       "bound": m.get("bound")}
            for side, vals in values.items():
                q1, median, q3 = compare.quartiles(vals)
                reading[side] = {"median": median, "q1": q1, "q3": q3}
            reading.update(pairs=len(pairs), won=won, verdict=verdict)
            metrics[name] = reading
        out[workload if trace == 0 else f"{workload} (traced)"] = {
            "runs": {side: len(recs) for side, recs in sides.items()},
            "failed_share": share,
            "metrics": metrics,
        }
    return out


def line_totals(root):
    """The ``tools/src_lines.py`` totals of root's ``src/cohlogic``."""
    total, counts = 0, dict.fromkeys(src_lines.KINDS, 0)
    for path in sorted((Path(root) / "src" / "cohlogic").glob("*.py")):
        n, kinds = src_lines.split(path.read_text())
        total += n
        for kind, count in kinds.items():
            counts[kind] += count
    return {"wc": total, **counts}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the parent's perfbench/run.py --record file")
    ap.add_argument("change", help="the change's perfbench/run.py --record file")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--commits", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--wall", nargs=3, action="append", default=[],
                    metavar=("NAME", "PARENT_S", "CHANGE_S"))
    ap.add_argument("--src", nargs=2, metavar=("PARENT_ROOT", "CHANGE_ROOT"))
    args = ap.parse_args(argv)
    record = {
        "host": {"platform": platform.platform(), "cores": os.cpu_count(),
                 "python": platform.python_version()},
        "commits": dict(zip(("parent", "change"), args.commits or (None, None))),
        "workloads": readings(compare.load(args.parent), compare.load(args.change)),
        "wall_s": {name: {"parent": float(p), "change": float(c)}
                   for name, p, c in args.wall},
    }
    if args.src:
        record["src_lines"] = {side: line_totals(root)
                               for side, root in zip(("parent", "change"), args.src)}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
