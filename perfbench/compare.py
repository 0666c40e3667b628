"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``perfbench/run.py --record FILE`` appended.  For
every workload and metric the report gives each side's median and
quartiles over its runs, the pairs the change won (runs of the two sides
with the same seed form a pair; ties count for neither side) and a verdict:

* ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the distance between the parent's quartiles;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json (per-layer metrics have no bound:
  the parent wins nine tenths of the pairs by more than its quartile
  distance);
* ``unresolved``: the parent's own quartile distance is wider than the
  bound, and not every run of the change beats every run of the parent;
* ``same``: none of these.

It also reports each side's failed operations per workload; where the
change fails a larger share of them, no gain on that workload counts.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): [record, ...]} from a JSON-lines file."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, lower_better, bound):
    """The verdict for one metric; parent and change are lists of values,
    pairs a list of (parent value, change value)."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = (lambda p, c: c < p) if lower_better else (lambda p, c: c > p)
    wins = sum(gain(p, c) for p, c in pairs)
    losses = sum(gain(c, p) for p, c in pairs)
    spread = p3 - p1
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > spread:
        return "better", wins
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and abs(cm - pm) > spread:
            return "worse", wins
        return "same", wins
    if pm and spread / abs(pm) > bound:
        if all(gain(p, c) for p in parent for c in change):
            return "better", wins
        return "unresolved", wins
    worse_by = (cm - pm) if lower_better else (pm - cm)
    if worse_by > bound * abs(pm):
        return "worse", wins
    return "same", wins


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 3
    bench = json.loads(BENCHMARK.read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':15} {'metric':38} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'won':>7}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        prs, chs = parent[key], change[key]
        share = {}
        for side, recs in (("parent", prs), ("change", chs)):
            att = sum(r["result"]["attempted"] for r in recs)
            fail = sum(r["result"]["failed"] for r in recs)
            bad = sum(not r["result"]["correct"] for r in recs)
            share[side] = fail / att
            print(f"{workload:15} {side}: {fail}/{att} operations failed, "
                  f"{bad} of {len(recs)} runs incorrect")
        # a gain does not count when more operations fail than at the parent
        more_failures = share["change"] > share["parent"]
        by_seed = {r["seed"]: r for r in prs}
        paired = [(by_seed[r["seed"]], r) for r in chs if r["seed"] in by_seed]
        names = [n for n in prs[0]["result"]["metrics"] if n in spec]
        for name in names:
            pv = [r["result"]["metrics"][name]["value"] for r in prs]
            cv = [r["result"]["metrics"][name]["value"] for r in chs]
            pairs = [(p["result"]["metrics"][name]["value"],
                      c["result"]["metrics"][name]["value"]) for p, c in paired]
            m = spec[name]
            v, wins = verdict(pv, cv, pairs, m["better"] == "lower",
                              m.get("bound"))
            if v == "better" and more_failures:
                v = "better, not counted: more operations fail"
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{workload:15} {name:38} "
                  f"{pq[1]:12.4g} [{pq[0]:8.4g}, {pq[2]:8.4g}] "
                  f"{cq[1]:12.4g} [{cq[0]:8.4g}, {cq[2]:8.4g}] "
                  f"{wins:3}/{len(pairs):<3}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
