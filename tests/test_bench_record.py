"""Self-test of ``tools/bench_record.py`` on canned ``perfbench/run.py
--record`` lines: ten paired seeds a side, with a metric that gains, one
that stays, one past its bound, and a workload whose change fails more
operations, so that its gain does not count."""

import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import bench_record  # noqa: E402


def record(workload, seed, failed, run_s, rss_mb):
    metrics = {"setup_s": 0.2, "run_s": run_s, "slowest_verdict_s": 0.03,
               "peak_rss_mb": rss_mb}
    return {"workload": workload, "seed": seed, "trace": 0,
            "result": {"correct": True, "attempted": 100, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "?"}
                                   for k, v in metrics.items()}}}


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_bench_record_on_canned_runs(tmp_path):
    seeds = range(1, 11)
    parent = write(tmp_path / "parent.jsonl", [
        *(record("deduce-session", s, 0, 0.100 + s / 1000, 32.0) for s in seeds),
        *(record("iso-sweep", s, 0, 0.200 + s / 1000, 20.0) for s in seeds),
        record("cli-typespace", 1, 0, 1.0, 20.0),  # no change runs: left out
    ])
    change = write(tmp_path / "change.jsonl", [
        *(record("deduce-session", s, 0, 0.060 + s / 1000, 40.0) for s in seeds),
        *(record("iso-sweep", s, 5, 0.100 + s / 1000, 20.0) for s in seeds),
    ])
    out = tmp_path / "BENCH.json"
    assert bench_record.main([parent, change, "--out", str(out),
                              "--commits", "abc", "def",
                              "--wall", "tier1", "150.5", "140",
                              "--src", str(TOOLS.parent), str(TOOLS.parent)]) == 0
    rec = json.loads(out.read_text())
    assert rec["commits"] == {"parent": "abc", "change": "def"}
    assert rec["wall_s"] == {"tier1": {"parent": 150.5, "change": 140.0}}
    assert rec["host"]["cores"] >= 1 and rec["host"]["python"]
    lines = rec["src_lines"]
    assert lines["parent"] == lines["change"] and lines["parent"]["code"] > 0
    assert set(rec["workloads"]) == {"deduce-session", "iso-sweep"}
    deduce = rec["workloads"]["deduce-session"]
    assert deduce["runs"] == {"parent": 10, "change": 10}
    run_s = deduce["metrics"]["run_s"]
    assert abs(run_s["parent"]["median"] - 0.1055) < 1e-12
    assert abs(run_s["change"]["median"] - 0.0655) < 1e-12
    assert run_s["parent"]["q1"] < 0.1055 < run_s["parent"]["q3"]
    assert (run_s["pairs"], run_s["won"], run_s["verdict"]) == (10, 10, "better")
    setup = deduce["metrics"]["setup_s"]
    assert (setup["won"], setup["verdict"]) == (0, "same")
    assert deduce["metrics"]["peak_rss_mb"]["verdict"] == "worse"
    assert deduce["metrics"]["peak_rss_mb"]["bound"] == 0.1
    iso = rec["workloads"]["iso-sweep"]
    assert iso["failed_share"] == {"parent": 0.0, "change": 0.05}
    assert iso["metrics"]["run_s"]["verdict"] == (
        "better, not counted: more operations fail")
