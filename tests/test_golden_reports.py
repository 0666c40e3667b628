"""Golden ``--json`` run reports for the CLI scenarios of ``reproduce.sh``
plus ``typespace``, ``models``, ``interpret``, the theory round trip,
``eval`` and ``parse``.

Each scenario runs in-process through ``cli.main(["--json", ...])``; its
exit code and report, with the ``wall_time_s`` key dropped, must equal the
file under ``tests/golden/``.  ``thf build`` also compares the presentation
it writes.  Reports hash their inputs, so they hold no file paths.

Regenerate the golden files (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from cohlogic import cli
from cohlogic.lattice import chain, discrete_poset, lattice_to_json, poset_to_json

GOLDEN = Path(__file__).parent / "golden"

PQR = (
    "theory pqr\n"
    "sig { P/1, Q/1, R/1 }\n"
    "axiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
)
PEQ = (
    "theory peq\n"
    "sig { E/2 }\n"
    "axiom [x,y] E(x,y) |- E(y,x)\n"
    "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n"
)
EMPTY = "theory nothing\nsig { }\n"

# name -> argv after "--json"; "{d}" is the directory holding the inputs
SCENARIOS = {
    "check_bc_pqr": ["check-bc", "--theory", "{d}/pqr.thy", "--pushout", "1<-0->1"],
    "duality_chain3": ["duality", "--lattice", "{d}/chain3.json", "--roundtrip"],
    "check_frobenius": ["check-frobenius", "--map", "{d}/map.json"],
    "prove_pqr": ["prove", "{d}/pqr.thy", "[x] P(x) & Q(x) |- R(x)", "--depth", "8"],
    "refute_pqr": ["refute", "{d}/pqr.thy", "[x] P(x) |- R(x)"],
    "roundtrip_pqr": ["roundtrip", "--theory", "{d}/pqr.thy", "--mode", "both",
                      "--generators", "{d}/gens.json", "--cap", "6"],
    "roundtrip_peq": ["roundtrip", "--theory", "{d}/peq.thy", "--mode", "both",
                      "--cap", "6"],
    "thf_build_peq": ["thf", "build", "{d}/peq.thy", "--out", "{d}/pres.json"],
    "thf_validate_peq": ["thf", "validate", "{d}/pres.json"],
    "typespace_peq": ["typespace", "{d}/peq.thy"],
    "models_peq": ["models", "{d}/peq.thy", "--bound", "3"],
    "models_unary": ["models", "{d}/unary.thy", "--bound", "7"],
    "models_pqr": ["models", "{d}/pqr.thy", "--bound", "3"],
    "interpret_pqr_peq": ["interpret", "{d}/pqr.thy", "{d}/peq.thy",
                          "--map", "{d}/gmap.json"],
    "interpret_broken": ["interpret", "{d}/empty.thy", "{d}/s.thy",
                         "--map", "{d}/bad.json"],
    "roundtrip_theory_empty": ["roundtrip", "--theory", "{d}/empty.thy",
                               "--mode", "theory", "--bound", "2", "--cap", "4"],
    "eval_pqr": ["eval", "{d}/pqr.thy", "{d}/m.json", "P(x) & Q(y)",
                 "--vars", "x,y", "--args", "0,1"],
    "parse_pqr": ["parse", "{d}/pqr.thy"],
}
# scenario -> files it writes, compared as well
WRITES = {"thf_build_peq": ["pres.json"]}
# scenario -> scenario whose written files it reads
NEEDS = {"thf_validate_peq": "thf_build_peq"}


def _write_inputs(d):
    (d / "pqr.thy").write_text(PQR)
    (d / "peq.thy").write_text(PEQ)
    (d / "empty.thy").write_text(EMPTY)
    (d / "s.thy").write_text("theory s\nsig { S/2 }\n")
    (d / "unary.thy").write_text("theory unary\nsig { P/1 }\n")
    # the pqr -> peq interpretation that holds, and equality sent to a
    # non-symmetric relation, which is refuted
    (d / "gmap.json").write_text(json.dumps({
        "k": 1, "=": "x1 = x2",
        "P": "E(x1,x1)", "Q": "E(x1,x1)", "R": "E(x1,x1)",
    }))
    (d / "bad.json").write_text(json.dumps({"k": 1, "=": "S(x1,x2)"}))
    (d / "m.json").write_text(json.dumps(
        {"carrier": 2, "relations": {"P": [[0]], "Q": [[1]], "R": []}}))
    (d / "gens.json").write_text(json.dumps({"1": ["R(x1)"]}))
    (d / "chain3.json").write_text(json.dumps(lattice_to_json(chain(3))))
    (d / "map.json").write_text(json.dumps({
        "source": poset_to_json(discrete_poset(2)),
        "target": poset_to_json(discrete_poset(1)),
        "values": [0, 0],
    }))


def run_scenario(name, d):
    """Exit code, report without wall time and written files of a scenario
    run in directory d."""
    if name in NEEDS:
        run_scenario(NEEDS[name], d)
    argv = [a.format(d=d) for a in SCENARIOS[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--json", *argv])
    report = json.loads(out.getvalue())
    report.pop("wall_time_s")
    files = {f: json.loads((d / f).read_text()) for f in WRITES.get(name, ())}
    return {"exit_code": code, "report": report, "files": files}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_report(name, tmp_path):
    _write_inputs(tmp_path)
    got = run_scenario(name, tmp_path)
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert got == expected


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            _write_inputs(d)
            got = run_scenario(name, d)
        text = json.dumps(got, indent=1, sort_keys=True)
        if tmp in text:
            raise SystemExit(f"{name}: report holds a file path")
        (GOLDEN / f"{name}.json").write_text(text + "\n")
        print(name, "exit", got["exit_code"])


if __name__ == "__main__":
    sys.exit(regenerate())
