import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cohlogic import cli, syntax

PQR = "theory pqr\nsig { P/1, Q/1, R/1 }\naxiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
PEQ = (
    "theory peq\nsig { E/2 }\n"
    "axiom [x,y] E(x,y) |- E(y,x)\n"
    "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n"
)
EMPTY = "theory nothing\nsig { }\n"


@pytest.fixture
def pqr_file(tmp_path):
    p = tmp_path / "pqr.thy"
    p.write_text(PQR)
    return str(p)


@pytest.fixture
def peq_file(tmp_path):
    p = tmp_path / "peq.thy"
    p.write_text(PEQ)
    return str(p)


@pytest.fixture
def empty_file(tmp_path):
    p = tmp_path / "empty.thy"
    p.write_text(EMPTY)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code = cli.main(["--json", *argv])
    out = capsys.readouterr()
    return code, json.loads(out.out)


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--version"])
    assert e.value.code == 0
    assert "run-report" in capsys.readouterr().out


def test_parse_ok(capsys, pqr_file):
    code, out, _ = run(capsys, "parse", pqr_file)
    assert code == 0
    assert "theory pqr" in out


def test_parse_missing_file(capsys):
    code, _, err = run(capsys, "parse", "/nonexistent.thy")
    assert code == 3
    assert "error" in err


def test_parse_garbage(capsys, tmp_path):
    p = tmp_path / "bad.thy"
    p.write_text("theory x\nsig { P/1 }\naxiom [x] Z(x) |- P(x)\n")
    code, _, err = run(capsys, "parse", str(p))
    assert code == 3
    assert "error" in err


def test_unknown_symbol_error_names_its_position(capsys, tmp_path):
    p = tmp_path / "bad.thy"
    p.write_text("theory x\nsig { P/1 }\naxiom [x] P(x) |- Q(x)\n")
    code, _, err = run(capsys, "parse", str(p))
    assert code == 3
    assert err == "error: 3:19: unknown relation symbol 'Q'\n"


def test_unknown_flag(capsys, pqr_file):
    code, _, err = run(capsys, "parse", pqr_file, "--nope")
    assert code == 3
    assert "usage" in err


# every integer flag, each given a negative value; at --cap -1 a round trip
# kept all but the last formula and ran for minutes
NEGATIVE_FLAGS = [
    ("prove", "{pqr}", "[x] P(x) |- P(x)", "--depth", "-1"),
    ("refute", "{pqr}", "[x] P(x) |- P(x)", "--model-size", "-1"),
    ("models", "{pqr}", "--bound", "-2"),
    ("models", "{pqr}", "--limit", "-1"),
    ("typespace", "{pqr}", "--bound", "-1"),
    ("typespace", "{pqr}", "--formula-depth", "-1"),
    ("typespace", "{pqr}", "--cutoff", "-1"),
    ("roundtrip", "--theory", "{peq}", "--cap", "-1"),
    ("roundtrip", "--theory", "{peq}", "--gen-depth", "-1"),
    ("roundtrip", "--theory", "{peq}", "--max-size", "-1"),
    ("thf", "build", "{pqr}", "--max-size", "-1"),
]


@pytest.mark.parametrize("argv", NEGATIVE_FLAGS, ids=lambda a: a[0] + a[-2])
def test_negative_integer_flag_is_input_error(capsys, pqr_file, peq_file, argv):
    argv = [a.format(pqr=pqr_file, peq=peq_file) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "error: argument" in err and ">= 0" in err
    assert "Traceback" not in err


def test_prove_holds(capsys, pqr_file):
    code, rep = run_json(capsys, "prove", pqr_file,
                         "[x] P(x) & Q(x) |- R(x)")
    assert code == 0
    v = rep["verdicts"][0]
    assert v["verdict"] == "Holds"
    assert v["derivation_checked"] is True
    assert v["derivation"]["rule"]


def test_refute_fails(capsys, pqr_file):
    code, rep = run_json(capsys, "refute", pqr_file, "[x] P(x) |- R(x)")
    assert code == 1
    v = rep["verdicts"][0]
    assert v["verdict"] == "Fails"
    assert v["countermodel"]["carrier"] >= 1


def test_prove_unknown_on_exhausted_budget(capsys, pqr_file):
    # depth too small to prove, model size too small to refute
    code, rep = run_json(capsys, "prove", pqr_file, "[x] P(x) |- R(x)",
                         "--depth", "1", "--model-size", "0")
    assert code == 2
    assert rep["verdicts"][0]["verdict"] == "Unknown"
    assert rep["verdicts"][0]["reason"] == "no derivation within depth 1"


def test_prove_beyond_the_recursion_limit_is_unknown(capsys, tmp_path):
    # th(S_peq): the search for this sequent recurses past the
    # interpreter's limit at depth 400; depth 300 Holds
    from cohlogic.internal_logic import export_presentation, th_of
    from cohlogic.typespace import compute_typespace

    s = compute_typespace(syntax.parse_theory(PEQ), check_stability=False)
    p = tmp_path / "th_peq.thy"
    p.write_text(syntax.print_theory(th_of(export_presentation(s, gen_depth=1))))
    code, out, err = run(capsys, "--json", "prove", str(p), "--model-size", "0",
                         "--depth", "400", "[x1] R2_1(x1,x1) |- R0_1")
    assert code == 2 and "Traceback" not in err
    v = json.loads(out)["verdicts"][0]
    assert v["verdict"] == "Unknown" and "depth 400" in v["reason"]


@pytest.mark.parametrize("argv", [
    ["--json", "prove", "pqr.thy", "[x] P(x) & Q(x) |- R(x)"],
    ["models", "peq.thy", "--bound", "3"],
])
def test_closed_stdout_keeps_the_verdict_code(tmp_path, argv):
    (tmp_path / "pqr.thy").write_text(PQR)
    (tmp_path / "peq.thy").write_text(PEQ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    # the read end is closed before the interpreter has even started
    p = subprocess.Popen([sys.executable, "-m", "cohlogic.cli", *argv],
                         cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
    p.stdout.close()
    err = p.stderr.read().decode()
    assert p.wait(timeout=60) == 0, err
    assert "Traceback" not in err and "BrokenPipe" not in err


def test_models_resource_guard_is_unknown(capsys, tmp_path):
    p = tmp_path / "three.thy"
    p.write_text("theory three\nsig { E/2, F/2, G/2 }\n")
    code, _, err = run(capsys, "models", str(p), "--bound", "3")
    assert code == 2
    assert "2^27" in err and "Traceback" not in err


def test_guarded_exit_has_a_report(capsys, tmp_path):
    # under --json a run stopped by a guard reports it as its one verdict,
    # with the bounds and input hashes of any other run; stderr keeps its
    # line, and the text mode prints nothing more
    text = "theory three\nsig { E/2, F/2, G/2 }\n"
    p = tmp_path / "three.thy"
    p.write_text(text)
    code = cli.main(["--json", "models", str(p), "--bound", "3"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == "unknown: size 3 needs 2^27 valuations (> 2^22)\n"
    rep = json.loads(out)
    assert rep["verdicts"] == [{"verdict": "Unknown",
                                "reason": "size 3 needs 2^27 valuations (> 2^22)"}]
    assert rep["command"] == "models" and rep["bounds"] == {"bound": 3}
    assert rep["inputs"] == {"theory": cli._sha256(text)}
    assert run(capsys, "models", str(p), "--bound", "3")[:2] == (2, "")


def test_typespace_resource_guard_before_any_scan(capsys, monkeypatch, tmp_path):
    # the stability pass needs size B+1 = 4, whose 2^32 valuations exceed
    # the guard; no table is scanned before that is found
    from cohlogic import semantics

    scans = []
    monkeypatch.setattr(semantics, "_model_masks", lambda *a: scans.append(a))
    p = tmp_path / "two.thy"
    p.write_text("theory two\nsig { E/2, F/2 }\n")
    code, _, err = run(capsys, "typespace", str(p), "--bound", "3")
    assert code == 2
    assert "size 4 needs 2^32 valuations" in err and "Traceback" not in err
    assert not scans


def test_prove_wide_context_is_unknown(capsys, pqr_file):
    # 2^40 tuples of the context at size 2: the countermodel scan stops
    # before it builds a mask over them
    names = ",".join(f"x{i}" for i in range(1, 41))
    t0 = time.monotonic()
    code, _, err = run(capsys, "prove", pqr_file, f"[{names}] P(x1) |- P(x1) | R(x2)")
    assert code == 2 and time.monotonic() - t0 < 10
    assert "2^40 tuples" in err and "Traceback" not in err


def test_prove_deep_nesting_is_input_error(capsys, pqr_file):
    deep = "[x] " + "(" * 3000 + "P(x)" + ")" * 3000 + " |- R(x)"
    code, _, err = run(capsys, "prove", pqr_file, deep)
    assert code == 3
    assert "nesting" in err and "Traceback" not in err


@pytest.mark.parametrize("word", ["true", "false", "exists", "theory", "sig", "axiom"])
def test_keyword_symbol_is_input_error(capsys, tmp_path, word):
    p = tmp_path / "kw.thy"
    p.write_text(f"theory t\nsig {{ P/1, {word}/0 }}\naxiom [] {word} |- false\n")
    code, _, err = run(capsys, "parse", str(p))
    assert code == 3
    assert err == f"error: 2:12: keyword {word!r} is not a relation symbol\n"


def test_eval(capsys, pqr_file, tmp_path):
    m = tmp_path / "m.json"
    m.write_text(json.dumps(
        {"carrier": 2, "relations": {"P": [[0]], "Q": [], "R": []}}))
    code, out, _ = run(capsys, "eval", pqr_file, str(m), "P(x)",
                       "--vars", "x", "--args", "0")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", pqr_file, str(m), "P(x)",
                       "--vars", "x", "--args", "1")
    assert code == 1 and out.strip() == "false"
    code, _, err = run(capsys, "eval", pqr_file, str(m), "P(x)",
                       "--vars", "x", "--args", "5")
    assert code == 3


MALFORMED = {
    "poset-pair-out-of-range": ("duality", "--poset", {"elements": 2, "leq": [[0, 5]]}),
    "poset-elements-not-int": ("duality", "--poset", {"elements": "x", "leq": []}),
    "poset-negative-point": ("duality", "--poset",
                             {"elements": 2, "leq": [[0, 0], [1, 1], [-1, 0]]}),
    "model-carrier-not-int": ("eval", {"carrier": "3", "relations": {}}),
    "model-row-not-list": ("eval", {"carrier": 2, "relations": {"P": [5]}}),
    "model-row-wrong-arity": ("eval", {"carrier": 2, "relations": {"P": [[0, 1]]}}),
    "map-value-out-of-range": ("check-frobenius", "--map", {
        "source": {"elements": 1, "leq": [[0, 0]]},
        "target": {"elements": 1, "leq": [[0, 0]]},
        "values": [3],
    }),
    "map-values-not-list": ("check-frobenius", "--map", {
        "source": {"elements": 1, "leq": [[0, 0]]},
        "target": {"elements": 1, "leq": [[0, 0]]},
        "values": 5,
    }),
    "poset-not-object": ("duality", "--poset", [1, 2]),
    "lattice-not-object": ("duality", "--lattice", [1, 2]),
    "map-not-object": ("check-frobenius", "--map", [1, 2]),
    "model-not-object": ("eval", [1, 2]),
    "presentation-not-object": ("thf", "validate", [1, 2]),
    "interpretation-not-object": ("interpret", "{pqr}", "{pqr}", "--map", [1, 2]),
    "interpretation-formula-not-string": ("interpret", "{pqr}", "{pqr}", "--map",
                                          {"k": 1, "=": 5}),
    "interpretation-k-not-int": ("interpret", "{pqr}", "{pqr}", "--map",
                                 {"k": [1], "=": "x1 = x2"}),
    "generators-not-object": ("thf", "build", "{pqr}", "--out", "{out}",
                              "--generators", [1, 2]),
    "generator-not-string": ("thf", "build", "{pqr}", "--out", "{out}",
                             "--generators", {"1": [5]}),
    "presentation-cutoff-not-int": ("thf", "validate",
                                    {"cutoff": "2", "lattices": {}, "homs": {}}),
    "presentation-hom-not-list": ("thf", "validate", {
        "cutoff": 0, "lattices": {"0": {"elements": 1, "leq": [[0, 0]]}},
        "homs": {"0->0:[]": 5}}),
    "presentation-lattice-not-object": ("thf", "validate",
                                        {"cutoff": 0, "lattices": {"0": [1, 2]},
                                         "homs": {}}),
    "presentation-homs-not-object": ("thf", "validate",
                                     {"cutoff": 0, "lattices": {}, "homs": []}),
    "presentation-lattice-missing": ("thf", "validate", {
        "cutoff": 2, "lattices": {"0": {"elements": 1, "leq": [[0, 0]]}},
        "homs": {}}),
    "presentation-hom-arity-missing": ("thf", "validate", {
        "cutoff": 0, "lattices": {"0": {"elements": 1, "leq": [[0, 0]]}},
        "homs": {"0->1:[]": [0]}}),
    # inputs that are read with named errors rather than a KeyError or a
    # ValueError.  A case whose argv names {input} takes the file there,
    # bytes are written as they are, and None writes no file
    "input-not-utf8": ("duality", "--poset", b'{"elements": 1}\xff'),
    "poset-leq-missing": ("duality", "--poset", {"elements": 2}),
    "model-carrier-missing": ("eval", {"relations": {}}),
    "presentation-homs-missing": ("thf", "validate", {"cutoff": 0, "lattices": {}}),
    "map-values-missing": ("check-frobenius", "--map", {
        "source": {"elements": 1, "leq": [[0, 0]]},
        "target": {"elements": 1, "leq": [[0, 0]]},
    }),
    "eval-args-not-int": ("eval", "{pqr}", "{input}", "P(x)", "--vars", "x",
                          "--args", "a", {"carrier": 2, "relations": {}}),
    "span-leg-not-int": ("check-bc", "--theory", "{pqr}", "--pushout", "1<-1->1",
                         "--left", "a", "--right", "1", None),
    "generator-key-not-arity": ("thf", "build", "{pqr}", "--out", "{out}",
                                "--generators", {"x": []}),
    "presentation-lattice-key-not-arity": ("thf", "validate", {
        "cutoff": 0, "lattices": {"x": {"elements": 1, "leq": [[0, 0]]}},
        "homs": {}}),
    "presentation-hom-key-empty-entry": ("thf", "validate", {
        "cutoff": 0, "lattices": {"0": {"elements": 1, "leq": [[0, 0]]}},
        "homs": {"0->0:[1,,2]": [0]}}),
    "presentation-hom-key-not-index-map": ("thf", "validate", {
        "cutoff": 1,
        "lattices": {n: {"elements": 2, "leq": [[0, 0], [0, 1], [1, 1]]} for n in "01"},
        "homs": {"1->0:[7]": [0, 1]}}),
}
PRESENTATION_SHAPE = ("error: a presentation needs a natural-number cutoff, "
                      "an object of lattices by arity and an object of hom "
                      "value lists\n")
# the error line of cases whose message is pinned
MALFORMED_MESSAGE = {
    "presentation-lattice-missing": "error: no lattice for arity 1\n",
    "presentation-hom-arity-missing":
        "error: hom '0->1:[]' names arity 1, which has no lattice\n",
    "input-not-utf8":
        "error: {input} is not utf-8 text: invalid start byte\n",
    "poset-leq-missing": "error: a poset needs a natural number of elements "
                         "and a list of leq pairs\n",
    "map-values-missing": "error: the values must be a JSON list\n",
    "model-carrier-missing": "error: a model needs a natural-number carrier and "
                             "an object of relations\n",
    "presentation-homs-missing": PRESENTATION_SHAPE,
    "presentation-lattice-key-not-arity": PRESENTATION_SHAPE,
    "eval-args-not-int": "error: --args must be comma-separated integers\n",
    "span-leg-not-int": "error: map 'a' is not a function [1] -> [1]\n",
    "generator-key-not-arity": "error: generator key 'x' is not an arity\n",
    "presentation-hom-key-empty-entry": "error: bad hom key '0->0:[1,,2]'\n",
    "presentation-hom-key-not-index-map":
        "error: hom '1->0:[7]' is not an index map 1 -> 0\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_is_input_error(capsys, pqr_file, tmp_path, case):
    *argv, obj = MALFORMED[case]
    f = tmp_path / "input.json"
    if isinstance(obj, bytes):
        f.write_bytes(obj)
    elif obj is not None:
        f.write_text(json.dumps(obj))
    if argv == ["eval"]:
        argv = ["eval", pqr_file, str(f), "P(x)", "--vars", "x", "--args", "0"]
    else:
        names = dict(pqr=pqr_file, out=tmp_path / "out.json", input=f)
        if obj is not None and "{input}" not in argv:
            argv.append("{input}")
        argv = [a.format(**names) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err
    if case in MALFORMED_MESSAGE:
        assert err == MALFORMED_MESSAGE[case].format(input=f)


def test_internal_errors_are_not_input_errors(monkeypatch, empty_file):
    """A KeyError or ValueError raised by a bug propagates out of main
    instead of exiting 3 as if the input were bad."""
    from cohlogic import typespace

    for exc in (KeyError("bug"), ValueError("bug")):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(typespace, "compute_typespace", broken)
        with pytest.raises(type(exc)):
            cli.main(["typespace", empty_file])


def test_models(capsys, pqr_file):
    code, rep = run_json(capsys, "models", pqr_file, "--bound", "2",
                         "--limit", "1")
    assert code == 0
    assert rep["verdicts"][0]["count"] == 35
    assert len(rep["models"]) == 1


def test_typespace(capsys, empty_file):
    code, rep = run_json(capsys, "typespace", empty_file, "--bound", "2")
    assert code == 0
    assert rep["verdicts"][0]["points"] == {"0": 2, "1": 1, "2": 2}
    assert rep["stable_arities"] == [True, True, True]


def test_duality(capsys, tmp_path):
    from cohlogic.lattice import chain, discrete_poset, lattice_to_json, poset_to_json

    lf = tmp_path / "l.json"
    lf.write_text(json.dumps(lattice_to_json(chain(3))))
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(poset_to_json(discrete_poset(3))))
    code, rep = run_json(capsys, "duality", "--lattice", str(lf), "--roundtrip")
    assert code == 0 and rep["verdicts"][0]["verdict"] == "Holds"
    code, rep = run_json(capsys, "duality", "--poset", str(pf))
    assert code == 0
    code, _, _ = run(capsys, "duality")
    assert code == 3
    code, _, _ = run(capsys, "duality", "--lattice", str(lf), "--poset", str(pf))
    assert code == 3


@pytest.mark.parametrize("poset, code, message", [
    ("antichain10", 2, "unknown: more than 256 up-sets\n"),
    ("chain30", 0, ""),
    ("antichain40", 2, "unknown: more than 256 up-sets\n"),
], ids=["antichain10", "chain30", "antichain40"])
@pytest.mark.parametrize("command", ["duality", "check-frobenius"])
def test_up_set_lattice_bounds_are_unknown(capsys, tmp_path, command, poset, code,
                                           message):
    # the up-sets of n points number up to 2^n, and the lattice of them is
    # checked in cubic time: a 10-point antichain took 77 s.  The bound is on
    # the up-sets, not the points: a 30-point chain has 31
    from cohlogic.lattice import discrete_poset, poset_from_pairs, poset_to_json

    x = poset_from_pairs(30, [(i, i + 1) for i in range(29)]) \
        if poset == "chain30" else discrete_poset(int(poset[len("antichain"):]))
    f = tmp_path / "input.json"
    if command == "duality":
        f.write_text(json.dumps(poset_to_json(x)))
        argv = ["duality", "--poset", str(f)]
    else:
        f.write_text(json.dumps({"source": poset_to_json(x),
                                 "target": poset_to_json(discrete_poset(1)),
                                 "values": [0] * x.n}))
        argv = ["check-frobenius", "--map", str(f)]
    started = time.monotonic()
    got, out, err = run(capsys, *argv)
    assert time.monotonic() - started < 1.0
    assert (got, err) == (code, message)
    assert bool(out) == (code == 0)


def test_check_bc(capsys, pqr_file):
    code, rep = run_json(capsys, "check-bc", "--theory", pqr_file,
                         "--pushout", "1<-0->1")
    assert code == 0
    v = rep["verdicts"][0]
    assert v["bc"] is True
    assert v["universal_map_surjective"] is False
    assert v["missed_pair"] is not None
    assert rep["pushout"]["apex"] == 2


def test_check_bc_bad_span(capsys, pqr_file):
    code, _, err = run(capsys, "check-bc", "--theory", pqr_file,
                       "--pushout", "zebra")
    assert code == 3


@pytest.mark.parametrize("argv, message", [
    (["--pushout=-1<-0->1"],
     "error: cannot parse span '-1<-0->1'; expected like '1<-0->1'\n"),
    (["--pushout", "1<-0->1->2"],
     "error: cannot parse span '1<-0->1->2'; expected like '1<-0->1'\n"),
    (["--pushout", "2<-2->1", "--left", "1,2", "--right", "1,1", "--cutoff", "1"],
     "error: span '2<-2->1' has a set of 2 elements, beyond cutoff 1\n"),
    (["--pushout", "1<-3->1", "--left", "1,1,1", "--right", "1,1,1"],
     "error: span '1<-3->1' has a set of 3 elements, beyond cutoff 2\n"),
    (["--pushout", "1<-0->1", "--cutoff", "1"],
     "error: pushout has 2 elements, beyond cutoff 1\n"),
], ids=["negative", "three-legs", "leg-beyond-cutoff", "source-beyond-cutoff",
        "pushout-beyond-cutoff"])
def test_check_bc_span_out_of_range(capsys, pqr_file, argv, message):
    # a negative size, or a set of the span beyond the cutoff, is an input
    # error reported before the type space is computed
    code, out, err = run(capsys, "check-bc", "--theory", pqr_file, *argv)
    assert (code, out, err) == (3, "", message)


def test_check_frobenius(capsys, tmp_path):
    from cohlogic.lattice import discrete_poset, poset_to_json

    mf = tmp_path / "map.json"
    mf.write_text(json.dumps({
        "source": poset_to_json(discrete_poset(2)),
        "target": poset_to_json(discrete_poset(1)),
        "values": [0, 0],
    }))
    code, rep = run_json(capsys, "check-frobenius", "--map", str(mf))
    assert code == 0
    v = rep["verdicts"][0]
    assert v["frobenius"] is True and v["open_map"] is True
    assert v["agreement"] is True


def test_interpret(capsys, pqr_file, peq_file, tmp_path):
    mf = tmp_path / "gmap.json"
    mf.write_text(json.dumps({
        "k": 1, "=": "x1 = x2",
        "P": "E(x1,x1)", "Q": "E(x1,x1)", "R": "E(x1,x1)",
    }))
    code, rep = run_json(capsys, "interpret", pqr_file, peq_file,
                         "--map", str(mf))
    assert code == 0
    v = rep["verdicts"][0]
    assert v["refuted"] == 0 and v["unknown"] == 0


def test_interpret_broken(capsys, empty_file, peq_file, tmp_path):
    # equality sent to a non-symmetric relation must be rejected
    sf = tmp_path / "s.thy"
    sf.write_text("theory s\nsig { S/2 }\n")
    mf = tmp_path / "bad.json"
    mf.write_text(json.dumps({"k": 1, "=": "S(x1,x2)"}))
    code, rep = run_json(capsys, "interpret", empty_file, str(sf),
                         "--map", str(mf))
    assert code == 1
    assert rep["verdicts"][0]["refuted"] > 0


def test_thf_build_validate(capsys, empty_file, tmp_path):
    out = tmp_path / "pres.json"
    code, rep = run_json(capsys, "thf", "build", empty_file, "--bound", "2",
                         "--out", str(out))
    assert code == 0
    assert rep["verdicts"][0]["lattice_sizes"] == {"0": 3, "1": 2, "2": 3}
    code, rep = run_json(capsys, "thf", "validate", str(out))
    assert code == 0 and rep["verdicts"][0]["verdict"] == "Holds"


@pytest.mark.parametrize("flag", ["--bound", "--formula-depth", "--cutoff",
                                  "--gen-depth", "--max-size", "--generators",
                                  "--out"])
def test_thf_validate_takes_no_build_flags(capsys, tmp_path, flag):
    # a presentation is checked as it stands: the flags of ``thf build`` are
    # refused, not ignored
    from cohlogic.internal_logic import presentation_to_json, trivial_presentation

    f = tmp_path / "pres.json"
    f.write_text(json.dumps(presentation_to_json(trivial_presentation(1))))
    assert run(capsys, "thf", "validate", str(f))[0] == 0
    code, out, err = run(capsys, "thf", "validate", str(f), flag, "3")
    assert (code, out) == (3, "")
    assert f"error: unrecognized arguments: {flag} 3" in err


def test_theory_roundtrip_empty(capsys, empty_file):
    code, rep = run_json(capsys, "roundtrip", "--theory", empty_file,
                         "--mode", "theory", "--bound", "2", "--cap", "4")
    assert code == 0
    v = rep["verdicts"][0]
    assert v["refuted"] == 0 and not v["failures"]


@pytest.mark.parametrize("argv", [
    ("roundtrip", "--theory", "{peq}", "--mode", "theory"),
])
def test_theory_roundtrip_leaves_out_existentials_beyond_cutoff(capsys, peq_file,
                                                               argv):
    # at cutoff 1 the depth-2 formulas of context 1 include existentials
    # over context 2, which the presentation cannot denote; the round trip
    # compares the other formulas
    argv = [a.format(peq=peq_file) for a in argv]
    code, out, err = run(capsys, *argv, "--cutoff", "1", "--cap", "12",
                         "--bound", "2")
    assert (code, err) == (0, "")
    assert "Holds: proved 444, refuted 0, unknown 0" in out


def test_roundtrip_with_generators(capsys, pqr_file, tmp_path):
    gf = tmp_path / "gens.json"
    gf.write_text(json.dumps({"1": ["R(x1)"]}))
    code, rep = run_json(capsys, "roundtrip", "--theory", pqr_file,
                         "--mode", "theory", "--generators", str(gf),
                         "--cap", "4")
    assert code == 0
    v = rep["verdicts"][0]
    assert v["direction"] == "theory"
    assert v["refuted"] == 0 and not v["failures"]


@pytest.mark.parametrize("argv", [
    ("roundtrip", "--theory", "{peq}", "--mode", "theory"),
    ("thf", "build", "{peq}"),
], ids=["roundtrip", "thf-build"])
def test_generator_arity_beyond_cutoff_is_input_error(capsys, peq_file, tmp_path,
                                                      argv):
    # a generator of arity 3 at cutoff 2 was left out without a word
    gf = tmp_path / "gens.json"
    gf.write_text(json.dumps({"1": ["E(x1,x1)"], "3": ["true"]}))
    argv = [a.format(peq=peq_file) for a in argv]
    code, out, err = run(capsys, *argv, "--generators", str(gf))
    assert (code, out, err) == (3, "", "error: generator arity 3 is beyond cutoff 2\n")


def test_roundtrip_export_budget_is_unknown(capsys, pqr_file):
    # the depth-1 opens of pqr generate well over 200 elements per arity;
    # the export stops at the 201st, an exhausted budget and not bad input
    code, out, err = run(capsys, "roundtrip", "--theory", pqr_file,
                         "--mode", "both", "--cap", "6")
    assert code == 2
    assert err == "unknown: generated lattice exceeds 200 elements\n"
    assert not out


def test_roundtrip_builds_one_type_space(capsys, monkeypatch, empty_file):
    # one type space of the input theory per run, and no stability pass
    from cohlogic import internal_logic, typespace

    builds, stability = [], []
    compute, stable = typespace.compute_typespace, typespace._stability

    def counted_compute(t, *args, **kwargs):
        builds.append(t.name)
        return compute(t, *args, **kwargs)

    def counted_stability(*args):
        stability.append(args)
        return stable(*args)

    monkeypatch.setattr(typespace, "compute_typespace", counted_compute)
    monkeypatch.setattr(internal_logic, "compute_typespace", counted_compute)
    monkeypatch.setattr(typespace, "_stability", counted_stability)
    for argv in (("roundtrip", "--theory", empty_file, "--mode", "both"),
                 ("thf", "build", empty_file)):
        builds.clear()
        stability.clear()
        code, _, _ = run(capsys, *argv, "--bound", "2")
        assert code == 0
        assert builds.count("nothing") == 1 and not stability, argv


def test_json_reports_deterministic(capsys, pqr_file):
    _, rep1 = run_json(capsys, "prove", pqr_file, "[x] P(x) & Q(x) |- R(x)")
    _, rep2 = run_json(capsys, "prove", pqr_file, "[x] P(x) & Q(x) |- R(x)")
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert rep1 == rep2
    assert len(rep1["inputs"]["theory"]) == 64


@pytest.mark.parametrize("argv, variants", [
    (("roundtrip", "--theory", "{pqr}", "--mode", "theory", "--cap", "2",
      "--generators", "{input}"),
     [{"1": ["R(x1)"]}, {"1": ["P(x1)"]}]),
    (("thf", "build", "{pqr}", "--generators", "{input}"),
     [{"1": ["R(x1)"]}, {"1": ["P(x1)"]}]),
    (("eval", "{pqr}", "{model}", "P(x) & Q(y)", "--vars", "x,y", "--args", "{input}"),
     ["0,1", "1,0"]),
    (("eval", "{pqr}", "{model}", "P(x) & Q(y)", "--vars", "{input}", "--args", "0,1"),
     ["x,y", "y,x"]),
], ids=["roundtrip-generators", "thf-build-generators", "eval-args", "eval-vars"])
def test_report_hashes_every_deciding_input(capsys, pqr_file, tmp_path, argv, variants):
    # two runs that differ in one input only report different inputs
    model = tmp_path / "m.json"
    model.write_text(json.dumps(
        {"carrier": 2, "relations": {"P": [[0]], "Q": [[1]], "R": []}}))
    inputs = []
    for i, value in enumerate(variants):
        if isinstance(value, dict):
            f = tmp_path / f"gens{i}.json"
            f.write_text(json.dumps(value))
            value = str(f)
        names = dict(pqr=pqr_file, model=model, input=value)
        code, rep = run_json(capsys, *[a.format(**names) for a in argv])
        assert code in (0, 1), rep
        inputs.append(rep["inputs"])
    assert inputs[0] != inputs[1]
