"""Property tests of the exit-code contract: whatever small input a run
reads, ``cli.main`` run in-process exits with 0, 1, 2 or 3 and raises
nothing.

On the subcommands that read JSON, the values mix arbitrary JSON with valid
objects of each kind, some of them changed in one place: models, posets of
at most 6 points, lattices, monotone maps, presentations, interpretations
and generators.  So both the shape checks and the mathematical checks
behind them are reached.

On the subcommands that read text, the theory files and sequents are valid
ones, some of them changed in one place, and each bound flag is left out or
drawn small, negative values included.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cohlogic import cli
from cohlogic.internal_logic import presentation_to_json, trivial_presentation
from cohlogic.lattice import k_o, lattice_to_json, poset_from_pairs, poset_to_json

THEORIES = {
    "pqr.thy": "theory pqr\nsig { P/1, Q/1, R/1 }\n"
               "axiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n",
    "p.thy": "theory p\nsig { P/1 }\n",
    "pq.thy": "theory pq\nsig { P/1, Q/1 }\naxiom [x] P(x) |- Q(x)\n",
}

scalars = st.none() | st.booleans() | st.integers(-2, 7) | st.text("PQx01,[]", max_size=4)
any_json = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text("01Pk=", max_size=2), inner, max_size=4),
    max_leaves=10,
)
small = st.integers(-1, 6)


@st.composite
def random_poset(draw, most):
    n = draw(st.integers(0, most))
    return poset_from_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if draw(st.booleans())])


@st.composite
def changed(draw, obj):
    """obj, a poset or lattice JSON object, as it is or with one leq pair
    dropped or one random pair added."""
    pairs = list(obj["leq"])
    change = draw(st.sampled_from(["drop", "add", None, None]))
    if change == "drop" and pairs:
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))
    elif change == "add":
        pairs.append(draw(st.lists(small, min_size=2, max_size=2)))
    return dict(obj, leq=pairs)


def posets(most=6):
    return random_poset(most).map(poset_to_json).flatmap(changed)


# the lattices of up-sets of posets of at most 3 points: up to 8 elements
lattices = random_poset(3).map(lambda x: lattice_to_json(k_o(x)[0])).flatmap(changed)


@st.composite
def models(draw):
    n = draw(st.integers(0, 3))
    rows = st.lists(st.lists(st.integers(-1, n), min_size=1, max_size=2), max_size=3)
    return {"carrier": n, "relations": draw(st.dictionaries(
        st.sampled_from("PQRS"), rows, max_size=3))}


@st.composite
def maps(draw):
    source, target = draw(posets(4)), draw(posets(3))
    values = st.integers(-1, target["elements"])
    return {"source": source, "target": target,
            "values": draw(st.lists(values, min_size=source["elements"],
                                    max_size=source["elements"]) | st.lists(small))}


formulas = st.sampled_from(["x1 = x2", "P(x1)", "Q(x1)", "P(x1) & Q(x2)", "true",
                            "false", "exists x3. P(x3)", "x1 = x3", "P(", ""])
interpretations = st.fixed_dictionaries(
    {"=": formulas, "P": formulas}, optional={"k": st.integers(0, 2) | scalars})
generators = st.dictionaries(st.sampled_from(["0", "1", "2", "3", "x"]),
                             st.lists(formulas | scalars, max_size=2) | scalars,
                             max_size=3)


@st.composite
def presentations(draw):
    obj = presentation_to_json(trivial_presentation(draw(st.integers(0, 1))))
    part = draw(st.sampled_from(["cutoff", "lattices", "homs", None]))
    if part == "lattices":
        obj["lattices"][draw(st.sampled_from(["0", "1", "2"]))] = draw(lattices)
    elif part == "homs":
        obj["homs"][draw(st.sampled_from(["0->0:[]", "0->1:[]", "1->0:[1]",
                                          "1->1:[1]", "1->1:[2]"]))] = \
            draw(st.lists(small, max_size=3))
    elif part:
        obj[part] = draw(scalars)
    return obj


# subcommand -> (argv with {f} for the JSON file and {d} for the directory,
# strategy of the file's content)
CASES = {
    "eval": (["eval", "{d}/pqr.thy", "{f}", "P(x) & Q(y)", "--vars", "x,y",
              "--args", "0,1"], models()),
    "duality-poset": (["duality", "--poset", "{f}"], posets()),
    "duality-lattice": (["duality", "--lattice", "{f}"], lattices | posets()),
    "check-frobenius": (["check-frobenius", "--map", "{f}"], maps()),
    "thf-validate": (["thf", "validate", "{f}"], presentations()),
    "interpret": (["interpret", "{d}/p.thy", "{d}/pq.thy", "--map", "{f}",
                   "--model-size", "1"], interpretations),
    "generators": (["thf", "build", "{d}/p.thy", "--bound", "2", "--generators",
                    "{f}", "--out", "{d}/out.json"], generators),
}


@st.composite
def runs(draw):
    argv, values = CASES[draw(st.sampled_from(sorted(CASES)))]
    # three in four values are of the kind the subcommand reads
    return argv, draw(draw(st.sampled_from([values, values, values, any_json])))


def _main(argv, text, *rest):
    """The exit code of argv and rest, {f} in argv naming a file that holds
    text and {d} the directory of the theory files, and what the run wrote
    to stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, theory in THEORIES.items():
            (d / name).write_text(theory)
        f = d / "input"
        f.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.format(d=d, f=f) for a in argv] + list(rest))
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(runs())
def test_json_inputs_keep_the_exit_code_contract(run):
    argv, value = run
    code, err = _main(argv, json.dumps(value))
    assert code in (0, 1, 2, 3), (argv, value)
    assert (code == 3) == err.startswith("error:"), err


THEORY_TEXTS = [*THEORIES.values(), "theory e\n",
                "theory peq\nsig { E/2 }\naxiom [x,y] E(x,y) |- E(y,x)\n",
                "# serial\ntheory s\nsig {\n  E/2\n}\n"
                "axiom [x] true |- exists y. E(x,y)  # every x\n"]
SEQUENTS = ["[x] P(x) |- P(x)", "[x,y] P(x) & Q(y) |- R(x) | R(y)",
            "[x] P(x) |- Q(x)", "[] true |- false", "[x,y] x = y |- y = x",
            "[x] exists y. E(x,y) |- E(x,x)", "[x] P(x) & (Q(x) | R(x)) |- R(x)"]
NOISE = list("()[]{},.&|=/-#$ \n019xPE_") + ["exists ", "|-", "axiom ", "sig "]


@st.composite
def changed_text(draw, texts):
    """One of texts, as it is (one time in two) or with a character deleted
    or inserted."""
    text = draw(st.sampled_from(texts))
    i = draw(st.integers(0, len(text)))
    change = draw(st.sampled_from([None, None, "delete", "insert"]))
    if change == "delete":
        return text[:i] + text[i + 1:]
    if change == "insert":
        return text[:i] + draw(st.sampled_from(NOISE)) + text[i:]
    return text


# the largest value drawn for each bound flag.  A flag is left out or -1
# one time in six each; --bound is never left out, as its default is slow.
LARGEST = {"depth": 6, "model_size": 2, "bound": 2, "formula_depth": 1,
           "cutoff": 1, "cap": 3}
# subcommand -> (argv with {f} for the theory file, bound flags it takes)
TEXT_CASES = {
    "parse": (["parse", "{f}"], ()),
    "prove": (["prove", "{f}"], ("depth", "model_size")),
    "refute": (["refute", "{f}"], ("depth", "model_size")),
    "models": (["models", "{f}", "--limit", "2"], ("bound",)),
    "typespace": (["typespace", "{f}"], ("formula_depth", "cutoff", "bound")),
    "roundtrip": (["roundtrip", "--theory", "{f}", "--bound", "1"],
                  ("cap", "formula_depth", "cutoff")),
}


@st.composite
def text_runs(draw):
    name = draw(st.sampled_from(sorted(TEXT_CASES)))
    argv, flags = TEXT_CASES[name]
    argv = list(argv)
    for flag in flags:
        values = [*range(LARGEST[flag] + 1)] * 2
        value = draw(st.sampled_from([-1, *values] if flag == "bound" else
                                     [None, -1, *values]))
        if value is not None:
            argv += ["--" + flag.replace("_", "-"), str(value)]
    sequent = [draw(changed_text(SEQUENTS))] if name in ("prove", "refute") else []
    return argv, draw(changed_text(THEORY_TEXTS)), sequent


@settings(max_examples=300, deadline=None)
@given(text_runs())
def test_text_inputs_keep_the_exit_code_contract(run):
    argv, theory, sequent = run
    code, err = _main(argv, theory, *sequent)
    assert code in (0, 1, 2, 3), run
    # a bad flag prints its usage line before the error
    assert (code == 3) == ("\nerror:" in "\n" + err), err
