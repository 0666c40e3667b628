"""Property test of the exit-code contract on the subcommands that read
JSON: whatever small JSON value an input file holds, ``cli.main`` run
in-process exits with 0, 1, 2 or 3 and raises nothing.

The values mix arbitrary JSON with valid objects of each kind, some of them
changed in one place: models, posets of at most 6 points, lattices,
monotone maps, presentations, interpretations and generators.  So both the
shape checks and the mathematical checks behind them are reached.
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


@settings(max_examples=200, deadline=None)
@given(runs())
def test_json_inputs_keep_the_exit_code_contract(run):
    argv, value = run
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, text in THEORIES.items():
            (d / name).write_text(text)
        f = d / "input.json"
        f.write_text(json.dumps(value))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.format(d=d, f=f) for a in argv])
    assert code in (0, 1, 2, 3), (argv, value)
    assert (code == 3) == err.getvalue().startswith("error:"), err.getvalue()
