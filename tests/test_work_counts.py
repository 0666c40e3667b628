"""Deterministic work counts of the proof search and of the search for
canonical forms of posets, pinned by equality.

``work_counts`` starts from ``clear_caches()`` and decides the sequents of
the ``tests/test_prover_reference.py`` corpus, on pqr, peq and the two
``th_of`` theories at its budgets, with ``calculus.entails``.  It reports
the entries left in ``normalize``'s cache, the nodes in the intern table
and the summed ``_Prover.calls``.  Each count is taken in a fresh
interpreter under three hash seeds, so neither the order of earlier tests
nor string hashing can move it.

The call sum and the node count are properties of the search: a cheaper
formula layer leaves both as they are.  The cache size counts the trees
still handed to ``normalize``: the sequents, the two sides of each axiom
and the raw substitutions of the derivation checker.  The search and the
axiom instances substitute with ``syntax.reindex``.

``derivation_nodes`` counts the ``calculus.Derivation`` nodes built while
the same corpus is decided: a proof step builds its rule node only once its
premises are derived, so failed steps build none.

``derive_calls`` counts the invocations of ``_Prover.derive`` over the
same corpus, the counted calls and those that return at once alike.  At
depth 1 a step whose premises can only miss the memo is skipped, so its
depth-0 calls are not made.

``forward_steps`` counts the entries of ``calculus._forward_steps``, the
forward step's table of the instances it may fire on each antecedent, left
after the same corpus is decided: one per theory, context and antecedent
that the step was asked about.

``roundtrip_eq_calls`` counts the calls of ``_Formula.__eq__`` made by
``roundtrip_theory(PEQ, peq_pres(), cap=6)``: first in a fresh
interpreter, again in the same one, and a third time while an equal
theory built apart, whose instance tables the prover has filled, is kept
alive.  The instance tables are kept per theory object, so no call
compares a theory with another one axiom by axiom.

``canonical_steps`` counts the calls of ``lattice._canonical_step``, one
per node of the search tree, while ``all_posets(6)`` and
``all_dist_lattices(8)`` key every grown poset they keep and sort their
results by canonical form.

``profile_calls`` counts the calls of ``semantics.extension``, nested ones
included, while ``model_profiles`` collects the profiles of every arity of
the pqr and peq approximations and of ``th_of(peq_pres())`` over its
induced models.  An atom over a model batch is one call: its one-model mask
is copied into the models that hold it, not evaluated in each model.

``test_coord_masks_key_on_size_and_arity`` runs ``model_profiles`` over
batches of several lengths and checks that ``semantics._coord_masks``
holds one entry per (size, n): a batch reads the masks of one model, so
no batch length adds a set of its own.

``typespace_memory`` measures, with ``tracemalloc``, the memory that
``compute_typespace(PQR)`` at the defaults still holds once
``clear_caches()`` and a collection have run: the approximation itself.
Its points are ints and its opens are read off them on demand, so it
holds well under 1 MB (7.2 MB when every point was a frozenset of formula
indices and every formula's open was stored).

``typespace_nodes`` counts, per node kind, the nodes in the intern table
and the entries of ``syntax._enum``'s cache after a cold
``compute_typespace(PEQ)`` at the defaults.  The stability pass profiles
the existentials of the depth-2 lists one context up and builds the
depth-3 lists only up to the key of the formula that decides each arity:
it made 6,956 meets, 4,439 joins and 15 cache entries when it built them
in full.

Print the counts of the checkout with

    PYTHONPATH=src:tests python tests/test_work_counts.py [derivations|derives|forward|roundtrip|canonical|profiles|memory|typespace]
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cohlogic import calculus, lattice, syntax

EXPECTED = {"normalize_cache": 798, "interned": 2224, "calls": 2201}
DERIVATIONS_EXPECTED = 1893
DERIVES_EXPECTED = 3595
FORWARD_STEPS_EXPECTED = 192
CANONICAL_EXPECTED = {"all_posets(6)": 34720, "all_dist_lattices(8)": 1812}
PROFILE_EXPECTED = {"pqr": 9841, "peq": 7095, "th_of(peq_pres())": 16862}
HELD_BYTES_LIMIT = 1_000_000
TYPESPACE_NODES_EXPECTED = {"And": 1390, "Or": 326, "Exists": 1455, "enum": 17}


def work_counts():
    from test_prover_reference import corpus, theory

    jobs = []
    for name in ("pqr", "peq", "th_pqr", "th_peq"):
        t, _, pool = theory(name)
        jobs += [(t, s, b.replace(model_pool=pool)) for s, b in corpus(name)]
    provers = []

    class Counted(calculus._Prover):
        def __init__(self, t, budgets):
            super().__init__(t, budgets)
            provers.append(self)

    calculus._Prover = Counted  # this runs only in its own interpreter
    syntax.clear_caches()
    for t, s, budgets in jobs:
        calculus.entails(t, s, budgets)
    return {
        "normalize_cache": syntax.normalize.cache_info().currsize,
        "interned": sum(len(table) for table in syntax._NODES.values()),
        "calls": sum(p.calls for p in provers),
    }


def derivation_nodes():
    # this runs only in its own interpreter
    count = _count_calls(calculus.Derivation, "__init__")
    work_counts()
    return count[0]


def derive_calls():
    # this runs only in its own interpreter
    count = _count_calls(calculus._Prover, "derive")
    work_counts()
    return count[0]


def forward_steps():
    # this runs only in its own interpreter
    work_counts()
    return calculus._forward_steps.cache_info().currsize


def roundtrip_eq_calls():
    from test_internal_logic import PEQ, peq_pres

    from cohlogic.internal_logic import roundtrip_theory, th_of

    pres = peq_pres()
    # this runs only in its own interpreter
    count = _count_calls(syntax._Formula, "__eq__")

    def calls():
        count[0] = 0
        roundtrip_theory(PEQ, pres, cap=6)
        return count[0]

    first, second = calls(), calls()
    twin = th_of(pres)
    for n in range(pres.cutoff + 1):
        calculus._axiom_instances(twin, n)
    return {"first": first, "second": second, "with_twin": calls()}


def _count_calls(owner, name, patch=setattr):
    """Route ``owner.name`` through a counter that ``patch(owner, name,
    value)`` installs; returns the count as a one-item list.  Recursion
    through the name, as in ``lattice._canonical_step``, is counted too."""
    fn, count = getattr(owner, name), [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    patch(owner, name, counted)
    return count


def canonical_steps():
    # this runs only in its own interpreter
    count, out = _count_calls(lattice, "_canonical_step"), {}
    for generate, n in ((lattice.all_posets, 6), (lattice.all_dist_lattices, 8)):
        count[0] = 0
        generate(n)
        out[f"{generate.__name__}({n})"] = count[0]
    return out


def profile_calls():
    from test_internal_logic import approx, peq_pres

    from cohlogic import semantics
    from cohlogic.internal_logic import induced_models, th_of
    from cohlogic.typespace import compute_typespace

    pres = peq_pres()
    approxes = {
        "pqr": approx("pqr"),
        "peq": approx("peq"),
        "th_of(peq_pres())": compute_typespace(th_of(pres), N=pres.cutoff,
                                               models=induced_models(pres)),
    }
    # this runs only in its own interpreter
    count, out = _count_calls(semantics, "extension"), {}
    for name, a in approxes.items():
        count[0] = 0
        for n in range(a.N + 1):
            semantics.model_profiles(a.models, a.formulas[n], n)
        out[name] = count[0]
    return out


def typespace_memory():
    import gc
    import tracemalloc

    from test_internal_logic import PQR

    from cohlogic.typespace import compute_typespace

    # this runs only in its own interpreter
    tracemalloc.start()
    approx = compute_typespace(PQR)
    syntax.clear_caches()
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    return {"held": held, "points": [len(approx.points[n]) for n in range(3)]}


def typespace_nodes():
    from test_internal_logic import PEQ

    from cohlogic.typespace import compute_typespace

    # this runs only in its own interpreter
    compute_typespace(PEQ)
    out = {cls.__name__: len(table) for cls, table in syntax._NODES.items()}
    out["enum"] = syntax._enum.cache_info().currsize
    return out


def _counts_in_fresh_interpreter(seed, *argv):
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    out = subprocess.run([sys.executable, str(Path(__file__)), *argv], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("seed", ["0", "1", "77"])
def test_prover_work_counts(seed):
    assert _counts_in_fresh_interpreter(seed) == EXPECTED


@pytest.mark.parametrize("seed", ["0", "1", "77"])
def test_derivation_node_counts(seed):
    assert _counts_in_fresh_interpreter(seed, "derivations") == DERIVATIONS_EXPECTED


@pytest.mark.parametrize("seed", ["0", "1", "77"])
def test_derive_invocation_counts(seed):
    assert _counts_in_fresh_interpreter(seed, "derives") == DERIVES_EXPECTED


@pytest.mark.parametrize("seed", ["0", "1", "77"])
def test_forward_step_table_size(seed):
    assert _counts_in_fresh_interpreter(seed, "forward") == FORWARD_STEPS_EXPECTED


@pytest.mark.parametrize("seed", ["0", "1", "77"])
def test_repeated_roundtrip_compares_no_theories(seed):
    counts = _counts_in_fresh_interpreter(seed, "roundtrip")
    assert counts["second"] <= counts["first"], counts
    assert counts["with_twin"] <= counts["first"], counts


@pytest.mark.parametrize("seed", ["0", "1", "77"])
def test_canonical_step_counts(seed):
    assert _counts_in_fresh_interpreter(seed, "canonical") == CANONICAL_EXPECTED


@pytest.mark.parametrize("seed", ["0", "1", "77"])
def test_profile_extension_calls(seed):
    assert _counts_in_fresh_interpreter(seed, "profiles") == PROFILE_EXPECTED


def test_typespace_holds_no_per_point_sets():
    counts = _counts_in_fresh_interpreter("0", "memory")
    assert counts["points"] == [13, 42, 194]
    assert counts["held"] < HELD_BYTES_LIMIT, counts


@pytest.mark.parametrize("seed", ["0", "1", "77"])
def test_typespace_intern_and_enum_counts(seed):
    assert (_counts_in_fresh_interpreter(seed, "typespace")
            == TYPESPACE_NODES_EXPECTED)


def test_coord_masks_key_on_size_and_arity():
    from test_internal_logic import PEQ

    from cohlogic import semantics

    models = semantics.enumerate_models(PEQ, 3)
    syntax.clear_caches()
    for n in range(3):
        formulas = syntax.enum_formulas(PEQ.signature, n, 2, 200)
        for k in (1, 2, 5, len(models)):
            semantics.model_profiles(models[:k], formulas, n)
    masks = semantics._coord_masks
    held, hits = masks.cache_info().currsize, masks.cache_info().hits
    # ask for every (size, n) the profiles can have reached: each entry held
    # must answer one of these calls
    for size in range(4):
        for n in range(5):
            masks(size, n)
    assert held and masks.cache_info().hits - hits == held


def test_antichain_canonical_steps(monkeypatch):
    # every point of an antichain is a twin of every other, so the search
    # tries one point per position: one step per position and the leaf
    count = _count_calls(lattice, "_canonical_step", monkeypatch.setattr)
    lattice.discrete_poset(8).canonical()
    assert count[0] <= 9


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else None
    run = {"derivations": derivation_nodes, "derives": derive_calls,
           "forward": forward_steps,
           "roundtrip": roundtrip_eq_calls, "canonical": canonical_steps,
           "profiles": profile_calls,
           "memory": typespace_memory,
           "typespace": typespace_nodes}.get(which, work_counts)
    print(json.dumps(run()))
