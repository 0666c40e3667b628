"""Deterministic work counts of the proof search, pinned by equality.

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

Print the counts of the checkout with

    PYTHONPATH=src:tests python tests/test_work_counts.py
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from cohlogic import calculus, syntax

EXPECTED = {"normalize_cache": 798, "interned": 3385, "calls": 2201}


def work_counts():
    from test_prover_reference import corpus, theory

    jobs = []
    for name in ("pqr", "peq", "th_pqr", "th_peq"):
        t, _, pool = theory(name)
        jobs += [(t, s, replace(b, model_pool=pool)) for s, b in corpus(name)]
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


@pytest.mark.parametrize("seed", ["0", "1", "77"])
def test_prover_work_counts(seed):
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    out = subprocess.run([sys.executable, str(Path(__file__))], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(out.stdout) == EXPECTED


if __name__ == "__main__":
    print(json.dumps(work_counts()))
