"""Differential test: formula identity against structural equality.

Every formula is the one live node of its kind and fields, so two formulas
alive at once are one object exactly when their kinds and recursive keys
are equal.  Each stored ``formula_key`` is checked against
``reference_key``, which walks the tree and reads no stored field.

The corpus holds, for pqr, peq and the two ``th_of`` theories:
  - the enumerated lists at n <= 2 and depth <= 2;
  - the sides of the axioms, parsed from the printed theory, and their
    normal forms;
  - the raw ``substitute`` and the ``reindex`` of each listed formula along
    every index map into the context one larger;
  - a pickled and a deep copy of each of these.
It is built twice, with a ``clear_caches()`` in between, and both builds
stay alive while they are compared.
"""

import copy
import pickle

import pytest
from test_internal_logic import PEQ, PQR, peq_pres, pqr_pres
from test_interned_reference import reference_key

from cohlogic.internal_logic import th_of
from cohlogic.syntax import (
    all_maps,
    clear_caches,
    enum_formulas,
    formula_key,
    normalize,
    parse_theory,
    print_theory,
    reindex,
    substitute,
)


def theory(name):
    if name == "pqr":
        return PQR
    if name == "peq":
        return PEQ
    return th_of(pqr_pres() if name == "th_pqr" else peq_pres())


def build(t):
    """The corpus of t, as one list."""
    out = []
    for n in range(3):
        for d in range(3):
            out += enum_formulas(t.signature, n, d, cap=200)
    for ax in parse_theory(print_theory(t)).axioms:
        out += [ax.lhs, ax.rhs, normalize(ax.lhs), normalize(ax.rhs)]
    for n in range(3):
        for phi in enum_formulas(t.signature, n, 2, cap=200):
            for f in all_maps(n, n + 1):
                out += [substitute(phi, f, n + 1), reindex(phi, f, n + 1)]
    out += [pickle.loads(pickle.dumps(phi)) for phi in out]
    return out + [copy.deepcopy(phi) for phi in out]


@pytest.mark.parametrize("name", ["pqr", "peq", "th_pqr", "th_peq"])
def test_equal_kind_and_key_iff_one_object(name):
    t = theory(name)
    first = build(t)
    clear_caches()
    formulas = first + build(t)
    by_key = {}  # (kind, key) -> the objects of it
    for phi in formulas:
        assert formula_key(phi) == reference_key(phi)
        by_key.setdefault((type(phi), formula_key(phi)), {})[id(phi)] = phi
    # each kind and key is one object, and each object one kind and key
    assert all(len(objects) == 1 for objects in by_key.values())
    assert len({id(phi) for phi in formulas}) == len(by_key)
    # and the corpus has twins to merge: across the clear, and beyond it
    assert all(a is b for a, b in zip(first, formulas[len(first):]))
    assert len(formulas) > 4 * len(by_key)
