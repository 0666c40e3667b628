"""Differential test: atoms and equalities over a ``ModelBatch``, each a
one-model mask copied into the models that hold it by a multiply with a
spread, against the definition they replace.

The reference is the batch extension as first written: the OR over the
models of each model's own extension, evaluated alone and shifted by
``i * size**n``.  The corpus is random tables at sizes 0-3 over a 0-ary, a
unary and a binary symbol; every atom of each symbol and every equality
``Eq(i, j)`` in contexts 0-3, repeated arguments among them; batches of one
model and of many; and symbols without a table, or without rows, in some or
all of the models.  Each batch answers all its atoms in turn, so its row
groups are reused across atoms.

A structural check pins the batch path: while ``profile_bits`` runs on a
``ModelBatch``, ``extension`` is never called on a lone model.
"""

import random
from itertools import product

import pytest

from cohlogic import semantics
from cohlogic.semantics import (
    FiniteModel,
    ModelBatch,
    enumerate_models,
    extension,
    profile_bits,
)
from cohlogic.syntax import Atom, Eq, all_maps, enum_formulas, parse_theory

SIGNATURE = (("A", 0), ("P", 1), ("E", 2))


def reference_batch_extension(models, phi, n):
    span = models[0].size ** n
    out = 0
    for i, m in enumerate(models):
        out |= extension(m, phi, n, {}) << i * span
    return out


def atoms(n):
    return [Atom(sym, args) for sym, ar in SIGNATURE for args in all_maps(ar, n)]


def equalities(n):
    return [Eq(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def random_model(rng, size, missing):
    """Random tables; a symbol in missing, and each other one with
    probability 1/5, gets no table."""
    tables = {}
    for sym, ar in SIGNATURE:
        if sym in missing or rng.random() < 0.2:
            continue
        density = rng.choice((0.0, 0.3, 0.7, 1.0))
        tables[sym] = {r for r in product(range(size), repeat=ar)
                       if rng.random() < density}
    return FiniteModel(size, tables)


def assert_atoms_match(models):
    batch = ModelBatch(models)
    for n in range(4):
        for phi in atoms(n) + equalities(n):
            want = reference_batch_extension(models, phi, n)
            assert extension(batch, phi, n, {}) == want, (phi, n)


@pytest.mark.parametrize("size", range(4))
@pytest.mark.parametrize("blocks", [1, 2, 9])
@pytest.mark.parametrize("seed", range(4))
def test_batch_atoms_match_reference(size, blocks, seed):
    rng = random.Random(f"{size}-{blocks}-{seed}")
    missing = {0: (), 1: ("E",), 2: ("A", "P"), 3: ("A", "P", "E")}[seed]
    assert_atoms_match([random_model(rng, size, missing) for _ in range(blocks)])


@pytest.mark.parametrize("size", range(4))
def test_extreme_tables_match_reference(size):
    full = {sym: set(product(range(size), repeat=ar)) for sym, ar in SIGNATURE}
    empty = {sym: set() for sym, _ in SIGNATURE}
    for tables in ([full], [empty], [{}], [full, {}, empty, full], [{}, {}]):
        assert_atoms_match([FiniteModel(size, t) for t in tables])


def test_repeated_arguments_read_the_diagonal():
    m = FiniteModel(2, {"E": {(0, 0), (0, 1)}})
    batch = ModelBatch([m, FiniteModel(2, {"E": {(1, 1)}})])
    # E(x1, x1) in context 1: tuples (0,) and (1,) of each model
    assert extension(batch, Atom("E", (1, 1)), 1, {}) == 0b1001
    # E(x2, x2) in context 2 holds where x2 = 0 in model 0 and x2 = 1 in model 1
    assert extension(batch, Atom("E", (2, 2)), 2, {}) == 0b1010_0101


PQR = parse_theory(
    "theory pqr\nsig { P/1, Q/1, R/1 }\naxiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
)
PEQ = parse_theory(
    "theory peq\nsig { E/2 }\n"
    "axiom [x,y] E(x,y) |- E(y,x)\n"
    "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n"
)


@pytest.mark.parametrize("t", [PQR, PEQ], ids=["pqr", "peq"])
def test_batch_profiles_evaluate_no_lone_model(t, monkeypatch):
    models, lone = enumerate_models(t, 3), []

    def watched(m, phi, n, memo):
        if isinstance(m, FiniteModel):
            lone.append((m, phi, n))
        return extension(m, phi, n, memo)

    # extension recurses through the module name, so every call is seen
    monkeypatch.setattr(semantics, "extension", watched)
    for size in range(4):
        group = [m for m in models if m.size == size]
        for n in range(3):
            profile_bits(ModelBatch(group), enum_formulas(t.signature, n, 2, 200), n)
    assert not lone, lone[:3]
