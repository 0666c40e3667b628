import pytest

from test_iso_reference import reference_model_canonical

from cohlogic.semantics import (
    FiniteModel,
    SemanticsError,
    ctp,
    enumerate_models,
    eval_formula,
    is_model,
    model_from_json,
    model_to_json,
)
from cohlogic.syntax import (
    TOP,
    And,
    Atom,
    Eq,
    Exists,
    Or,
    enum_formulas,
    normalize,
    parse_theory,
    substitute,
)

PQR = parse_theory(
    "theory pqr\nsig { P/1, Q/1, R/1 }\naxiom [x,y] P(x) & Q(y) |- R(x) | R(y)\n"
)
PEQ = parse_theory(
    "theory peq\nsig { E/2 }\n"
    "axiom [x,y] E(x,y) |- E(y,x)\n"
    "axiom [x,y,z] E(x,y) & E(y,z) |- E(x,z)\n"
)

# two-element model: 0 plays a (P only), 1 plays c (P, Q, R)
M1 = FiniteModel(2, {"P": {(0,), (1,)}, "Q": {(1,)}, "R": {(1,)}})
# 0 plays b (Q only), 1 plays c
M2 = FiniteModel(2, {"P": {(1,)}, "Q": {(0,), (1,)}, "R": {(1,)}})

WITNESS = Exists(And((Atom("P", (1,)), Atom("Q", (1,)), Atom("R", (1,)))))


def test_eval_witness_formula():
    assert eval_formula(M1, WITNESS, ())
    assert eval_formula(M2, WITNESS, ())


def test_eval_empty_model():
    m = FiniteModel(0, {})
    assert not eval_formula(m, Exists(Eq(1, 1)), ())
    assert eval_formula(m, TOP, ())


def test_eval_atom_at_point():
    assert not eval_formula(M1, Atom("R", (1,)), (0,))
    assert eval_formula(M1, Atom("P", (1,)), (0,))


def test_eval_assignment_outside_carrier_is_false():
    # a tuple index computed from such entries would alias another tuple
    # (entry 2 of a 2-element carrier) or shift by a negative count
    m = FiniteModel(2, {"E": {(0, 0), (0, 1), (1, 0), (1, 1)}})
    for phi in (TOP, Atom("E", (1, 2)), Or((Eq(1, 2), TOP))):
        for a in ((0, 2), (2, 0), (1, 3), (-1, 0), (0, -1), (-1, -1), (5, 5)):
            assert eval_formula(m, phi, a) is False, (phi, a)
        assert eval_formula(m, phi, (1, 1)) is True
    for a in ((2,), (-1,), (-2,)):
        assert eval_formula(M1, TOP, a) is False
        assert eval_formula(M1, Atom("P", (1,)), a) is False
    assert eval_formula(FiniteModel(0, {}), TOP, (0,)) is False


def test_is_model():
    assert is_model(M1, PQR)
    assert is_model(M2, PQR)
    bad = FiniteModel(1, {"P": {(0,)}, "Q": {(0,)}, "R": set()})
    assert not is_model(bad, PQR)
    assert is_model(FiniteModel(0, {}), PQR)


def test_is_model_leaves_missing_tables_missing():
    # a symbol without a table is read as empty; the model is not changed
    for tables, expected in (({"P": {(0,)}, "Q": set()}, True),
                             ({"P": {(0,)}, "Q": {(0,)}}, False)):
        m = FiniteModel(1, tables)
        before, h = dict(m.tables), hash(m)
        assert is_model(m, PQR) == expected
        assert m.tables == before and hash(m) == h


def test_enumerate_models_pqr_size1():
    ms = enumerate_models(PQR, 1)
    # empty model plus 7 of the 8 single-point valuations
    assert len(ms) == 8
    assert ms[0].size == 0


def test_enumerate_models_empty_signature():
    t = parse_theory("theory nothing\nsig { }\n")
    ms = enumerate_models(t, 2)
    assert [m.size for m in ms] == [0, 1, 2]


def test_enumerate_models_peq_size1():
    ms = enumerate_models(PEQ, 1)
    assert len(ms) == 3


def test_enumerate_models_no_isomorphic_pairs():
    ms = enumerate_models(PQR, 2)
    keys = [reference_model_canonical(m) for m in ms]
    assert len(keys) == len(set(keys))


def test_ctp_contains_p_not_r():
    fs = enum_formulas(PQR.signature, 1, 1)
    p = ctp(M1, (0,), PQR, 1)
    assert p >> fs.index(Atom("P", (1,))) & 1
    assert not p >> fs.index(Atom("R", (1,))) & 1


def test_ctp_zero_types_agree():
    for d in (0, 1, 2):
        assert ctp(M1, (), PQR, d) == ctp(M2, (), PQR, d)


def test_ctp_contains_top():
    fs = enum_formulas(PQR.signature, 1, 0)
    p = ctp(M1, (1,), PQR, 0)
    assert p >> fs.index(TOP) & 1


def test_ctp_permutation_compatible():
    # profile of a permuted tuple agrees with substituted formulas
    m = FiniteModel(2, {"E": {(0, 1)}})
    fs = enum_formulas(PEQ.signature, 2, 1)
    for a in ((0, 1), (1, 0)):
        swapped = (a[1], a[0])
        for phi in fs:
            assert eval_formula(m, substitute(phi, (2, 1), 2), a) == eval_formula(
                m, phi, swapped
            )


def test_model_json_roundtrip():
    assert model_from_json(model_to_json(M1)) == M1


def test_ext_distributes():
    phi = And((Atom("P", (1,)), Or((Atom("Q", (1,)), Atom("R", (1,))))))
    psi = Or((And((Atom("P", (1,)), Atom("Q", (1,)))), And((Atom("P", (1,)), Atom("R", (1,))))))
    for m in enumerate_models(PQR, 2):
        assert m.ext(phi, 1) == m.ext(psi, 1)


def test_out_of_range_tuple_rejected():
    with pytest.raises(SemanticsError):
        FiniteModel(1, {"P": {(1,)}})
