"""Differential test: the stability pass against the one it replaced.

``reference_stability`` is ``typespace._stability`` as it was before it read
the deeper half off its existentials: it profiles every formula of
``approx.formulas[n]`` over the models of size B+1, and every formula of
``enum_formulas(sig, n, d + 1, cap)`` over the models up to B.
``_stability`` profiles only the members of these lists that are no meet or
join, and runs the depth-(d+1) generation only up to the formula that
decides the verdict; where the cap cuts the list before that formula, the
run is the whole list.  The two must agree on every arity of a corpus of
eleven theories, bounds B of 1 to 3, depths 0 to 2 and caps from 600 down
to 1; at the small caps the cap does cut the list before that formula.

The file also checks the two facts ``_stability``'s docstring rests on, on
the corpus of ``tests/test_enum_reference.py``: every part of every meet
and join of an ``enum_formulas`` list is in the list, and the generation
cut at a formula (``syntax._enum``'s ceiling) holds the formula
exactly when the full list does, and is the full list when it does not,
for every level-0 formula and every existential of a body, up to the
first one past the cap.
"""

import pytest
from test_enum_reference import CORPUS, THEORIES as ENUM_THEORIES

from cohlogic import typespace
from cohlogic.semantics import enumerate_models, model_profiles
from cohlogic.syntax import (
    And,
    Exists,
    Or,
    _enum,
    enum_formulas,
    exists,
    parse_theory,
)
from cohlogic.typespace import compute_typespace


def reference_stability(t, approx, bigger):
    """The stability pass with the depth-(d+1) list in full."""
    out = []
    for n in range(approx.N + 1):
        known = set(approx.points[n])
        new = ({bits for prof in model_profiles(bigger[c:c + 64],
                                                approx.formulas[n], n)
                for bits in prof}
               for c in range(0, len(bigger), 64))
        if any(bits not in known for found in new for bits in found):
            out.append(False)
            continue
        deeper = enum_formulas(t.signature, n, approx.d + 1, approx.cap)
        profiles = model_profiles(approx.models, deeper, n)
        out.append(len({bits for prof in profiles for bits in prof})
                   == len(approx.points[n]))
    return tuple(out)


THEORIES = {
    **ENUM_THEORIES,
    "edge": parse_theory("theory edge\nsig { E/2 }\n"),
    "serial": parse_theory(
        "theory serial\nsig { E/2 }\naxiom [x] true |- exists y. E(x,y)\n"),
    "disjoint": parse_theory(
        "theory disjoint\nsig { P/1, Q/1 }\naxiom [x] P(x) & Q(x) |- false\n"),
    "inhabited": parse_theory(
        "theory inhabited\nsig { P/1 }\naxiom [] true |- exists x. P(x)\n"),
    "prop": parse_theory("theory prop\nsig { A/0, B/0, C/0 }\naxiom [] A |- B | C\n"),
    "mixed": parse_theory("theory mixed\nsig { A/0, P/1 }\naxiom [x] P(x) |- A\n"),
}
# models of size 4 over two free binary relations or three free unary ones
# take the most time; their bound stops at 2
SMALL = {"free", "edge", "serial"}
CAPS = [600, 200, 40, 16, 5, 1]


def _count_cuts(monkeypatch):
    """Record, for each ceiling run of typespace, whether the cap cut the
    list before its ceiling, so that the run is the whole list."""
    cuts = []

    def counted(sig, n, depth, cap, ceiling=None):
        out = _enum(sig, n, depth, cap, ceiling)
        cuts.append(ceiling not in out)
        return out

    monkeypatch.setattr(typespace, "_enum", counted)
    return cuts


@pytest.mark.parametrize("cap", CAPS)
def test_stability_matches_reference(cap, monkeypatch):
    cuts = _count_cuts(monkeypatch)
    diffs = []
    for name, t in THEORIES.items():
        for B in (1, 2) if name in SMALL else (1, 2, 3):
            every = enumerate_models(t, B + 1)
            for d in (0, 1, 2):
                a = compute_typespace(t, N=2, B=B, d=d, cap=cap,
                                      check_stability=False)
                bigger = every[len(a.models):]
                got = typespace._stability(t, a, bigger)
                if got != reference_stability(t, a, bigger):
                    diffs.append((name, B, d, got))
    assert not diffs
    # the cap cuts the depth-(d+1) list before the deciding formula never
    # at the default cap on this corpus, and at the small caps it does, so
    # both cases of the verdict are checked
    if cap == 600:
        assert not any(cuts)
    if cap <= 40:
        assert any(cuts)


def test_default_typespace_builds_no_deeper_list(monkeypatch):
    cuts = _count_cuts(monkeypatch)
    a = compute_typespace(THEORIES["peq"])
    assert a.stable_arities == (True, True, True)
    assert cuts and not any(cuts)


@pytest.mark.parametrize("name,n,d,cap", CORPUS)
def test_lists_hold_the_parts_of_their_junctions(name, n, d, cap):
    formulas = enum_formulas(THEORIES[name].signature, n, d, cap)
    kept = set(formulas)
    for p in formulas:
        if isinstance(p, (And, Or)):
            assert kept.issuperset(p.parts), p


@pytest.mark.parametrize("name,n,d,cap", [c for c in CORPUS if c[3]])
def test_ceiling_run_decides_membership(name, n, d, cap):
    sig = THEORIES[name].signature
    full = tuple(enum_formulas(sig, n, d, cap))
    kept = set(full)
    # one body past the cap: its existential is no candidate of the list
    bodies = enum_formulas(sig, n + 1, max(d - 1, 0), cap + 1)
    candidates = enum_formulas(sig, n, 0, cap) + [exists(b) for b in bodies]
    for phi in candidates:
        cut = _enum(sig, n, d, cap, phi)
        member = phi in cut
        assert member == (phi in kept), phi
        # a candidate the cut run lacks lies past the cap: the run is whole
        assert member or cut == full, phi
        if isinstance(phi, Exists) and not member:
            break  # the first existential past the cap
