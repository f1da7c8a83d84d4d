"""Guard translations reproduce the three restricted consequence relations."""

import itertools
import random

import pytest

from bd4.parser import _quote
from bd4.semantics import consequence_fo, consequence_prop
from bd4.simulation import (
    EXTENSION_MODES, translation_sets, verify_simulation,
)
from bd4.syntax import (
    And, Falsity, Imp, Not, Or, Pred, Prop, Signature, Var, print_formula,
)
from bd4.values import ALL_VALUES, CL_VALUES, K3_VALUES, LP_VALUES

p, q = Prop("p"), Prop("q")


def test_guard_shapes():
    guards = translation_sets([p], [p], "lp")
    assert {print_formula(g) for g in guards} == {"~(p | ~p -> F)"}
    guards = translation_sets([p], [p], "k3")
    assert {print_formula(g) for g in guards} == {"p & ~p -> F"}
    guards = translation_sets([p], [p], "cl")
    assert len(guards) == 2


def test_guards_cover_falsity_atom():
    guards = translation_sets([Imp(p, Falsity())], [], "k3")
    printed = {print_formula(g) for g in guards}
    assert "F & ~F -> F" in printed
    assert "p & ~p -> F" in printed


def test_unknown_mode_rejected():
    """One short ValueError from both functions, the mode clipped."""
    for mode in ("zz", "bd", "m" * 200):
        for check in (translation_sets, verify_simulation):
            with pytest.raises(ValueError) as err:
                check([p], [q], mode)
            assert str(err.value) == "unknown extension mode " + _quote(mode)
            assert len(str(err.value)) < 100


def test_display_cases():
    # explosion holds in k3 and cl but not lp; excluded middle dually
    contradiction = And(p, Not(p))
    lem = Or(p, Not(p))
    for mode, gamma, delta, expected in [
        ("k3", [contradiction], [q], True),
        ("cl", [contradiction], [q], True),
        ("lp", [contradiction], [q], False),
        ("lp", [], [lem], True),
        ("cl", [], [lem], True),
        ("k3", [], [lem], False),
    ]:
        chk = verify_simulation(gamma, delta, mode)
        assert chk.ok, (mode, chk)
        assert chk.restricted is expected


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([p, q, Falsity()])
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_formula(rng, depth - 1))
    a = random_formula(rng, depth - 1)
    b = random_formula(rng, depth - 1)
    return (And, Or, Imp)[kind - 1](a, b)


def test_sampled_biconditional_all_modes():
    rng = random.Random(7)
    checked = 0
    for _ in range(400):
        gamma = [random_formula(rng, 3) for _ in range(rng.randrange(3))]
        delta = [random_formula(rng, 3) for _ in range(rng.randrange(1, 3))]
        for mode in EXTENSION_MODES:
            chk = verify_simulation(gamma, delta, mode)
            assert chk.ok, (mode, gamma, delta, chk.witness)
            checked += 1
    assert checked == 1200


def test_exhaustive_shallow_biconditional():
    pool = [p, q, Not(p), And(p, q), Or(p, Not(q)), Imp(p, q), Falsity()]
    for left, right in itertools.product(pool, repeat=2):
        for mode in EXTENSION_MODES:
            assert verify_simulation([left], [right], mode).ok


def test_restricted_consequences_nest():
    # anything base gives, every extension gives; cl extends lp and k3
    rng = random.Random(99)
    for _ in range(150):
        gamma = [random_formula(rng, 2) for _ in range(rng.randrange(2))]
        delta = [random_formula(rng, 2) for _ in range(1, 2)]
        base, _ = consequence_prop(gamma, delta, ALL_VALUES)
        lp, _ = consequence_prop(gamma, delta, LP_VALUES)
        k3, _ = consequence_prop(gamma, delta, K3_VALUES)
        cl, _ = consequence_prop(gamma, delta, CL_VALUES)
        if base:
            assert lp and k3 and cl
        if lp or k3:
            assert cl


def test_first_order_restriction_spot_check():
    # the same value-set restriction applies to quantified consequence
    sig = Signature(functions=(("c", 0),), predicates=(("P", 1),))
    x = Var("x")
    lem = Or(Pred("P", (x,)), Not(Pred("P", (x,))))
    from bd4.syntax import Forall
    goal = Forall("x", lem)
    base = consequence_fo([], [goal], sig, max_domain=2)
    assert not base.holds
    lp = consequence_fo([], [goal], sig, max_domain=2, allowed=LP_VALUES)
    assert lp.holds
