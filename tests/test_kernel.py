"""Kernel checking: rule shapes, violation codes, side conditions."""

import collections
import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bd4 import acceptance
from bd4.kernel import (
    _EIGEN, _TERM, Code, Derivation, DerivationStep, PACKS, RULES, Violation,
    _check_cut, _Letter, check_derivation, is_proof,
)
from bd4.proofio import print_derivation
from bd4.search import SearchBudget, prove_prop
from bd4.semantics import PropSpace
from bd4.syntax import (
    And, Eq, Exists, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, Var, free_vars, is_literal, print_formula, replace,
)

from support import (
    BASE_RULES, PACK_RULES, _match, check_step, derives, reference_additions,
    reference_backward, reference_bind, reference_fill,
)
from test_syntax import _FORMULA

p, q, r = Prop("p"), Prop("q"), Prop("r")
x, y = Var("x"), Var("y")
c, d = Fun("c"), Fun("d")
P = lambda t: Pred("P", (t,))


def ok(steps, packs=(), hypotheses=()):
    good, v = check_derivation(
        Derivation(tuple(steps), frozenset(packs), tuple(hypotheses)))
    assert good, v
    return Derivation(tuple(steps), frozenset(packs), tuple(hypotheses))


def bad(steps, code, packs=(), hypotheses=()):
    good, v = check_derivation(
        Derivation(tuple(steps), frozenset(packs), tuple(hypotheses)))
    assert not good
    assert v.code == code, (v.code, code, v.detail)
    return v


def test_rule_table_covers_advertised_surface():
    assert len(BASE_RULES) == 28
    assert set(PACK_RULES) == {"not-L", "not-R", "Den-L", "Den-R"}
    assert PACKS == ("notLR", "den")


def test_id_needs_shared_literal():
    ok([DerivationStep("Id", Sequent.of([p, q], [r, p]), principal=p)])
    bad([DerivationStep("Id", Sequent.of([And(p, q)], [And(p, q)]),
                        principal=And(p, q))], Code.LITERAL_REQUIRED)
    bad([DerivationStep("Id", Sequent.of([p], [q]), principal=p)],
        Code.CONCLUSION_MISMATCH)


def test_falsity_axioms():
    ok([DerivationStep("F-L", Sequent.of([Falsity(), p], [q]))])
    ok([DerivationStep("notF-R", Sequent.of([p], [Not(Falsity())]))])
    bad([DerivationStep("F-L", Sequent.of([p], [q]))],
        Code.CONCLUSION_MISMATCH)


def test_the_falsity_axioms_are_filled_once():
    for name in ("F-L", "notF-R"):
        rule = RULES[name]
        step = DerivationStep(name, Sequent.of(), principal=p)
        assert rule.additions(step) == rule.filled(reference_bind(rule, step))
        assert rule.additions(step) == rule.filled({})
        # each side is one tuple, compiled once: a call builds no side
        again = rule.additions(replace(step, principal=q))
        assert all(side is same for side, same
                   in zip(rule.additions(step)[0], again[0]))
    assert {name for name, rule in RULES.items()
            if not rule.needs} == {"F-L", "notF-R"}
    # any principal is ignored, and the violations are as before
    for step, want in (
            (DerivationStep("notF-R", Sequent.of([p], [q]), principal=p),
             (False, Violation(0, Code.CONCLUSION_MISMATCH,
                               "~F missing on the right"))),
            (DerivationStep("F-L", Sequent.of([p], [q]), principal=3),
             (False, Violation(0, Code.CONCLUSION_MISMATCH,
                               "F missing on the left"))),
            (DerivationStep("F-L", Sequent.of([Falsity()], [q]),
                            premises=(0,)),
             (False, Violation(0, Code.BAD_PREMISE_INDEX,
                               "F-L takes 0 premises, got 1"))),
            (DerivationStep("notF-R", Sequent.of([p], [Not(Falsity())]),
                            principal="junk"), (True, None))):
        assert check_derivation(Derivation((step,))) == want


def test_conjunction_rules():
    ok([
        DerivationStep("Id", Sequent.of([p, q], [p]), principal=p),
        DerivationStep("and-L", Sequent.of([And(p, q)], [p]),
                       premises=(0,), principal=And(p, q)),
    ])
    ok([
        DerivationStep("Id", Sequent.of([p, q], [p]), principal=p),
        DerivationStep("Id", Sequent.of([p, q], [q]), principal=q),
        DerivationStep("and-R", Sequent.of([p, q], [And(p, q)]),
                       premises=(0, 1), principal=And(p, q)),
    ])


def test_disjunction_rules():
    ok([
        DerivationStep("Id", Sequent.of([p], [p, q]), principal=p),
        DerivationStep("or-R", Sequent.of([p], [Or(p, q)]),
                       premises=(0,), principal=Or(p, q)),
    ])
    ok([
        DerivationStep("Id", Sequent.of([p], [p, q]), principal=p),
        DerivationStep("Id", Sequent.of([q], [p, q]), principal=q),
        DerivationStep("or-L", Sequent.of([Or(p, q)], [p, q]),
                       premises=(0, 1), principal=Or(p, q)),
    ])


def test_implication_rules():
    ok([
        DerivationStep("Id", Sequent.of([p], [p, q]), principal=p),
        DerivationStep("Id", Sequent.of([p, q], [q]), principal=q),
        DerivationStep("imp-L", Sequent.of([p, Imp(p, q)], [q]),
                       premises=(0, 1), principal=Imp(p, q)),
    ])
    ok([
        DerivationStep("Id", Sequent.of([p], [p]), principal=p),
        DerivationStep("imp-R", Sequent.of([], [Imp(p, p)]),
                       premises=(0,), principal=Imp(p, p)),
    ])


def test_negation_normal_form_rules():
    nn = Not(Not(p))
    ok([
        DerivationStep("Id", Sequent.of([p], [p]), principal=p),
        DerivationStep("notnot-L", Sequent.of([nn], [p]),
                       premises=(0,), principal=nn),
    ])
    ok([
        DerivationStep("Id", Sequent.of([p], [p]), principal=p),
        DerivationStep("notnot-R", Sequent.of([p], [nn]),
                       premises=(0,), principal=nn),
    ])
    na = Not(And(p, q))
    ok([
        DerivationStep("Id", Sequent.of([Not(p)], [Not(p), Not(q)]),
                       principal=Not(p)),
        DerivationStep("Id", Sequent.of([Not(q)], [Not(p), Not(q)]),
                       principal=Not(q)),
        DerivationStep("notand-L", Sequent.of([na], [Not(p), Not(q)]),
                       premises=(0, 1), principal=na),
        DerivationStep("notand-R", Sequent.of([na], [Not(And(p, q))]),
                       premises=(2,), principal=Not(And(p, q))),
    ])
    no = Not(Or(p, q))
    ok([
        DerivationStep("Id", Sequent.of([Not(p), Not(q)], [Not(p)]),
                       principal=Not(p)),
        DerivationStep("notor-L", Sequent.of([no], [Not(p)]),
                       premises=(0,), principal=no),
    ])
    ok([
        DerivationStep("Id", Sequent.of([Not(p)], [Not(p)]),
                       principal=Not(p)),
        DerivationStep("Id", Sequent.of([Not(q)], [Not(q)]),
                       principal=Not(q)),
    ])
    ni = Not(Imp(p, q))
    ok([
        DerivationStep("Id", Sequent.of([p, Not(q)], [p]), principal=p),
        DerivationStep("notimp-L", Sequent.of([ni], [p]),
                       premises=(0,), principal=ni),
    ])


def test_notor_r_and_notimp_r():
    no = Not(Or(p, q))
    ok([
        DerivationStep("Id", Sequent.of([Not(p), Not(q)], [Not(p)]),
                       principal=Not(p)),
        DerivationStep("Id", Sequent.of([Not(p), Not(q)], [Not(q)]),
                       principal=Not(q)),
        DerivationStep("notor-R", Sequent.of([Not(p), Not(q)], [no]),
                       premises=(0, 1), principal=no),
    ])
    ni = Not(Imp(p, q))
    ok([
        DerivationStep("Id", Sequent.of([p, Not(q)], [p]), principal=p),
        DerivationStep("Id", Sequent.of([p, Not(q)], [Not(q)]),
                       principal=Not(q)),
        DerivationStep("notimp-R", Sequent.of([p, Not(q)], [ni]),
                       premises=(0, 1), principal=ni),
    ])


def test_quantifier_rules_with_instantiation_records():
    all_px = Forall("x", P(x))
    ok([
        DerivationStep("Id", Sequent.of([P(c)], [P(c)]), principal=P(c)),
        DerivationStep("forall-L", Sequent.of([all_px], [P(c)]),
                       premises=(0,), principal=all_px, t=c),
    ])
    # forall x. P(x) proves itself via an eigenvariable detour
    ok([
        DerivationStep("Id", Sequent.of([P(y)], [P(y)]), principal=P(y)),
        DerivationStep("forall-L", Sequent.of([all_px], [P(y)]),
                       premises=(0,), principal=all_px, t=y),
        DerivationStep("forall-R", Sequent.of([all_px], [all_px]),
                       premises=(1,), principal=all_px, y="y"),
    ])
    ex_px = Exists("x", P(x))
    ok([
        DerivationStep("Id", Sequent.of([P(c)], [P(c)]), principal=P(c)),
        DerivationStep("exists-R", Sequent.of([P(c)], [ex_px]),
                       premises=(0,), principal=ex_px, t=c),
        DerivationStep("Id", Sequent.of([P(y)], [P(y)]), principal=P(y)),
        DerivationStep("exists-R", Sequent.of([P(y)], [ex_px]),
                       premises=(2,), principal=ex_px, t=y),
        DerivationStep("exists-L", Sequent.of([ex_px], [ex_px]),
                       premises=(3,), principal=ex_px, y="y"),
    ])


def test_eigenvariable_violation_reported():
    all_px = Forall("x", P(x))
    # y occurs free in the conclusion context, so freshness fails
    v = bad([
        DerivationStep("Id", Sequent.of([P(y)], [P(y)]), principal=P(y)),
        DerivationStep("forall-R", Sequent.of([P(y)], [all_px]),
                       premises=(0,), principal=all_px, y="y"),
    ], Code.EIGENVARIABLE)
    assert "y" in v.detail


def test_eigenvariable_in_principal_body():
    # y free in the quantified body itself (x != y), rejected up front
    bad_formula = Forall("x", And(P(x), P(y)))
    bad([
        DerivationStep("F-L", Sequent.of([Falsity()], [And(P(y), P(y))])),
        DerivationStep("forall-R", Sequent.of([Falsity()], [bad_formula]),
                       premises=(0,), principal=bad_formula, y="y"),
    ], Code.EIGENVARIABLE)


# each eigenvariable rule's principal over a body
EIGEN_PRINCIPALS = {
    "forall-R": lambda body: Forall("x", body),
    "exists-L": lambda body: Exists("x", body),
    "notforall-L": lambda body: Not(Forall("x", body)),
    "notexists-R": lambda body: Not(Exists("x", body)),
}


def _eigen_step(name, body, context, inst):
    """The step by the eigenvariable rule ``name`` with y="y" from a
    premise that holds ``inst``, the body at y (negated under a
    negation), and ``context``, one formula on the other side."""
    a = EIGEN_PRINCIPALS[name](body)
    if name.endswith("-L"):
        return ((inst,), (context,)), ((a,), (context,)), a
    return ((context,), (inst,)), ((context,), (a,)), a


def test_the_eigenvariable_rules_are_the_four_quantifier_rules_above():
    assert {name for name, rule in RULES.items() if rule.eigen} == set(
        EIGEN_PRINCIPALS)


@pytest.mark.parametrize("name", sorted(EIGEN_PRINCIPALS))
def test_eigenvariable_free_in_the_conclusion_context(name):
    """Id on A(y) => A(y), then the rule to its principal: y stays free
    in the formula the context keeps on the other side."""
    inst = Not(P(y)) if name.startswith("not") else P(y)
    premise, conclusion, a = _eigen_step(name, P(x), inst, inst)
    good, v = check_derivation(Derivation((
        DerivationStep("Id", Sequent.of(*premise), principal=inst),
        DerivationStep(name, Sequent.of(*conclusion), premises=(0,),
                       principal=a, y="y"))))
    assert (good, v) == (False, Violation(
        1, Code.EIGENVARIABLE, "y is free in the conclusion context"))


@pytest.mark.parametrize("name", sorted(EIGEN_PRINCIPALS))
def test_eigenvariable_free_in_the_quantified_formula(name):
    """F-L closes the premise; y is free in the body beside x."""
    body, inst = And(P(x), P(y)), And(P(y), P(y))
    if name.startswith("not"):
        inst = Not(inst)
    (pa, ps), (ca, cs), a = _eigen_step(name, body, Prop("s"), inst)
    good, v = check_derivation(Derivation((
        DerivationStep("F-L", Sequent.of(pa + (Falsity(),), ps)),
        DerivationStep(name, Sequent.of(ca + (Falsity(),), cs),
                       premises=(0,), principal=a, y="y"))))
    assert (good, v) == (False, Violation(
        1, Code.EIGENVARIABLE, "y is free in the quantified formula"))


def test_not_quantifier_rules():
    nall = Not(Forall("x", P(x)))
    ex_n = Exists("x", Not(P(x)))
    # not-forall-L pairs with exists-R: ~forall x. P(x) |- exists x. ~P(x)
    ok([
        DerivationStep("Id", Sequent.of([Not(P(y))], [Not(P(y))]),
                       principal=Not(P(y))),
        DerivationStep("exists-R", Sequent.of([Not(P(y))], [ex_n]),
                       premises=(0,), principal=ex_n, t=y),
        DerivationStep("notforall-L", Sequent.of([nall], [ex_n]),
                       premises=(1,), principal=nall, y="y"),
    ])
    ok([
        DerivationStep("Id", Sequent.of([Not(P(c))], [Not(P(c))]),
                       principal=Not(P(c))),
        DerivationStep("notforall-R", Sequent.of([Not(P(c))], [nall]),
                       premises=(0,), principal=nall, t=c),
    ])
    nex = Not(Exists("x", P(x)))
    ok([
        DerivationStep("Id", Sequent.of([Not(P(c))], [Not(P(c))]),
                       principal=Not(P(c))),
        DerivationStep("notexists-L", Sequent.of([nex], [Not(P(c))]),
                       premises=(0,), principal=nex, t=c),
    ])
    # not-exists-R dually needs its eigenvariable out of the conclusion
    all_n = Forall("x", Not(P(x)))
    ok([
        DerivationStep("Id", Sequent.of([Not(P(y))], [Not(P(y))]),
                       principal=Not(P(y))),
        DerivationStep("forall-L", Sequent.of([all_n], [Not(P(y))]),
                       premises=(0,), principal=all_n, t=y),
        DerivationStep("notexists-R", Sequent.of([all_n], [nex]),
                       premises=(1,), principal=nex, y="y"),
    ])


def test_equality_rules():
    ok([
        DerivationStep("Id", Sequent.of([Eq(c, c)], [Eq(c, c)]),
                       principal=Eq(c, c)),
        DerivationStep("eq-Refl", Sequent.of([], [Eq(c, c)]),
                       premises=(0,), t=c),
    ])
    # replacement: from d=c, P(c) conclude P(d)
    ok([
        DerivationStep("Id", Sequent.of([P(d)], [P(d)]), principal=P(d)),
        DerivationStep("eq-Repl", Sequent.of([Eq(d, c), P(c)], [P(d)]),
                       premises=(0,), principal=P(x), x="x", t=d, t2=c),
    ])


def test_eq_repl_requires_literal_principal():
    compound = And(P(x), P(x))
    bad([
        DerivationStep("F-L", Sequent.of(
            [Falsity(), Eq(d, c), And(P(d), P(d))], [p])),
        DerivationStep("eq-Repl",
                       Sequent.of([Falsity(), Eq(d, c), And(P(c), P(c))],
                                  [p]),
                       premises=(0,), principal=compound, x="x", t=d, t2=c),
    ], Code.LITERAL_REQUIRED)


def test_cut_requires_hypothesis_or_closes():
    hyp = Sequent.of([p], [q])
    ok([
        DerivationStep("hypothesis", hyp),
        DerivationStep("Id", Sequent.of([q], [q]), principal=q),
        DerivationStep("Cut", Sequent.of([p], [q]),
                       premises=(0, 1), principal=q),
    ], hypotheses=[hyp])
    bad([DerivationStep("hypothesis", hyp)], Code.HYPOTHESIS_NOT_DECLARED)


def test_pack_gating():
    steps = [
        DerivationStep("Id", Sequent.of([p], [p]), principal=p),
        DerivationStep("not-R", Sequent.of([], [p, Not(p)]),
                       premises=(0,), principal=Not(p)),
    ]
    bad(steps, Code.PACK_DISABLED)
    ok(steps, packs=["notLR"])
    k3 = [
        DerivationStep("Id", Sequent.of([p], [p, q]), principal=p),
        DerivationStep("not-L", Sequent.of([p, Not(p)], [q]),
                       premises=(0,), principal=Not(p)),
    ]
    bad(k3, Code.PACK_DISABLED)
    ok(k3, packs=["notLR"])


def test_den_rules():
    den = Or(Eq(c, d), Not(Eq(c, d)))
    ok([
        DerivationStep("Id", Sequent.of([Eq(c, c), Eq(d, d)], [Eq(c, c)]),
                       principal=Eq(c, c)),
        DerivationStep("Den-L", Sequent.of([den], [Eq(c, c)]),
                       premises=(0,), t=c, t2=d),
    ], packs=["den"])
    ok([
        DerivationStep("Id", Sequent.of([Eq(c, c)], [Eq(c, c)]),
                       principal=Eq(c, c)),
        DerivationStep("eq-Refl", Sequent.of([], [Eq(c, c)]),
                       premises=(0,), t=c),
        DerivationStep("Id", Sequent.of([Eq(d, d)], [Eq(d, d)]),
                       principal=Eq(d, d)),
        DerivationStep("eq-Refl", Sequent.of([], [Eq(d, d)]),
                       premises=(2,), t=d),
        DerivationStep("Den-R", Sequent.of([], [den]),
                       premises=(1, 3), t=c, t2=d),
    ], packs=["den"])


def test_bookkeeping_codes():
    bad([DerivationStep("NoSuchRule", Sequent.of([p], [p]))],
        Code.UNKNOWN_RULE)
    bad([DerivationStep("and-L", Sequent.of([And(p, q)], [p]),
                        premises=(5,), principal=And(p, q))],
        Code.BAD_PREMISE_INDEX)
    bad([DerivationStep("and-L", Sequent.of([And(p, q)], [p]),
                        premises=(0,), principal=And(p, q))],
        Code.BAD_PREMISE_INDEX)  # self-reference is out of range too
    bad([
        DerivationStep("Id", Sequent.of([p, q], [p]), principal=p),
        DerivationStep("and-L", Sequent.of([And(p, q)], [p]),
                       premises=(0,)),
    ], Code.MISSING_FIELD)
    bad([
        DerivationStep("Id", Sequent.of([p, q], [p]), principal=p),
        DerivationStep("and-L", Sequent.of([Or(p, q)], [p]),
                       premises=(0,), principal=Or(p, q)),
    ], Code.PRINCIPAL_SHAPE)
    good, v = check_derivation(Derivation(()))
    assert not good and v.code == Code.EMPTY_DERIVATION
    good, v = check_derivation(Derivation(
        (DerivationStep("Id", Sequent.of([p], [p]), principal=p),),
        packs=frozenset({"nope"})))
    assert not good and v.code == Code.PACK_DISABLED


def test_premise_mismatch_detail_names_expected_sequent():
    v = bad([
        DerivationStep("Id", Sequent.of([p], [p]), principal=p),
        DerivationStep("and-L", Sequent.of([And(p, q)], [p]),
                       premises=(0,), principal=And(p, q)),
    ], Code.PREMISE_MISMATCH)
    assert "expected" in v.detail


def test_weakening_is_absorbed_by_id():
    # Id carries arbitrary extra context on both sides
    ok([DerivationStep("Id", Sequent.of([p, q, r], [p, Falsity()]),
                       principal=p)])


def test_derives_and_is_proof():
    d = ok([
        DerivationStep("Id", Sequent.of([p, q], [p]), principal=p),
        DerivationStep("and-L", Sequent.of([And(p, q)], [p]),
                       premises=(0,), principal=And(p, q)),
    ])
    assert is_proof(d)
    assert derives([And(p, q), r], [p, q], d)
    assert not derives([r], [p], d)
    hyp = Sequent.of([p], [q])
    dh = Derivation((DerivationStep("hypothesis", hyp),), hypotheses=(hyp,))
    assert check_derivation(dh)[0] and not is_proof(dh)


def equality_axioms(sig: Signature):
    """The equality axiom set for a signature: reflexivity, c = c per
    constant, p implies p per proposition, and one congruence formula
    per function and predicate symbol."""
    out = [Forall("x", Eq(Var("x"), Var("x")))]
    for name in sig.constants:
        out.append(Eq(Fun(name), Fun(name)))
    for name, arity in sig.functions:
        if arity == 0:
            continue
        xs = [Var("x%d" % (i + 1)) for i in range(arity)]
        ys = [Var("y%d" % (i + 1)) for i in range(arity)]
        ant = Eq(xs[0], ys[0])
        for i in range(1, arity):
            ant = And(ant, Eq(xs[i], ys[i]))
        body = Imp(ant, Eq(Fun(name, tuple(xs)), Fun(name, tuple(ys))))
        for i in reversed(range(arity)):
            body = Forall(xs[i].name, Forall(ys[i].name, body))
        out.append(body)
    for name in sig.propositions:
        out.append(Imp(Prop(name), Prop(name)))
    for name, arity in sig.predicates:
        if arity == 0:
            continue
        xs = [Var("x%d" % (i + 1)) for i in range(arity)]
        ys = [Var("y%d" % (i + 1)) for i in range(arity)]
        ant = Eq(xs[0], ys[0])
        for i in range(1, arity):
            ant = And(ant, Eq(xs[i], ys[i]))
        ant = And(ant, Pred(name, tuple(xs)))
        body = Imp(ant, Pred(name, tuple(ys)))
        for i in reversed(range(arity)):
            body = Forall(xs[i].name, Forall(ys[i].name, body))
        out.append(body)
    return tuple(out)


def test_equality_axioms_shapes():
    sig = Signature(
        functions=(("c", 0), ("f", 1)),
        predicates=(("P", 1), ("p", 0)))
    axs = equality_axioms(sig)
    printed = [print_formula(a) for a in axs]
    assert "forall x. x = x" in printed
    assert "c = c" in printed
    assert "p -> p" in printed
    assert any("f(x1) = f(y1)" in s for s in printed)
    assert any("P(x1)" in s and "P(y1)" in s for s in printed)


# ---------------------------------------------------------------------------
# additions kept on the principal

KEPT = [rule for rule in RULES.values() if rule.backward]
FILLED_PER_CALL = {
    "Cut", "F-L", "notF-R", "eq-Refl", "eq-Repl", "Den-L", "Den-R"}


def test_the_rules_whose_additions_are_kept():
    assert len(KEPT) == 17
    assert {rule.needs for rule in KEPT} == {("principal",)}
    unkept = {name for name, rule in RULES.items() if not rule.backward}
    assert unkept == FILLED_PER_CALL | {
        "forall-L", "forall-R", "exists-L", "exists-R", "notforall-L",
        "notforall-R", "notexists-L", "notexists-R"}
    assert {name for name, rule in RULES.items()
            if rule.keep is None} == FILLED_PER_CALL


def test_one_reading_keeps_exactly_the_rows_that_keep():
    """After one ``additions`` call on a fresh principal, each of the 25
    rows that keep has left its one key, (name, t or y), in the
    principal's ``_premises`` dict, with the premises' additions, and
    each of the seven rows filled per call has left none."""
    keeping = set()
    for k, rule in enumerate(RULES.values()):
        body = Pred("keep_probe_%d" % k, (Var("x"),))
        a = (rule.principal_of({"x": "x", "A": body, "B": body})
             if rule.pattern is not None else body)
        assert not hasattr(a, "_premises")
        step = DerivationStep(rule.name, Sequent.of(), principal=a, t=c,
                              t2=d, x="x", y="y")
        got = rule.additions(step)
        assert got == reference_additions(rule, step)
        kept = getattr(a, "_premises", {})
        if rule.name in FILLED_PER_CALL:
            assert kept == {}, rule.name
            continue
        by = getattr(step, rule.needs[1]) if rule.needs[1:] else None
        assert kept == {(rule.name, by): tuple(got[1:])}, rule.name
        keeping.add(rule.name)
    assert len(keeping) == 25 and len(FILLED_PER_CALL) == 7


def _assert_kept_additions_agree(a):
    for rule in KEPT:
        step = DerivationStep(rule.name, Sequent.of(), principal=a)
        want = reference_additions(rule, step)
        got = rule.additions(step)
        assert got == want, (rule.name, a)
        assert rule.additions(step) == got
        if got is not None:
            # a kept value never holds its own node
            assert all(a not in side for adds in got[1:] for side in adds)
            premises = rule.backward(Sequent.of([a], [a]), a)
            assert len(premises) == len(got) - 1
        # the premises themselves, against the row read by a walk
        s = Sequent.of([a, p, Not(r)], [a, q])
        assert rule.backward(s, a) == reference_backward(rule, s, a), (
            rule.name, a)


def _pool_principals():
    pools = (acceptance._PROP_POOL, acceptance._PROP_LITERALS,
             acceptance._FO_POOL, acceptance._FO_BODIES, acceptance._EQ_POOL,
             acceptance._EQ_X_LITERALS)
    letters = sorted(set().union(*pools), key=str)
    out = set(letters)
    for rule in KEPT:
        for a, b in itertools.product(letters, repeat=2):
            out.add(rule.principal_of({"x": "x", "A": a, "B": b}))
    return sorted(out, key=str)


def test_kept_additions_match_the_table_over_the_sampler_pools():
    principals = _pool_principals()
    for a in principals:
        _assert_kept_additions_agree(a)
    # every kept rule met its pattern and something else
    for rule in KEPT:
        hits = [a for a in principals if rule.additions(
            DerivationStep(rule.name, Sequent.of(), principal=a)) is not None]
        assert hits and (rule.name == "Id" or len(hits) < len(principals))


def _pool_steps():
    """Steps over the sampler's pools: every other principal above, the
    quantifier principals the sampler builds, its terms and two
    eigenvariables.  The steps carry no rule name, which no reader of a
    row looks at."""
    quantified = {rule.principal_of({"x": "x", "A": body})
                  for rule in RULES.values() if rule.needs in (_TERM, _EIGEN)
                  for body in acceptance._FO_BODIES}
    fields = list(itertools.product(acceptance._TERMS, acceptance._TERMS,
                                    ("y", "w")))
    rows = [(a, *tf) for a in sorted(quantified, key=str) for tf in fields]
    rows += [(a, *fields[i % len(fields)])
             for i, a in enumerate(_pool_principals()[::2])]
    return [DerivationStep(None, Sequent.of(), principal=a, t=t, t2=t2, x="x",
                           y=y) for a, t, t2, y in rows]


def test_every_rule_reads_a_step_as_before():
    """All 32 rules over ``_pool_steps``, with the principals that miss
    each pattern."""
    steps = _pool_steps()
    misses = set()
    for rule in RULES.values():
        got = [rule.additions(step) for step in steps]
        assert got == [reference_additions(rule, step) for step in steps]
        if None in got:
            misses.add(rule.name)
    assert misses == {name for name, rule in RULES.items()
                      if rule.pattern is not None
                      and not isinstance(rule.pattern, _Letter)}


def test_compiled_fills_match_a_walk_of_the_templates():
    """Every rule's compiled fills, and each principal it builds, against
    the templates filled by a walk, under the bindings of each step."""
    steps = _pool_steps()
    filled = 0
    for rule in RULES.values():
        for step in steps:
            env = reference_bind(rule, step)
            if env is None:
                continue
            want = [tuple(tuple(reference_fill(f, env) for f in side)
                          for side in adds)
                    for adds in (rule.conclusion,) + rule.premises]
            assert rule.filled(env) == want, (rule.name, step)
            if rule.pattern is not None:
                assert rule.principal_of(env) == reference_fill(
                    rule.pattern, env) == step.principal
            filled += 1
    assert filled > 1000


_KTERM = st.sampled_from([x, y, c, d, Fun("f", (c,))])
_KFORMULA = st.recursive(
    st.one_of(st.sampled_from([p, q, r, Falsity()]), st.builds(P, _KTERM),
              st.builds(Eq, _KTERM, _KTERM)),
    lambda fs: st.one_of(
        st.builds(Not, fs), st.builds(And, fs, fs), st.builds(Or, fs, fs),
        st.builds(Imp, fs, fs), st.builds(Forall, st.sampled_from("xy"), fs),
        st.builds(Exists, st.sampled_from("xy"), fs)),
    max_leaves=8)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_KFORMULA)
def test_kept_additions_match_the_table(a):
    _assert_kept_additions_agree(a)


def _assert_matches_as_the_walk(rule, a):
    """The row's compiled match and a walk of its pattern give the same
    verdict and bind the same letters to the same parts, in one order."""
    got, want = {}, {}
    assert rule.match(a, got) == _match(rule.pattern, a, want), (rule.name, a)
    assert list(got.items()) == list(want.items()), (rule.name, a)


MATCHED = [rule for rule in RULES.values() if rule.pattern is not None]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_FORMULA, _FORMULA)
def test_each_row_matches_as_a_walk_of_its_pattern(a, b):
    """On formulas with terms, quantifiers and extras, and on each row's
    pattern filled from them, so that every row meets its pattern."""
    filled = [rule.principal_of({"x": "x", "A": a, "B": b})
              for rule in MATCHED]
    for rule in MATCHED:
        for principal in [a, b, *filled]:
            _assert_matches_as_the_walk(rule, principal)


@pytest.mark.parametrize("principal", [None, "p", 0, x, Fun("c", ())])
@pytest.mark.parametrize("name", list(RULES))
def test_a_principal_that_is_no_node_matches_as_the_walk(name, principal):
    """A pattern's head class is checked before any part is read; a row
    without a pattern takes any principal and binds nothing."""
    rule, env = RULES[name], {}
    if rule.pattern is not None:
        _assert_matches_as_the_walk(rule, principal)
    assert rule.match(principal, env) == (
        rule.pattern is None or isinstance(rule.pattern, _Letter))
    assert env == ({} if rule.pattern is None else {"A": principal}
                   if isinstance(rule.pattern, _Letter) else {})


def test_the_slots_of_every_row():
    ab, a = ("A", "B"), ("A",)
    assert {name: rule.slots for name, rule in RULES.items()} == {
        "Id": a, "Cut": a, "F-L": (), "notF-R": (), "and-L": ab,
        "and-R": ab, "or-L": ab, "or-R": ab, "imp-L": ab, "imp-R": ab,
        "forall-L": a, "forall-R": a, "exists-L": a, "exists-R": a,
        "notnot-L": a, "notnot-R": a, "notand-L": ab, "notand-R": ab,
        "notor-L": ab, "notor-R": ab, "notimp-L": ab, "notimp-R": ab,
        "notforall-L": a, "notforall-R": a, "notexists-L": a,
        "notexists-R": a, "eq-Refl": (), "eq-Repl": a, "not-L": a,
        "not-R": a, "Den-L": (), "Den-R": ()}


@pytest.mark.parametrize("principal", ["p", 3, x, Fun("c")])
@pytest.mark.parametrize("name", sorted(
    ["Cut", "forall-L", "eq-Repl"] + [rule.name for rule in KEPT]))
def test_a_principal_that_is_no_formula_is_a_violation(name, principal):
    hyps = (Sequent.of([p], [q]), Sequent.of([q], [p]))
    rule = RULES[name]
    step = DerivationStep(name, Sequent.of([p, q], [p]),
                          premises=tuple(range(len(rule.premises))),
                          principal=principal, t=c, t2=c, x="x", y="y")
    good, v = check_derivation(Derivation(
        tuple(DerivationStep("hypothesis", s) for s in hyps) + (step,),
        frozenset(PACKS), hyps))
    if name == "Cut":
        want = Violation(2, Code.PREMISE_MISMATCH,
                         "cut formula %s not in first premise succedent"
                         % principal)
    elif rule.literal:
        want = Violation(2, Code.LITERAL_REQUIRED, str(principal))
    else:
        want = Violation(2, Code.PRINCIPAL_SHAPE,
                         "%s cannot introduce %s" % (name, principal))
    assert not good and v == want


# ---------------------------------------------------------------------------
# the premise-matching loop against the one it replaced


def _subsets(items):
    items = tuple(items)
    for k in range(len(items) + 1):
        for combo in itertools.combinations(items, k):
            yield frozenset(combo)


def reference_check_step(d: Derivation, i: int):
    """``check_step`` as it was before its premise-matching loop was
    rewritten: one candidate Sequent per reading of the retained
    formulas, built from ``_subsets``; the additions and the eigenvariable
    check come from the letters bound as before ``Rule.additions`` took
    the step."""
    step = d.steps[i]
    if step.rule == "hypothesis":
        if step.premises:
            return Violation(i, Code.BAD_PREMISE_INDEX,
                             "hypothesis steps cite no premises")
        if step.sequent not in d.hypotheses:
            return Violation(i, Code.HYPOTHESIS_NOT_DECLARED, str(step.sequent))
        return None
    rule = RULES.get(step.rule)
    if rule is None:
        return Violation(i, Code.UNKNOWN_RULE, step.rule)
    if rule.pack is not None and rule.pack not in d.packs:
        return Violation(i, Code.PACK_DISABLED,
                         "%s needs pack %s" % (step.rule, rule.pack))
    if len(step.premises) != len(rule.premises):
        return Violation(i, Code.BAD_PREMISE_INDEX,
                         "%s takes %d premises, got %d"
                         % (step.rule, len(rule.premises), len(step.premises)))
    if any(not isinstance(j, int) or not 0 <= j < i for j in step.premises):
        return Violation(i, Code.BAD_PREMISE_INDEX,
                         "premise indices must point at earlier steps")
    for field in rule.needs:
        if getattr(step, field) is None:
            return Violation(i, Code.MISSING_FIELD,
                             "%s requires %s" % (step.rule, field))
    if rule.literal and not is_literal(step.principal):
        return Violation(i, Code.LITERAL_REQUIRED, str(step.principal))

    prem = [d.steps[j].sequent for j in step.premises]
    if step.rule == "Cut":
        return _check_cut(i, step, prem)

    adds = reference_additions(rule, step)
    if adds is None:
        return Violation(i, Code.PRINCIPAL_SHAPE,
                         "%s cannot introduce %s" % (step.rule, step.principal))
    (ca, cs), *padds = adds

    concl = step.sequent
    for a in ca:
        if a not in concl.ant:
            return Violation(i, Code.CONCLUSION_MISMATCH,
                             "%s missing on the left" % a)
    for a in cs:
        if a not in concl.suc:
            return Violation(i, Code.CONCLUSION_MISMATCH,
                             "%s missing on the right" % a)

    y = step.y
    env = reference_bind(rule, step) if rule.eigen else None
    if rule.eigen and y != env["x"] and y in free_vars(env["A"]):
        return Violation(i, Code.EIGENVARIABLE,
                         "%s is free in the quantified formula" % y)

    base_ant = concl.ant - frozenset(ca)
    base_suc = concl.suc - frozenset(cs)
    eigen_blocked = False
    for keep_a in _subsets(ca):
        for keep_s in _subsets(cs):
            gamma = base_ant | keep_a
            delta = base_suc | keep_s
            if any(p != Sequent(gamma.union(pa), delta.union(ps))
                   for p, (pa, ps) in zip(prem, padds)):
                continue
            if rule.eigen and any(y in free_vars(f) for f in gamma | delta):
                eigen_blocked = True
                continue
            return None
    if eigen_blocked:
        return Violation(i, Code.EIGENVARIABLE,
                         "%s is free in the conclusion context" % y)
    pa, ps = padds[0] if padds else ((), ())
    want = Sequent(base_ant.union(pa), base_suc.union(ps))
    return Violation(i, Code.PREMISE_MISMATCH,
                     "expected first premise like %s, got %s"
                     % (want, prem[0] if prem else "none"))


def reference_check_derivation(d: Derivation):
    for i in range(len(d.steps)):
        v = reference_check_step(d, i)
        if v is not None:
            return False, v
    return True, None


def _one_step(premises, step, packs):
    """The derivation of step from its premises cited as hypotheses."""
    premises = tuple(premises)
    return Derivation(
        tuple(DerivationStep("hypothesis", s) for s in premises)
        + (replace(step, premises=tuple(range(len(premises)))),),
        frozenset(packs), premises)


def _with(s: Sequent, side: str, a, add: bool) -> Sequent:
    part = getattr(s, side)
    return replace(s, **{side: part | {a} if add else part - {a}})


def _mutants(d: Derivation):
    """Single edits of the last step of a one-step derivation: a formula
    added to or dropped from one side of one premise (the principal
    among the added ones), a formula dropped from the conclusion, two
    premises swapped, and the eigenvariable made free in the context."""
    step, premises = d.steps[-1], d.hypotheses
    extra = [Prop("s")]
    if step.principal is not None:
        extra.append(step.principal)
    for k, s in enumerate(premises):
        for side in ("ant", "suc"):
            edits = [(a, True) for a in extra if a not in getattr(s, side)]
            edits += [(a, False) for a in getattr(s, side)]
            for a, add in edits:
                changed = list(premises)
                changed[k] = _with(s, side, a, add)
                yield _one_step(changed, step, d.packs)
    for side in ("ant", "suc"):
        for a in getattr(step.sequent, side):
            yield _one_step(premises, replace(
                step, sequent=_with(step.sequent, side, a, False)), d.packs)
    if len(premises) == 2:
        yield _one_step(premises[::-1], step, d.packs)
    free = Pred("P", (Var("y"),))
    for side in ("ant", "suc"):
        yield _one_step([_with(s, side, free, True) for s in premises],
                        replace(step, sequent=_with(
                            step.sequent, side, free, True)), d.packs)


@pytest.fixture(scope="module")
def sampled_instances():
    """Every instance criteria 10 and 12 replay, 40 per run at the
    default seed, recorded where the sampler hands them to the kernel."""
    seen = []
    real = acceptance._soundness_run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "_kernel_accepts", seen.append)
        mp.setattr(acceptance, "_soundness_run",
                   lambda rule, valid, rng, instances, *rest:
                   real(rule, valid, rng, 40, *rest))
        acceptance._criterion_10(acceptance.SuiteConfig())
        acceptance._criterion_12(acceptance.SuiteConfig())
    return seen


@pytest.fixture(scope="module")
def proof_steps():
    """Every step of the proofs of every 60th sequent of criterion 11's
    universe, as a one-step derivation."""
    space = PropSpace(("p", "q"))
    universe = acceptance._prop_universe(space, acceptance.SuiteConfig(),
                                         "completeness", {})
    out = []
    for gamma, delta, _ in itertools.islice(universe, 0, None, 60):
        res = prove_prop(Sequent.of(gamma, delta), SearchBudget())
        if res.proved:
            steps = res.proof.steps
            out += [_one_step([steps[j].sequent for j in st.premises], st,
                              res.proof.packs) for st in steps]
    return out


def _fits_only_a_kept_context(d: Derivation) -> bool:
    """Whether the last step fits no context but one that keeps some
    formula the step introduces: the context that keeps none, the
    conclusion's sides less the introduced formulas, misses a premise
    or holds the eigenvariable free."""
    step = d.steps[-1]
    if step.rule == "Cut":
        return False
    rule = RULES[step.rule]
    (ca, cs), *padds = reference_additions(rule, step)
    gamma = step.sequent.ant - frozenset(ca)
    delta = step.sequent.suc - frozenset(cs)
    if any(d.steps[j].sequent != Sequent(gamma.union(pa), delta.union(ps))
           for j, (pa, ps) in zip(step.premises, padds)):
        return True
    return rule.eigen and any(step.y in free_vars(f) for f in gamma | delta)


def _assert_same_verdicts(derivations):
    """The verdicts of ``check_step`` and the reference agree: the
    rejections by rule and code, and how many accepted last steps fit
    only a context that keeps an introduced formula."""
    rejected, kept_only = collections.Counter(), 0
    for d in derivations:
        want = reference_check_derivation(d)
        assert check_derivation(d) == want, d.steps[-1]
        if not want[0]:
            rejected[d.steps[-1].rule, want[1].code] += 1
        else:
            kept_only += _fits_only_a_kept_context(d)
    return rejected, kept_only


def test_the_sampled_instances_check_as_before(sampled_instances):
    assert len(sampled_instances) == 36 * 40
    assert {d.steps[-1].rule for d in sampled_instances} == set(RULES)
    rejected, kept_only = _assert_same_verdicts(sampled_instances)
    assert not rejected
    rejected, mutants_kept_only = _assert_same_verdicts(
        m for d in sampled_instances for m in _mutants(d))
    # contexts drawn from the rule's pool may hold the principal already
    assert kept_only > 0 and mutants_kept_only > 0
    # every rule rejects some mutant; the eigenvariable rules by their
    # side condition as well
    assert {rule for rule, _ in rejected} == set(RULES)
    eigen = {rule for rule, code in rejected if code == Code.EIGENVARIABLE}
    assert eigen == {name for name, rule in RULES.items() if rule.eigen}


def test_the_proof_steps_check_as_before(proof_steps):
    assert len(proof_steps) > 1000
    rejected, kept_only = _assert_same_verdicts(proof_steps)
    assert not rejected
    rejected, mutants_kept_only = _assert_same_verdicts(
        m for d in proof_steps for m in _mutants(d))
    # a premise drops the principal the prover decomposes, so its steps
    # fit the context that keeps none; a mutant that adds the principal
    # back to a premise fits only one that keeps it
    assert kept_only + mutants_kept_only > 0
    assert {rule for rule, _ in rejected} == {
        d.steps[-1].rule for d in proof_steps}


def _verdicts_digest(derivations) -> str:
    """SHA-256 over each derivation, printed, with its verdict: good
    flag, then the violation's step, code and detail.  The rows are
    sorted, since ``_mutants`` edits sides in set order."""
    rows = []
    for d in derivations:
        good, v = check_derivation(d)
        rows.append(repr((print_derivation(d), good)
                         + (() if v is None else (v.step, v.code, v.detail))))
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


# taken before each rule row was compiled into its own step checker
VERDICTS_DIGEST = (
    "45c828b9b1f15edd7b9bd78db5aeb1ab5f61a9d42d5bfca5fa4c4a254785783d")


def test_the_verdicts_on_the_mutants_are_pinned(sampled_instances,
                                                proof_steps):
    """Every fixture derivation and each of its mutants; this pin does
    not read the rule table, as ``reference_check_step`` does."""
    derivations = [m for d in sampled_instances + proof_steps
                   for m in (d, *_mutants(d))]
    assert len(derivations) > 30_000
    assert _verdicts_digest(derivations) == VERDICTS_DIGEST
