"""Kernel checking: rule shapes, violation codes, side conditions."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bd4 import acceptance
from bd4.kernel import (
    BASE_RULES, Code, Derivation, DerivationStep, PACK_RULES, PACKS, RULES,
    Violation, check_derivation, check_step, derives, equality_axioms,
    is_proof,
)
from bd4.syntax import (
    And, Eq, Exists, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, Var, print_formula,
)

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
        step = DerivationStep(name, Sequent(), principal=p)
        assert rule.constant == rule.filled(rule.bind(step))
        assert rule.constant is rule.constant
    assert {name for name, rule in RULES.items()
            if rule.constant is not None} == {"F-L", "notF-R"}
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

KEPT = [rule for rule in RULES.values() if rule.kept_as]


def test_the_rules_whose_additions_are_kept():
    assert len(KEPT) == 17
    assert {rule.needs for rule in KEPT} == {("principal",)}
    unkept = {name for name, rule in RULES.items() if not rule.kept_as}
    assert unkept == {
        "Cut", "F-L", "notF-R", "eq-Refl", "eq-Repl", "Den-L", "Den-R",
        "forall-L", "forall-R", "exists-L", "exists-R", "notforall-L",
        "notforall-R", "notexists-L", "notexists-R"}


def _bound_and_filled(rule, a):
    """The additions as the rule table gives them from a step."""
    env = rule.bind(DerivationStep(rule.name, Sequent(), principal=a))
    return None if env is None else rule.filled(env)


def _assert_kept_additions_agree(a):
    for rule in KEPT:
        want = _bound_and_filled(rule, a)
        got = rule.additions(a)
        assert got == want, (rule.name, a)
        assert rule.additions(a) == got
        if got is not None:
            # a kept value never holds its own node
            assert all(a not in side for adds in got[1:] for side in adds)
            premises = rule.backward(Sequent.of([a], [a]), a)
            assert len(premises) == len(got) - 1


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
        hits = [a for a in principals if rule.additions(a) is not None]
        assert hits and (rule.name == "Id" or len(hits) < len(principals))


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
