"""Concrete syntax: parsing, precedence, and print round-trips."""

import pytest

from bd4.kernel import check_derivation
from bd4.parser import MAX_DEPTH, ParseError, parse_formula, \
    parse_formula_list, parse_sequent, parse_term
from bd4.search import SearchBudget, prove_prop
from bd4.semantics import consequence_prop, evaluate_prop
from bd4.syntax import (
    And, Eq, Exists, ExtApp, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, Var, free_vars, print_formula, prop_signature,
    substitute,
)
from bd4.values import B

SIG = Signature(
    functions=(("c", 0), ("d", 0), ("f", 1), ("g", 2)),
    predicates=(("P", 1), ("Q", 2), ("p", 0), ("q", 0), ("r", 0)),
    extras=frozenset({"Des", "Both"}),
)


def rt(text):
    """Parse, print, parse again; printing must be a fixpoint."""
    a = parse_formula(text, SIG)
    printed = print_formula(a)
    assert parse_formula(printed, SIG) == a
    return a, printed


def test_atoms_and_constants():
    assert parse_formula("p", SIG) == Prop("p")
    assert parse_formula("P(c)", SIG) == Pred("P", (Fun("c"),))
    assert parse_formula("F", SIG) == Falsity()
    assert parse_formula("T", SIG) == Not(Falsity())


def test_terms():
    assert parse_term("g(f(x), c)", SIG) == \
        Fun("g", (Fun("f", (Var("x"),)), Fun("c")))
    with pytest.raises(ParseError):
        parse_term("f(x, y)", SIG)  # arity mismatch


def test_precedence():
    # ~ binds tightest, then &, then |, then ->; -> right-associative
    a, _ = rt("p | q & ~r -> p")
    assert a == Imp(Or(Prop("p"), And(Prop("q"), Not(Prop("r")))), Prop("p"))
    b = parse_formula("p -> q -> r", SIG)
    assert b == Imp(Prop("p"), Imp(Prop("q"), Prop("r")))


def test_quantifier_scope_extends_right():
    a = parse_formula("forall x. P(x) -> p", SIG)
    assert a == Forall("x", Imp(Pred("P", (Var("x"),)), Prop("p")))
    b = parse_formula("(forall x. P(x)) -> p", SIG)
    assert b == Imp(Forall("x", Pred("P", (Var("x"),))), Prop("p"))


def test_equality_and_disequality():
    assert parse_formula("x = y", SIG) == Eq(Var("x"), Var("y"))
    assert parse_formula("x != y", SIG) == Not(Eq(Var("x"), Var("y")))
    assert parse_formula("f(c) = d", SIG) == Eq(Fun("f", (Fun("c"),)), Fun("d"))


def test_extra_connectives():
    assert parse_formula("Des p", SIG) == ExtApp("Des", (Prop("p"),))
    assert parse_formula("Both", SIG) == ExtApp("Both")
    rt("Des (p & q)")
    # not enabled in a bare signature
    with pytest.raises(ParseError):
        parse_formula("Des p", prop_signature("p"))


def test_round_trips():
    for text in [
        "p & (q | r)",
        "~(p -> q) | F",
        "forall x. exists y. Q(x, y)",
        "~forall x. P(x)",
        "P(g(c, f(d)))",
        "p & q & r",
        "x = y & P(x)",
    ]:
        rt(text)


def test_sequent_parsing():
    s = parse_sequent("p; q => r", SIG)
    assert s == Sequent.of([Prop("p"), Prop("q")], [Prop("r")])
    assert parse_sequent("|-  => p", SIG) == Sequent.of([], [Prop("p")])
    assert parse_sequent("|- p; p => ", SIG).ant == frozenset({Prop("p")})
    with pytest.raises(ParseError):
        parse_sequent("p; q", SIG)


def test_formula_list():
    got = parse_formula_list("p, q & r", SIG, ",")
    assert got == [Prop("p"), And(Prop("q"), Prop("r"))]
    assert parse_formula_list("  ", SIG, ",") == []


def test_errors_name_position():
    for bad in ["p &", "(p", "forall. p", "P(c", "h(c)", "p q"]:
        with pytest.raises(ParseError):
            parse_formula(bad, SIG)


# formulas exactly at the depth bound, each with one a level deeper
AT_BOUND = {
    "negations": ("~" * MAX_DEPTH + "p", "~" * (MAX_DEPTH + 1) + "p"),
    "brackets": ("(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH,
                 "(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1)),
    "chain": (" | ".join(["p & q"] * MAX_DEPTH),
              " | ".join(["p & q"] * (MAX_DEPTH + 1))),
    "arrows": ("p -> " * MAX_DEPTH + "p", "p -> " * (MAX_DEPTH + 1) + "p"),
    "terms": ("P(" + "f(" * (MAX_DEPTH - 1) + "c" + ")" * MAX_DEPTH,
              "P(" + "f(" * MAX_DEPTH + "c" + ")" * (MAX_DEPTH + 1)),
    "quantifiers": ("forall x. " * (MAX_DEPTH - 1) + "P(x)",
                    "forall x. " * MAX_DEPTH + "P(x)"),
}


@pytest.mark.parametrize("name", list(AT_BOUND))
def test_one_level_past_the_depth_bound_is_refused(name):
    with pytest.raises(ParseError, match="nested deeper than %d" % MAX_DEPTH):
        parse_formula(AT_BOUND[name][1], SIG)


@pytest.mark.parametrize("name", list(AT_BOUND))
def test_a_formula_at_the_depth_bound_is_safe_everywhere(name):
    a = parse_formula(AT_BOUND[name][0], SIG)
    assert parse_formula(print_formula(a), SIG) == a
    assert hash(a) == hash(parse_formula(AT_BOUND[name][0], SIG))
    free_vars(a)
    substitute(a, "x", Var("y"))
    if name in ("terms", "quantifiers"):
        return
    assert evaluate_prop(a, {"p": B, "q": B}) == B
    assert consequence_prop([a], [a])[0]
    for mode in ("base", "cl"):
        res = prove_prop(Sequent.of([a], [a]), SearchBudget(mode=mode))
        assert res.proved and check_derivation(res.proof)[0]
