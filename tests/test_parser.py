"""Concrete syntax: parsing, precedence, and print round-trips."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import reference_parser as ref
from support import bench_workloads

from bd4.kernel import check_derivation
from bd4.parser import MAX_DEPTH, ParseError, parse_formula, \
    parse_formula_list, parse_sequent, parse_term
from bd4.search import SearchBudget, prove_prop
from bd4.semantics import consequence_prop, evaluate_prop
from bd4.syntax import (
    And, Eq, Exists, ExtApp, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, Var, free_vars, print_formula, prop_signature,
    subformulas, substitute,
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


# one input per error site, with its message as it was before input
# tokens were quoted through ``parser._quote``; a short token is quoted
# whole, so these stay byte for byte
ERRORS = [
    ("formula", "(p & q", "expected ')', found 'end' (at position 6)"),
    ("formula", "forall x p", "expected '.', found 'p' (at position 9)"),
    ("formula", "P c", "expected '(', found 'c' (at position 2)"),
    ("list", "p & (q, r)", "expected ')', found ',' (at position 6)"),
    ("formula", "p q", "trailing input 'q' (at position 2)"),
    ("formula", "p &", "expected a formula, found 'end' (at position 3)"),
    ("list", "p &, q", "expected a formula, found 'end' (at position 3)"),
    ("formula", "~ )", "expected a formula, found ')' (at position 2)"),
    ("formula", "forall . p",
     "expected a variable after forall (at position 7)"),
    ("formula", "Neither",
     "extra connective Neither not enabled (at position 0)"),
    ("formula", "zz", "unknown symbol 'zz' (at position 0)"),
    ("formula", "c", "expected '=' or '!=' after a term (at position 1)"),
    ("formula", "P(&)", "expected a term, found '&' (at position 2)"),
    ("term", "forall", "expected a term, found 'forall' (at position 0)"),
    ("formula", "P(p)", "predicate symbol 'p' used as a term (at position 2)"),
    ("formula", "P(h(c))", "unknown symbol 'h' (at position 2)"),
    ("formula", "P(c, d)", "P expects 1 argument(s), got 2 (at position 0)"),
    ("formula", "p $ q", "unexpected character '$' (at position 1)"),
    ("formula", "~" * (MAX_DEPTH + 1) + "p",
     "nested deeper than 100 levels (at position 100)"),
    ("sequent", "p; q",
     "a sequent needs '=>' between its sides (at position 0)"),
]


def _message(kind: str, text: str) -> str:
    parse = {"formula": parse_formula, "term": parse_term,
             "list": lambda text, sig: parse_formula_list(text, sig, ","),
             "sequent": parse_sequent}[kind]
    with pytest.raises(ParseError) as err:
        parse(text, SIG)
    return str(err.value)


@pytest.mark.parametrize("kind, text, message", ERRORS)
def test_every_error_site_gives_its_message(kind, text, message):
    assert _message(kind, text) == message


# the sites that quote an input identifier, each given a 1,000,000-character
# one: the message quotes its first 60 characters and a marker
LONG = "q" * 1_000_000
CLIPPED = "%r [clipped]" % LONG[:60]


@pytest.mark.parametrize("text, message", [
    ("p & " + LONG, "unknown symbol %s (at position 4)" % CLIPPED),
    ("P(%s(c))" % LONG, "unknown symbol %s (at position 2)" % CLIPPED),
    ("p " + LONG, "trailing input %s (at position 2)" % CLIPPED),
    ("P " + LONG, "expected '(', found %s (at position 2)" % CLIPPED),
], ids=["formula", "term", "trailing", "expected"])
def test_a_long_identifier_is_quoted_clipped(text, message):
    assert _message("formula", text) == message


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


def _recursive_subformulas(a):
    """The preorder walk written recursively, as the reference."""
    yield a
    match a:
        case Not(b) | Forall(_, b) | Exists(_, b):
            yield from _recursive_subformulas(b)
        case And(l, r) | Or(l, r) | Imp(l, r):
            yield from _recursive_subformulas(l)
            yield from _recursive_subformulas(r)
        case ExtApp(_, args):
            for u in args:
                yield from _recursive_subformulas(u)


MIXED = "exists x. Des (P(x) -> ~Both & (q | p)) | Q(x, c)"


@pytest.mark.parametrize("text", [AT_BOUND[name][0] for name in AT_BOUND]
                         + [MIXED])
def test_subformulas_walks_in_preorder(text):
    a = parse_formula(text, SIG)
    assert ([id(x) for x in subformulas(a)]
            == [id(x) for x in _recursive_subformulas(a)])


# ---------------------------------------------------------------------------
# the parser against the reference: the parser before each list was
# scanned once, which split a list by characters and tokenized each part


def _outcome(parse, *args):
    """The tree a parse returns, or its error's message and position."""
    try:
        return "tree", parse(*args)
    except ParseError as exc:
        return "error", str(exc), exc.pos


def assert_parses_as_reference(text: str, sig=SIG):
    """Every entry point gives the reference's tree or error on text."""
    cases = [("parse_formula", (sig,)), ("parse_term", (sig,)),
             ("parse_formula_list", (sig, ",")),
             ("parse_formula_list", (sig, ";")), ("parse_sequent", (sig,))]
    for name, args in cases:
        want = _outcome(getattr(ref, name), text, *args)
        got = _outcome(globals()[name], text, *args)
        assert got == want, (name, text)


@pytest.fixture(scope="module")
def workloads():
    return bench_workloads()


def test_the_benchmark_streams_parse_as_the_reference(workloads):
    """The first queries of the prop-prove and fo-entails streams, and
    every fourth prefix of each, which are mostly errors."""
    W = workloads
    texts = [(q.text, W.PROP_SIG)
             for q in itertools.islice(W.prop_queries(0), 250)]
    texts += [(side, W.FO_SIG)
              for q in itertools.islice(W.fo_queries(0), 40)
              for side in (q.gamma, q.delta)]
    errors = 0
    for text, sig in texts:
        for cut in itertools.chain(range(0, len(text), 4), [len(text)]):
            assert_parses_as_reference(text[:cut], sig)
            outcome = _outcome(ref.parse_sequent, text[:cut], sig)
            errors += outcome[0] == "error"
    assert errors > len(texts)


@pytest.mark.parametrize("name", list(AT_BOUND))
def test_the_depth_bound_parses_as_the_reference(name):
    for text in AT_BOUND[name]:
        for joined in (text, "p, " + text, text + "; q", "p; " + text):
            assert_parses_as_reference(joined)


# token values, spaces, bad characters, and fragments that leave parts
# empty, brackets unbalanced and separators inside brackets
_PIECES = (["p", "q", "r", "P", "Q", "c", "d", "f", "g", "x", "F", "T",
            "Des", "Both", "Neither", "forall", "exists", "x.", "(", ")",
            "&", "|", "~", "->", "=", "!=", ".", ",", ";", "=>", "|-"]
           + [" ", "  ", "\t", "$", "-", "!", ">", "é", "1"]
           + [", ,", "; ;", ",", "(p, q)", "(p; q)", "P(c, d)", "Q(x, f(c))",
              "((p)", "(q))", "g(c, d) = x", "p -> q", "~(p & q)"])


@settings(derandomize=True, max_examples=800, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=12))
def test_hypothesis_texts_parse_as_the_reference(pieces):
    assert_parses_as_reference(" ".join(pieces))
    assert_parses_as_reference("".join(pieces))
