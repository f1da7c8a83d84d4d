"""Formula construction, printing, free variables, substitution, and
the hash-consed node table."""

import copy
import gc
import pickle
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from bd4 import syntax
from bd4 import kernel
from bd4.kernel import RULES, DerivationStep, _Letter, check_derivation
from bd4.parser import MAX_DEPTH, parse_formula
from bd4.search import MODES, SearchBudget, prove_prop
from bd4.semantics import FOResult, PropSpace, Structure, consequence_prop
from bd4.simulation import EXTENSION_MODES, _lp_guard, translation_sets
from bd4.syntax import (
    And, Eq, Exists, ExtApp, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, SyntaxBuildError, TRUTH, Var, atomic_subformulas,
    formula_key, free_vars, fresh_var, is_literal, print_formula, print_term,
    prop_atoms, subformulas, substitute,
)

from bd4.values import ALL_VALUES, B, F, N, T

import reference_syntax
from reference_syntax import node_repr
from support import check_step, instance, reference_additions, substitute_term

x, y, z = Var("x"), Var("y"), Var("z")
c = Fun("c")
P = lambda t: Pred("P", (t,))
p, q = Prop("p"), Prop("q")


def test_signature_guards():
    sig = Signature((("f", 2), ("c", 0)), (("P", 1), ("p", 0)))
    assert sig.function_arity("f") == 2
    assert sig.predicate_arity("P") == 1
    assert sig.propositions == ("p",)
    with pytest.raises(SyntaxBuildError):
        Signature((("f", 1), ("f", 2)), ())
    with pytest.raises(SyntaxBuildError):
        Signature((("f", -1),), ())
    with pytest.raises(SyntaxBuildError):
        Signature(predicates=(("p", 0),), extras=frozenset({"NoSuchConn"}))


_SYMBOLS = ("c", "d", "f", "g", "P", "Q", "p", "q", "h_1")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_SYMBOLS), st.integers(0, 3),
                          st.booleans()), unique_by=lambda d: d[0]))
def test_arity_lookups_equal_a_scan_of_the_declarations(declared):
    """Every name, declared or not, has the arity a scan of the
    declarations finds, as a function and as a predicate, asked twice."""
    sig = Signature(tuple((n, a) for n, a, fun in declared if fun),
                    tuple((n, a) for n, a, fun in declared if not fun))

    def scan(symbols, name):
        return next((a for n, a in symbols if n == name), None)

    for _ in range(2):
        for name in _SYMBOLS + ("F", "Des", ""):
            assert sig.function_arity(name) == scan(sig.functions, name)
            assert sig.predicate_arity(name) == scan(sig.predicates, name)


def test_a_signature_is_the_same_record_after_an_arity_lookup():
    """Equality, hashing, the repr, ``replace``, copies and pickles read
    the fields alone, before and after the arities are looked up."""
    def build():
        return Signature((("f", 2), ("c", 0)), (("P", 1), ("p", 0)),
                         frozenset({"Des"}))

    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    sig, twin = build(), build()

    def seen():
        return (repr(sig), hash(sig), sig == twin, twin == sig,
                [pickle.dumps(sig, k) for k in protocols])

    before = seen()
    assert sig.function_arity("f") == 2 and sig.predicate_arity("p") == 0
    assert sig.function_arity("P") is None and sig.predicate_arity("c") is None
    assert seen() == before and before[2:4] == (True, True)
    assert [pickle.dumps(twin, k) for k in protocols] == before[4]
    for k in protocols:
        again = pickle.loads(pickle.dumps(sig, k))
        assert again == sig and again.function_arity("f") == 2
    assert copy.copy(sig) == copy.deepcopy(sig) == sig
    assert syntax.replace(sig) == twin
    assert syntax.replace(sig, extras=frozenset()) == Signature(
        sig.functions, sig.predicates)
    assert syntax.replace(sig, functions=()).function_arity("f") is None


def test_truth_abbreviation():
    assert TRUTH == Not(Falsity())


def test_printing():
    assert print_formula(Imp(p, Or(q, Not(p)))) == "p -> q | ~p"
    assert print_formula(And(Or(p, q), q)) == "(p | q) & q"
    assert print_formula(Forall("x", Imp(P(x), Exists("y", Eq(x, y))))) == \
        "forall x. P(x) -> (exists y. x = y)"
    assert print_term(Fun("f", (c, x))) == "f(c, x)"
    assert print_formula(Not(Eq(x, y))) == "~x = y"
    assert print_formula(ExtApp("Des", (p,))) == "Des p"


@pytest.mark.parametrize("node, bad", [
    (And(Prop("p"), "q"), "q"), (Pred("P", ("x",)), "x"),
    (Not(Forall("x", Or(Pred("P", (Fun("f", (None,)),)), p))), None),
    (Imp(Eq(x, "y"), And(p, "q")), "y"),
])
def test_printing_a_mis_built_node_names_the_bad_part(node, bad):
    """As ``free_vars`` does, and before any part is printed or kept."""
    for walk in (str, free_vars):
        with pytest.raises(TypeError) as got:
            walk(node)
        assert str(got.value) == "not a term or formula: %r" % (bad,)
    assert node._text is None


@pytest.mark.parametrize("node, bad, sort", [
    (Not(Var("x")), Var("x"), "formula"),
    (Imp(Prop("p"), Var("y")), Var("y"), "formula"),
    (ExtApp("Des", (Var("x"),)), Var("x"), "formula"),
    (Forall("x", Var("x")), Var("x"), "formula"),
    (Exists("x", Fun("c")), Fun("c"), "formula"),
    (Eq(Prop("p"), Fun("c")), Prop("p"), "term"),
    (Pred("P", (Prop("p"),)), Prop("p"), "term"),
    (Fun("f", (c, And(p, q))), And(p, q), "term"),
], ids=["not", "imp", "extapp", "forall", "exists", "eq", "pred", "fun"])
def test_printing_a_part_of_the_wrong_sort_names_it(node, bad, sort):
    """A term where a formula belongs, or a formula where a term does."""
    with pytest.raises(TypeError) as got:
        str(node)
    assert str(got.value) == "not a %s: %r" % (sort, bad)
    assert node._text is None


@pytest.mark.parametrize("node, bad, sort", [
    (Not(Var("x")), Var("x"), "formula"),
    (Forall("x", Var("x")), Var("x"), "formula"),
    (Pred("P", (Prop("p"),)), Prop("p"), "term"),
    (Fun("f", (Prop("p"),)), Prop("p"), "term"),
    (Pred("P", (Fun("g", (x, Fun("f", (Not(p),)))),)), Not(p), "term"),
], ids=["not", "forall", "pred", "fun", "nested-fun"])
def test_free_variables_of_a_part_of_the_wrong_sort_name_it(node, bad, sort):
    """``free_vars`` checks each part's sort where printing does, and
    refuses with the same words; the node keeps no free variables."""
    for walk in (free_vars, str):
        with pytest.raises(TypeError) as got:
            walk(node)
        assert str(got.value) == "not a %s: %r" % (sort, bad)
    assert getattr(node, "_free", None) is None


def test_a_name_that_is_not_a_string_is_formatted_so_printing_ends():
    """A form of None would read as not yet printed, and its parent would
    wait on it for good."""
    assert str(Not(Pred("P", (Var(None), Fun(7))))) == "~P(None, 7)"
    assert str(And(Prop(None), p)) == "None & p"


def test_a_schematic_letter_prints_as_its_repr():
    assert str(kernel.A_t) == repr(kernel.A_t) == "_Letter(name='A', term='t')"


def test_free_vars():
    a = Forall("x", Imp(P(x), P(y)))
    assert free_vars(a) == {"y"}
    assert free_vars(Exists("y", a)) == set()
    assert free_vars(Eq(Fun("f", (x, c)), y)) == {"x", "y"}


def test_free_vars_of_a_chain_past_the_recursion_limit():
    """``free_vars`` keeps its own stack: 2,000 API-built quantifiers, one
    binding x halfway, each level's set kept on its node."""
    chain = [Pred("Q", (x, Fun("f", (y,))))]
    for i in range(2000):
        chain.append((Exists if i % 2 else Forall)(
            "x" if i == 1000 else "z", chain[-1]))
    assert len(chain) > sys.getrecursionlimit()
    assert free_vars(chain[-1]) == {"y"}
    assert [level._free for level in chain[1000:1002]] == [{"x", "y"}, {"y"}]
    assert free_vars(chain[5]) == {"x", "y"}


def test_fresh_var_avoids_taken_names():
    got = fresh_var("x", {"x", "x1"})
    assert got not in {"x", "x1"}


def test_substitute_term():
    t = Fun("f", (x, Fun("g", (y,))))
    assert substitute_term(t, "y", c) == Fun("f", (x, Fun("g", (c,))))
    with pytest.raises(TypeError, match=r"not a term: \[Var\(name='y'\)\]"):
        substitute_term([y], "y", c)


def test_substitution_basic():
    a = Imp(P(x), Exists("z", Eq(x, z)))
    got = substitute(a, "x", c)
    assert got == Imp(P(c), Exists("z", Eq(c, z)))


def test_substitution_is_capture_avoiding():
    # [x := y] (forall y. P(x) & P(y)) must rename the bound y
    a = Forall("y", And(P(x), P(y)))
    got = substitute(a, "x", y)
    assert isinstance(got, Forall)
    assert got.var != "y"
    inner = got.body
    assert inner == And(P(y), P(Var(got.var)))


y1, y2, y3 = Var("y1"), Var("y2"), Var("y3")


@pytest.mark.parametrize("a, v, s, want", [
    (Forall("y", And(P(x), P(y))), "x", y, Forall("y1", And(P(y), P(y1)))),
    (Forall("y", Pred("Q", (x, y, y1))), "x", y,
     Forall("y2", Pred("Q", (y, y2, y1)))),
    (Exists("y1", Pred("Q", (x, y1))), "x", Fun("f", (y1, y)),
     Exists("y2", Pred("Q", (Fun("f", (y1, y)), y2)))),
    (Forall("y", Exists("y1", Pred("Q", (x, y, y1)))), "x",
     Fun("g", (y, y1)), Forall("y2", Exists("y3", Pred(
         "Q", (Fun("g", (y, y1)), y2, y3))))),
    (Forall("y", And(Forall("y", P(x)), Exists("x", P(y)))), "x", y,
     Forall("y1", And(Forall("y1", P(y)), Exists("x", P(y1))))),
])
def test_capture_renaming_picks_the_recursive_form_s_fresh_names(a, v, s,
                                                                 want):
    assert substitute(a, v, s) == reference_syntax.substitute(a, v, s) == want


@pytest.mark.parametrize("bad", ["q", x, None, Fun("f", (c,))])
def test_a_non_formula_at_any_depth_is_named_by_substitution(bad):
    """A string, a term or None where a formula belongs raises the
    recursive form's TypeError, at the top, under connectives, in a
    quantifier's body or 2,000 deep; of two, the first left to right
    (in a quantifier's body ``free_vars`` names the first non-term)."""
    deep = bad
    for i in range(2000):
        deep = Not(deep) if i % 2 else And(deep, P(x))
    cases = [bad, Not(bad), And(bad, "r"), Imp(p, Or(bad, Prop("r"))),
             ExtApp("Des", (bad,)), And(Not(P(x)), ExtApp("Des", (bad,))),
             Forall("z", And(bad, P(x))), deep]
    limit = sys.getrecursionlimit()
    for a in cases:
        with pytest.raises(TypeError) as got:
            substitute(a, "x", c)
        sys.setrecursionlimit(10_000)
        try:
            with pytest.raises(TypeError) as want:
                reference_syntax.substitute(a, "x", c)
        finally:
            sys.setrecursionlimit(limit)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(": %r" % (bad,))
    assert substitute(Exists("x", bad), "x", c) == Exists("x", bad)


def _chains() -> list:
    """API-built chains 2,000 deep: quantifiers, some binding y, over a
    body; a Not chain; a left And spine; a right Imp spine."""
    q = n = left = right = Pred("Q", (x, Fun("f", (y,))))
    for i in range(2000):
        q = (Forall if i % 2 else Exists)("y" if i % 3 else "z", q)
        n, left = Not(n), And(left, P(Fun("g", (x,))))
        right = Imp(Exists("y", P(x)) if i % 5 else P(y), right)
    return [q, n, left, right]


def _forget_printing(a) -> None:
    """Drop the kept printed form of a and of each node it is built from,
    so printing it next starts from scratch."""
    stack, seen = [a], set()
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack += syntax._parts(u)
            if u._text is not None:
                object.__delattr__(u, "_text")


@pytest.mark.parametrize("i", range(4), ids=["quantifiers", "not", "and",
                                              "imp"])
def test_printing_and_substitution_past_the_recursion_limit(i):
    """Each 2,000-deep chain prints, from scratch, and substitutes, with
    and without capture, as the recursive forms do with a raised limit."""
    a = _chains()[i]
    _forget_printing(a)
    text = str(a)
    got = [substitute(a, "x", s) for s in (c, y, Fun("h", (y, z)))]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        assert text == reference_syntax.print_formula(a)
        assert got == [reference_syntax.substitute(a, "x", s)
                       for s in (c, y, Fun("h", (y, z)))]
    finally:
        sys.setrecursionlimit(limit)
    assert str(a) is text and got[0] != a


def test_substitution_skips_shadowed_occurrences():
    a = Forall("x", P(x))
    assert substitute(a, "x", c) == a


def test_substitution_into_a_term_past_the_recursion_limit():
    """A term 2,000 deep, built through the API, substituted alone and
    inside an atom, equals the recursive forms' answer, which needs a
    raised recursion limit."""
    term, want = x, c
    for _ in range(2000):
        term, want = Fun("f", (term,)), Fun("f", (want,))
    got_term, got_atom = substitute_term(term, "x", c), substitute(P(term),
                                                                   "x", c)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        assert got_term == reference_syntax.substitute_term(term, "x", c)
        assert got_atom == reference_syntax.substitute(P(term), "x", c)
    finally:
        sys.setrecursionlimit(limit)
    assert got_term == want and got_atom == P(want)


@pytest.mark.parametrize("bad", [Prop("p"), "x", Not(P(x))])
def test_a_non_term_at_any_depth_is_named_by_substitution(bad):
    """A formula or a bare string where a term belongs, at the top, as an
    argument or 2,000 deep, raises the reference's TypeError naming it,
    and of two such arguments names the first."""
    deep = bad
    for _ in range(2000):
        deep = Fun("f", (deep,))
    message = "not a term: %r" % (bad,)
    for t in (bad, Fun("f", (bad,)), Fun("g", (x, Fun("f", (bad,)))),
              Fun("g", (Fun("f", (bad,)), Prop("q"))), deep):
        for a in (P(t), Eq(c, t), Eq(t, x)):
            with pytest.raises(TypeError) as got:
                substitute(a, "x", c)
            assert str(got.value) == message
        with pytest.raises(TypeError) as got:
            substitute_term(t, "x", c)
        assert str(got.value) == message
        if t is not deep:
            with pytest.raises(TypeError, match="not a term") as want:
                reference_syntax.substitute_term(t, "x", c)
            assert str(want.value) == message


def test_subformulas_and_atoms():
    a = Imp(And(p, Not(q)), Falsity())
    subs = set(subformulas(a))
    assert p in subs and Not(q) in subs and Falsity() in subs and a in subs
    assert atomic_subformulas([a]) == {p, q, Falsity()}
    assert prop_atoms(a) == {"p", "q"}


def test_literals():
    assert is_literal(p) and is_literal(Not(p))
    assert is_literal(Eq(x, y)) and is_literal(Falsity())
    assert not is_literal(And(p, q)) and not is_literal(Not(Not(p)))


def match_is_atomic(a) -> bool:
    """``syntax.is_atomic`` as it was written with class patterns."""
    match a:
        case Falsity() | Prop(_) | Pred(_, _) | Eq(_, _):
            return True
        case ExtApp(_, args):
            return not args
    return False


def match_is_literal(a) -> bool:
    return match_is_atomic(a) or isinstance(a, Not) and match_is_atomic(a.body)


def test_the_class_tests_agree_with_the_class_patterns():
    """Every node class, nullary and unary extra connectives, each under
    a negation, and the non-formulas a hand-built step may hold."""
    nodes = [cls(*values) for cls, values in _CALLS]
    nodes += [ExtApp("Both", ()), ExtApp("Neither", ()), ExtApp("Des", (q,))]
    assert {type(a) for a in nodes} == set(_FIELDS)
    cases = nodes + [Not(a) for a in nodes if type(a) not in (Var, Fun)]
    cases += [Not(Not(p)), "p", 3, None]
    for a in cases:
        assert syntax.is_atomic(a) == match_is_atomic(a), a
        assert is_literal(a) == match_is_literal(a), a
    assert sum(map(syntax.is_atomic, cases)) == 6
    assert sum(map(is_literal, cases)) == 13  # with Not(p) from _CALLS


def is_propositional(a) -> bool:
    """Does the formula have no predicate, equality or quantifier?"""
    return not any(isinstance(s, (Pred, Eq, Forall, Exists))
                   for s in subformulas(a))


def test_is_propositional():
    assert is_propositional(Imp(p, And(q, Falsity())))
    assert not is_propositional(P(c))
    assert not is_propositional(Forall("x", p))


def test_sequent_sets_and_str():
    s = Sequent.of([p, p], [q, Falsity()])
    assert s.ant == frozenset({p})
    assert len(s.suc) == 2
    assert str(Sequent.of([p], [q])) == "|- p => q"


def test_formula_key_is_total_order():
    forms = [p, q, Not(p), And(p, q), Or(p, q), Falsity(), Imp(q, p)]
    keys = sorted(forms, key=formula_key)
    assert len(set(map(formula_key, forms))) == len(forms)
    assert sorted(keys, key=formula_key) == keys


def test_extapp_guards():
    with pytest.raises(SyntaxBuildError):
        ExtApp("NoSuchConn", (p,))
    with pytest.raises(SyntaxBuildError):
        ExtApp("Des", ())


# ---------------------------------------------------------------------------
# hash-consing

SIG = Signature(
    functions=(("c", 0), ("d", 0), ("f", 1), ("g", 2)),
    predicates=(("P", 1), ("Q", 2), ("p", 0), ("q", 0)),
    extras=frozenset({"Des", "Both"}),
)


def test_equal_trees_are_one_object():
    def build():
        return Forall("x", Imp(And(P(Var("x")), Not(Prop("q"))),
                               Eq(Fun("f", (Var("x"),)), Fun("c", ()))))
    a = build()
    assert build() is a
    assert parse_formula("forall x. P(x) & ~q -> f(x) = c", SIG) is a
    assert Fun("c") is Fun("c", ()) is Fun(name="c") is Fun(args=(), name="c")
    assert ExtApp("Both") is ExtApp("Both", ())
    assert Pred("P", args=(c,)) is P(c)
    assert Falsity() is Falsity() and TRUTH is Not(Falsity())
    assert Prop("p") is not Prop("q") and Var("p") is not Prop("p")


def test_equality_and_hashing_are_identity():
    for cls in (Var, Fun, Falsity, Prop, Pred, Eq, Not, And, Or, Imp,
                Forall, Exists, ExtApp):
        assert cls.__eq__ is object.__eq__
        assert cls.__hash__ is object.__hash__
    a = And(p, Not(q))
    assert hash(a) == hash(And(p, Not(q))) == object.__hash__(a)
    assert a != And(q, Not(p))


def test_the_printed_form_is_computed_once():
    a = Imp(Or(p, q), Not(And(p, q)))
    assert str(a) is str(a) is formula_key(a)
    assert str(a) == "p | q -> ~(p & q)"


_TERM = st.recursive(
    st.sampled_from([x, y, c, Fun("d")]),
    lambda ts: st.one_of(st.builds(lambda t: Fun("f", (t,)), ts),
                         st.builds(lambda t, u: Fun("g", (t, u)), ts, ts)),
    max_leaves=4)

_ATOM = st.one_of(
    st.sampled_from([p, q, Falsity(), ExtApp("Both")]),
    st.builds(P, _TERM),
    st.builds(lambda t, u: Pred("Q", (t, u)), _TERM, _TERM),
    st.builds(Eq, _TERM, _TERM))

_FORMULA = st.recursive(_ATOM, lambda fs: st.one_of(
    st.builds(Not, fs), st.builds(lambda a: ExtApp("Des", (a,)), fs),
    st.builds(And, fs, fs), st.builds(Or, fs, fs), st.builds(Imp, fs, fs),
    st.builds(Forall, st.sampled_from("xy"), fs),
    st.builds(Exists, st.sampled_from("xy"), fs)), max_leaves=12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_TERM, _TERM, st.sampled_from("xyz"))
def test_substitution_equals_the_recursive_reference(t, s, v):
    """``substitute_term`` and ``substitute`` on atoms of the term, alone
    and under a quantifier that may capture, give the recursive forms'
    answer."""
    assert substitute_term(t, v, s) == reference_syntax.substitute_term(
        t, v, s)
    for a in (P(t), Eq(t, s), Forall("y", Pred("Q", (t, y)))):
        assert substitute(a, v, s) == reference_syntax.substitute(a, v, s)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_FORMULA, _FORMULA)
def test_printing_equals_the_recursive_reference(a, b):
    """From scratch, over terms, nullary and unary extra connectives,
    quantifiers and parts shared (a part met again after its parent)."""
    for value in (a, And(Not(a), a), Imp(Or(a, b), And(b, Not(a))),
                  ExtApp("Des", (Forall("x", And(a, b)),)), Not(Eq(
                      Fun("g", (x, c)), y)), Or(Exists("y", b), ExtApp(
                          "Both"))):
        _forget_printing(value)
        assert str(value) == reference_syntax.print_formula(value)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_FORMULA)
def test_parsing_the_printed_form_gives_back_the_same_object(a):
    assert parse_formula(print_formula(a), SIG) is a


@pytest.mark.parametrize("a", [
    Forall("x", Imp(P(x), Exists("y", Eq(Fun("f", (x,)), y)))),
    ExtApp("Des", (Or(p, ExtApp("Both")),)), Fun("g", (c, x)), Falsity(),
])
def test_copies_and_pickles_are_the_same_object(a):
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert copy.deepcopy([a, (a,)])[1][0] is a
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) is a


def test_a_bad_extra_connective_leaves_no_entry():
    body = Prop("bad_extapp_probe")
    before = len(syntax._NODES)
    for conn, args in (("NoSuchConn", (body,)), ("Des", ()),
                       ("Both", (body,))):
        with pytest.raises(SyntaxBuildError):
            ExtApp(conn, args)
    assert len(syntax._NODES) == before
    assert (ExtApp, "Des", ()) not in syntax._NODES


def test_unreferenced_nodes_leave_the_table():
    gc.collect()
    before = len(syntax._NODES)
    a = Forall("gc_x", And(Pred("gc_P", (Var("gc_x"),)),
                           Not(Prop("gc_q"))))
    str(a)
    assert len(syntax._NODES) == before + 6
    del a
    gc.collect()
    assert len(syntax._NODES) == before
    # a new node under a dead node's key gets an entry of its own
    assert Prop("gc_q") is Prop("gc_q")


def test_a_long_chain_is_built_and_released_without_recursion():
    before = len(syntax._NODES)
    a = b = Prop("chain_probe")
    for _ in range(20_000):
        a, b = Not(a), Not(b)
    assert a is b and hash(a) == hash(b) and a == b
    del a, b
    gc.collect()
    assert len(syntax._NODES) == before


def test_a_formula_at_the_depth_bound_hashes_prints_and_compares():
    text = "~" * (MAX_DEPTH - 1) + "p"
    a = parse_formula(text, SIG)
    b = Prop("p")
    for _ in range(MAX_DEPTH - 1):
        b = Not(b)
    assert a is b and a == b and hash(a) == hash(b)
    assert print_formula(a) == text and formula_key(b) == text
    assert len({a, b, parse_formula(text, SIG)}) == 1


# ---------------------------------------------------------------------------
# the node constructor

# one call per node class, its fields' values in order
_CALLS = [
    (Var, ("ctor_x",)), (Fun, ("ctor_f", (c,))), (Falsity, ()),
    (Prop, ("ctor_p",)), (Pred, ("ctor_P", (c, x))), (Eq, (x, c)),
    (Not, (p,)), (And, (p, q)), (Or, (q, p)), (Imp, (p, p)),
    (Forall, ("ctor_x", p)), (Exists, ("ctor_y", q)),
    (ExtApp, ("Des", (p,))), (_Letter, ("ctor_A", "t")),
]
_FIELDS = {
    Var: ("name",), Fun: ("name", "args"), Falsity: (), Prop: ("name",),
    Pred: ("name", "args"), Eq: ("left", "right"), Not: ("body",),
    And: ("left", "right"), Or: ("left", "right"), Imp: ("left", "right"),
    Forall: ("var", "body"), Exists: ("var", "body"),
    ExtApp: ("conn", "args"), _Letter: ("name", "term"),
}
_IDS = [cls.__name__ for cls, _ in _CALLS]


def test_every_node_class_is_called():
    assert {cls for cls, _ in _CALLS} == set(_FIELDS)
    assert set(_FIELDS) - {_Letter} == set(syntax._LEVEL) | {Var, Fun} == set(
        syntax._PRINTED)


@pytest.mark.parametrize("cls, values", _CALLS, ids=_IDS)
def test_match_args_list_the_fields_in_order(cls, values):
    assert cls.__match_args__ == _FIELDS[cls]
    node = cls(*values)
    assert tuple(getattr(node, n) for n in cls.__match_args__) == values
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


@pytest.mark.parametrize("cls, values", _CALLS, ids=_IDS)
def test_positional_and_keyword_calls_give_one_node(cls, values):
    node, names = cls(*values), _FIELDS[cls]
    keywords = dict(zip(names, values))
    assert cls(**keywords) is node
    assert cls(**dict(reversed(keywords.items()))) is node
    for k in range(len(values)):
        assert cls(*values[:k], **dict(zip(names[k:], values[k:]))) is node
    assert pickle.loads(pickle.dumps(node)) is node


def test_defaults_fill_in_the_fields_left_out():
    assert Fun(name="c") is Fun("c") is Fun("c", ()) is Fun(args=(), name="c")
    assert ExtApp("Both") is ExtApp(conn="Both") is ExtApp("Both", ())
    assert _Letter("A") is _Letter("A", None) is _Letter(name="A") is kernel.A
    assert _Letter("A", "t") is _Letter(term="t", name="A") is kernel.A_t


@pytest.mark.parametrize("cls, values", _CALLS, ids=_IDS)
def test_a_missing_extra_or_unknown_argument_is_a_type_error(cls, values):
    names = _FIELDS[cls]
    keywords = dict(zip(names, values))
    bad = [((*values, "ctor_extra"), {}), ((), {**keywords, "nosuch": 1}),
           (values, {"nosuch": 1})]
    bad += [((), {n: v for n, v in keywords.items() if n != gone})
            for gone in names if gone not in cls.__dict__]  # no default
    bad += [(values[:1], {names[0]: values[0]})] if names else []
    before = set(syntax._NODES)
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    assert set(syntax._NODES) == before


def test_the_wrong_counts_of_arguments_are_refused():
    before = set(syntax._NODES)
    for call in (lambda: Prop("ctor_p", "ctor_q"), lambda: Fun(),
                 lambda: Var(), lambda: Not(p, q), lambda: Falsity(p),
                 lambda: And(p), lambda: _Letter(), lambda: ExtApp()):
        with pytest.raises(TypeError):
            call()
    assert set(syntax._NODES) == before


@pytest.mark.parametrize("cls, values", _CALLS, ids=_IDS)
def test_a_node_is_frozen(cls, values):
    node = cls(*values)
    for name in _FIELDS[cls] + ("ctor_other",):
        with pytest.raises(FrozenInstanceError, match="cannot assign to"):
            setattr(node, name, p)
        with pytest.raises(FrozenInstanceError, match="cannot delete"):
            delattr(node, name)
    assert tuple(getattr(node, n) for n in _FIELDS[cls]) == values


def test_the_repr_of_a_nested_formula_is_the_dataclass_text():
    a = Exists("y", Forall("x", Imp(
        And(Pred("P", (x, Fun("f", (c,)))), Not(p)),
        Or(Eq(x, c), ExtApp("Des", (Falsity(),))))))
    assert repr(a) == (
        "Exists(var='y', body=Forall(var='x', body=Imp(left=And(left=Pred("
        "name='P', args=(Var(name='x'), Fun(name='f', args=(Fun(name='c', "
        "args=()),)))), right=Not(body=Prop(name='p'))), right=Or(left=Eq("
        "left=Var(name='x'), right=Fun(name='c', args=())), right=ExtApp("
        "conn='Des', args=(Falsity(),))))))")
    assert repr(ExtApp("Both")) == "ExtApp(conn='Both', args=())"
    assert repr(RULES["and-L"].pattern) == (
        "And(left=_Letter(name='A', term=None), "
        "right=_Letter(name='B', term=None))")
    assert repr(kernel.A_y) == "_Letter(name='A', term='y')"


def _records(a, b) -> list:
    """Records over two formulas: a sequent, a derivation step, a
    signature, and a result with a structure of dicts keyed by tuples."""
    m = Structure(("d1", "d2"), {"c": "d1"}, {"f": {("d1",): "d2",
                                                   ("d2",): "d1"}},
                  {"p": B}, {"P": {("d1",): N, ("d2",): T}}, {})
    return [Sequent.of([a, b], [b]), Sequent.of(), DerivationStep(
        "and-L", Sequent.of([a], []), (0,), a, c, None, "x"),
        SIG, Signature(), FOResult(False, m, {"x": "d2"}), FOResult(True)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_FORMULA, _FORMULA)
def test_the_repr_equals_the_recursive_reference(a, b):
    for value in [a, b, Not(a), And(a, b)] + _records(a, b):
        assert repr(value) == node_repr(value)


def test_the_repr_of_nesting_past_the_recursion_limit():
    """300 nested Not, 2,000 nested quantifiers and a term 2,000 deep."""
    deep, text = P(c), repr(P(c))
    for _ in range(300):
        deep = Not(deep)
    assert repr(deep) == "Not(body=" * 300 + text + ")" * 300
    for i in range(2000):
        deep = (Forall if i % 2 else Exists)("x", deep)
    assert repr(deep) == "".join(
        "%s(var='x', body=" % ("Forall" if i % 2 else "Exists")
        for i in reversed(range(2000))) + "Not(body=" * 300 + text + (
        ")" * 2300)
    term = c
    for _ in range(2000):
        term = Fun("f", (term,))
    assert repr(P(term)) == "Pred(name='P', args=(" + (
        "Fun(name='f', args=(" * 2000) + repr(c) + ",))" * 2001


# ---------------------------------------------------------------------------
# values kept on nodes


def _kept_values(a, b) -> frozenset:
    """Give the nodes of a and b every kind of kept value; returns the
    cl guards."""
    str(a), str(b)
    atomic_subformulas([a, b])
    guards = {mode: translation_sets([a], [b], mode)
              for mode in EXTENSION_MODES}
    consequence_prop([a], [b])
    space = PropSpace(("kept_p", "kept_q"))
    space.vector(a), space.vector(b)
    return guards["cl"]


def test_nodes_with_kept_values_leave_the_table():
    # F is alive for good (TRUTH holds it), so its guards are too
    for mode in EXTENSION_MODES:
        translation_sets([Falsity()], [], mode)
    gc.collect()
    before = len(syntax._NODES)
    kp, kq = Prop("kept_p"), Prop("kept_q")
    a = Imp(And(kp, Not(kq)), Or(kq, Falsity()))
    b = ExtApp("Des", (Or(kp, ExtApp("Both")),))
    guards = _kept_values(a, b)
    assert kp in a._atoms and b._prop_code and a._text
    # an atom's guards contain the atom: the values refer back to it
    guard = kp._lp_guard()
    assert guard in guards and kp in syntax.subformulas(guard)
    del a, b, kp, kq, guards, guard
    gc.collect()
    assert len(syntax._NODES) == before


def test_nodes_in_their_own_guards_leave_the_table():
    """~p, p | ~p and p & ~p are parts of p's guards, and so is the lp
    guard itself: translating them keeps nothing alive."""
    for mode in EXTENSION_MODES:
        translation_sets([Falsity()], [], mode)
    gc.collect()
    before = len(syntax._NODES)
    kp = Prop("own_guard_p")
    own = [Not(kp), Or(kp, Not(kp)), And(kp, Not(kp)), _lp_guard(kp)]
    for mode in EXTENSION_MODES:
        for a in own:
            guards = translation_sets([a], [], mode)
            assert guards == translation_sets([], [a, kp], mode)
            if mode == "cl":
                assert any(a in syntax.subformulas(g) for g in guards)
        translation_sets(own, own, mode)
    assert kp._lp_guard() is own[3]
    del kp, own, a, guards
    gc.collect()
    assert len(syntax._NODES) == before


def test_nodes_with_kept_rule_additions_leave_the_table():
    gc.collect()
    before = len(syntax._NODES)
    lp, lq, lr = Prop("life_p"), Prop("life_q"), Prop("life_r")
    deep = Imp(lp, Or(lq, Not(lr)))
    for _ in range(5):  # every level decomposes, and keeps its premises
        deep = Not(Not(And(deep, Not(Imp(lq, And(deep, lr))))))
    s = Sequent.of([deep, Not(Or(lp, lq))], [deep, Not(And(lr, lp))])
    for mode in MODES:
        result = prove_prop(s, SearchBudget(mode=mode))
        assert result.proved and check_derivation(result.proof)[0]
    for rule in RULES.values():
        if rule.backward:
            [rule.additions(DerivationStep(rule.name, s, principal=a))
             for a in (deep, Not(deep))]
    assert deep._premises["notnot-L", None] == (((deep.body.body,), ()),)
    del lp, lq, lr, deep, s, result
    gc.collect()
    assert len(syntax._NODES) == before


QUANTIFIER_RULES = [rule for rule in RULES.values()
                    if rule.needs in (kernel._TERM, kernel._EIGEN)]


def _check_last(rule, principal, t=None, y=None, hyps=None, sequent=None):
    """``check_step`` on a step by ``rule`` whose premises are cited as
    hypotheses: by default the premises and conclusion of the instance
    over an empty context."""
    step = DerivationStep(rule.name, None, (), principal, t=t, y=y)
    if hyps is None:
        hyps, sequent = instance(reference_additions(rule, step))
    step = DerivationStep(rule.name, sequent, tuple(range(len(hyps))),
                          principal, t=t, y=y)
    return check_step(kernel.Derivation(
        tuple(DerivationStep("hypothesis", h) for h in hyps) + (step,),
        frozenset(), hyps), len(hyps))


def test_nodes_with_kept_quantifier_additions_leave_the_table():
    gc.collect()
    before = len(syntax._NODES)
    body = Or(Pred("life_Q", (Var("x"),)),
              Exists("life_v", Eq(Var("x"), Var("life_v"))))
    terms = (Fun("life_c"), Var("life_z"))
    assert len(QUANTIFIER_RULES) == 8
    refused = []
    for rule in QUANTIFIER_RULES:
        a = rule.principal_of({"x": "x", "A": body})
        field = rule.needs[-1]
        keys = terms if field == "t" else ("life_y1", "life_y2")
        for key in keys + keys:  # the second round reads the kept values
            assert _check_last(rule, a, **{field: key}) is None
        mine = {k for k in a._premises if k[0] == rule.name}
        assert mine == {(rule.name, key) for key in keys}
        # a term holding its principal is ill-sorted where a rule takes a
        # term, and a term with arguments is not kept
        t = Fun("life_g", (a,))
        if field == "t":
            with pytest.raises(TypeError) as err:
                _check_last(rule, a, t=t)
            assert str(err.value) == "not a term: %r" % (a,)
            refused.append(rule.name)
            del err
        else:
            assert _check_last(rule, a, y=t) is None
        t = Fun("life_f", (Fun("life_c"),))
        assert _check_last(rule, a, **{field: t}) is None
        assert {k for k in a._premises if k[0] == rule.name} == mine
    assert sorted(refused) == ["exists-R", "forall-L", "notexists-L",
                               "notforall-R"]
    del body, terms, a, key, keys, mine, t
    gc.collect()
    assert len(syntax._NODES) == before


@pytest.mark.parametrize("principal", ["life_p", Var("life_w"), Prop("life_p")])
def test_quantifier_steps_with_a_principal_of_no_pattern(principal):
    """The violations such a step got before its additions were kept."""
    hyps = (Sequent.of([p], [q]),)
    for rule in QUANTIFIER_RULES:
        v = _check_last(rule, principal, t=c, y="y", hyps=hyps,
                        sequent=Sequent.of([p], [q]))
        assert v == kernel.Violation(1, kernel.Code.PRINCIPAL_SHAPE,
                                     "%s cannot introduce %s"
                                     % (rule.name, principal))


def test_nodes_with_kept_masks_leave_the_table_in_one_collection():
    gc.collect()
    before = len(syntax._NODES)
    mp, mq = Prop("mask_p"), Prop("mask_q")
    deep = Imp(mp, mq)
    for _ in range(5):
        deep = Or(Not(deep), And(deep, Imp(mq, Falsity())))
    s = Sequent.of([deep, Not(mq)], [deep, mp])
    for mode in MODES:
        assert prove_prop(s, SearchBudget(mode=mode)).proved
    assert consequence_prop([deep], [mq]) == (False, {"mask_p": T,
                                                     "mask_q": F})
    assert deep._mask[0] == (("mask_p", "mask_q"), ALL_VALUES)
    del mp, mq, deep, s
    gc.collect()
    assert len(syntax._NODES) == before


def test_an_atom_with_kept_atoms_leaves_the_table_with_its_parent():
    gc.collect()
    before = len(syntax._NODES)
    a = Prop("life_a")
    b = ExtApp("Des", (a,))
    assert atomic_subformulas([a]) == {a} and atomic_subformulas([b]) == {a}
    consequence_prop([b], [b])
    del a, b
    gc.collect()
    assert len(syntax._NODES) == before


def test_nested_extra_connectives_with_kept_code_leave_in_one_collection():
    # compiled code holds a connective's table, not its application, so
    # the kept code makes no cycle through the node
    gc.collect()
    before = len(syntax._NODES)
    inner = ExtApp("Des", (Prop("life_d"),))
    outer = ExtApp("Des", (inner,))
    consequence_prop([outer], [inner])
    assert outer._prop_code and inner._prop_code
    del inner, outer
    gc.collect()
    assert len(syntax._NODES) == before


def test_kept_values_are_not_copied_or_pickled():
    a = And(Prop("kept_p"), Not(Imp(Prop("kept_q"), Falsity())))
    b = Or(Prop("kept_q"), Prop("kept_p"))
    fresh = [pickle.dumps(a, protocol)
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    _kept_values(a, b)
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert copy.deepcopy([a, (a,)])[1][0] is a
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(a, protocol) == fresh[protocol]
        assert pickle.loads(pickle.dumps(a, protocol)) is a


def _atoms_afresh(a) -> set:
    """Atomic subformulas by a recursive walk of the tree."""
    match a:
        case Falsity() | Prop(_) | Pred(_, _) | Eq(_, _):
            return {a}
        case ExtApp(_, ()):
            return {a}
        case ExtApp(_, args):
            return set().union(*map(_atoms_afresh, args))
        case Not(b) | Forall(_, b) | Exists(_, b):
            return _atoms_afresh(b)
        case And(l, r) | Or(l, r) | Imp(l, r):
            return _atoms_afresh(l) | _atoms_afresh(r)
    raise TypeError(a)


def _guards_afresh(atoms, mode) -> set:
    out = set()
    for a in atoms:
        if mode != "k3":
            out.add(Not(Imp(Or(a, Not(a)), Falsity())))
        if mode != "lp":
            out.add(Imp(And(a, Not(a)), Falsity()))
    return out


_SIDE = st.lists(_FORMULA, max_size=3)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_SIDE, _SIDE, st.permutations(EXTENSION_MODES))
def test_kept_atoms_and_guards_match_a_fresh_walk(gamma, delta, modes):
    # fill the caches side by side first, then ask for the whole problem
    for side in (gamma, delta):
        atomic_subformulas(side)
        translation_sets(side, [], modes[0])
    want = set().union(*map(_atoms_afresh, gamma + delta))
    assert atomic_subformulas(gamma + delta) == want
    for g in gamma + delta:
        assert atomic_subformulas([g]) == _atoms_afresh(g)
    for mode in modes:
        assert translation_sets(gamma, delta, mode) == _guards_afresh(
            want, mode)
