"""Formula construction, printing, free variables, substitution, and
the hash-consed node table."""

import copy
import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from bd4 import syntax
from bd4.kernel import RULES, check_derivation
from bd4.parser import MAX_DEPTH, parse_formula
from bd4.search import MODES, SearchBudget, prove_prop
from bd4.semantics import PropSpace, consequence_prop
from bd4.simulation import EXTENSION_MODES, translation_sets
from bd4.syntax import (
    And, Eq, Exists, ExtApp, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, SyntaxBuildError, TRUTH, Var, atomic_subformulas,
    formula_key, free_vars, fresh_var, is_literal, is_propositional,
    print_formula, print_term, prop_atoms, prop_signature, subformulas,
    substitute, substitute_term,
)

x, y, z = Var("x"), Var("y"), Var("z")
c = Fun("c")
P = lambda t: Pred("P", (t,))
p, q = Prop("p"), Prop("q")


def test_signature_guards():
    sig = Signature((("f", 2), ("c", 0)), (("P", 1), ("p", 0)))
    assert sig.function_arity("f") == 2
    assert sig.predicate_arity("P") == 1
    assert sig.constants == ("c",)
    assert sig.propositions == ("p",)
    with pytest.raises(SyntaxBuildError):
        Signature((("f", 1), ("f", 2)), ())
    with pytest.raises(SyntaxBuildError):
        Signature((("f", -1),), ())
    with pytest.raises(SyntaxBuildError):
        prop_signature("p", extras=("NoSuchConn",))


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


def test_free_vars():
    a = Forall("x", Imp(P(x), P(y)))
    assert free_vars(a) == {"y"}
    assert free_vars(Exists("y", a)) == set()
    assert free_vars(Eq(Fun("f", (x, c)), y)) == {"x", "y"}


def test_fresh_var_avoids_taken_names():
    got = fresh_var("x", {"x", "x1"})
    assert got not in {"x", "x1"}


def test_substitute_term():
    t = Fun("f", (x, Fun("g", (y,))))
    assert substitute_term(t, "y", c) == Fun("f", (x, Fun("g", (c,))))


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


def test_substitution_skips_shadowed_occurrences():
    a = Forall("x", P(x))
    assert substitute(a, "x", c) == a


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
        if rule.kept_as:
            rule.additions(deep), rule.additions(Not(deep))
    assert deep._premises_notnot_L == (((deep.body.body,), ()),)
    del lp, lq, lr, deep, s, result
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
