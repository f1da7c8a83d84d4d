"""Definability: tables, the preservation criterion, clones, synthesis."""

from itertools import product

import pytest

from bd4.definability import (
    BD_BASE, CONFLATION, CONJ_FN, ConnectiveDef,
    DEFINITIONS, DISJ_FN, DefinabilityError, FALSUM_FN, IMPL_FN, NEG_FN,
    TruthFunction, check_expansion_equivalences, clone_closure,
    extra_function, find_definition, is_definable_criterion, projection,
    truth_function_of, verify_definition,
)
from bd4.syntax import And, Falsity, Imp, Not, Or, Prop, print_formula
from bd4.values import B, F, N, T, VALUES, designated


def test_truth_function_guards():
    with pytest.raises(DefinabilityError):
        TruthFunction(1, (T, T))
    with pytest.raises(DefinabilityError):
        TruthFunction(2, (T,) * 16).apply(T)
    assert projection(2, 1).apply(B, N) == N


def test_names_do_not_affect_equality():
    assert TruthFunction(1, (T, B, N, F), "a") == TruthFunction(1, (T, B, N, F))


def test_named_tables():
    assert extra_function("Des").table == (T, T, F, F)
    assert extra_function("Norm").table == (T, F, F, T)
    assert extra_function("Cons").table == (T, F, T, T)
    assert extra_function("Det").table == (T, T, F, T)
    assert CONFLATION.table == (T, N, B, F)
    assert extra_function("Both").table == (B,)
    assert extra_function("Neither").table == (N,)


def test_truth_function_of_examples():
    p = Prop("p1")
    assert truth_function_of(Not(Imp(p, Falsity()))).table == (T, T, F, F)
    norm = And(Imp(And(p, Not(p)), Falsity()),
               Not(Imp(Or(p, Not(p)), Falsity())))
    assert truth_function_of(norm).table == (T, F, F, T)
    assert truth_function_of(p).table == (T, B, N, F)


def test_truth_function_of_argument_order():
    p1, p2 = Prop("p1"), Prop("p2")
    f = truth_function_of(Imp(p1, p2), ("p2", "p1"))
    # arguments swapped: entry for (a, b) is imp(b, a)
    assert f.apply(F, T) == F
    with pytest.raises(DefinabilityError):
        truth_function_of(Imp(p1, p2), ("p1",))


def test_definitions_verify_table_exactly():
    for name, d in DEFINITIONS.items():
        assert verify_definition(d, extra_function(name)), name
        assert is_definable_criterion(extra_function(name))


def test_verify_definition_arity_mismatch():
    with pytest.raises(DefinabilityError):
        verify_definition(DEFINITIONS["Des"], CONJ_FN)


def test_criterion_examples():
    assert not is_definable_criterion(CONFLATION)
    assert not is_definable_criterion(TruthFunction(0, (B,)))
    assert not is_definable_criterion(TruthFunction(0, (N,)))
    for g in BD_BASE:
        assert is_definable_criterion(g)


def test_unary_clone_of_full_base_is_the_criterion_set():
    clone = clone_closure(BD_BASE, 1)
    assert len(clone) == 36
    members = {g.packed() for g in clone}
    hits = 0
    for tbl in product(VALUES, repeat=4):
        g = TruthFunction(1, tbl)
        sat = is_definable_criterion(g)
        assert (g.packed() in members) == sat, tbl
        hits += sat
    assert hits == 36
    for g in clone:
        assert g.apply(B) in {T, F, B} and g.apply(N) in {T, F, N}


def test_negation_clone_is_just_id_and_neg():
    clone = clone_closure((NEG_FN,), 1)
    assert sorted(g.table for g in clone) == sorted(
        [(T, B, N, F), (F, B, N, T)])


def test_a_table_keeps_the_name_it_entered_the_closure_under():
    # a projection first, then the base's constants in base order; a
    # composition that gives a named table again stays under its name
    truth = TruthFunction(0, (T,), "T")
    clone = clone_closure((FALSUM_FN, truth, TruthFunction(0, (F,), "G"),
                           NEG_FN), 1)
    assert [(g.table, g.name) for g in clone] == [
        ((T, T, T, T), "T"), ((T, B, N, F), "proj1"), ((F, B, N, T), None),
        ((F, F, F, F), "F")]
    assert [g.name for g in clone_closure((truth, FALSUM_FN), 0)] == [
        "T", "F"]


def test_cons_outside_clone_without_falsum_style_base():
    clone = clone_closure(
        (NEG_FN, CONJ_FN, DISJ_FN, extra_function("Norm")), 1)
    tables = {g.packed() for g in clone}
    assert extra_function("Cons").packed() not in tables
    assert extra_function("Det").packed() not in tables


def test_binary_clone_of_join_only():
    clone = clone_closure((DISJ_FN,), 2)
    assert len(clone) == 3  # both projections and their join


def test_expansion_equivalences_all_hold():
    checks = check_expansion_equivalences()
    assert len(checks) == 7
    for c in checks:
        assert c.ok, c.label
    labels = {c.label for c in checks}
    assert "falsum from Both and Neither" in labels
    assert "Norm from Cons and Det" in labels


def test_find_definition_examples():
    got = find_definition(extra_function("Des"), depth=3)
    assert got is not None
    assert verify_definition(got, extra_function("Des"))
    ident = find_definition(TruthFunction(1, (T, B, N, F)), depth=2)
    assert print_formula(ident.formula) == "p1"
    assert find_definition(CONFLATION, depth=3) is None


def test_connective_def_guards():
    with pytest.raises(DefinabilityError):
        ConnectiveDef("bad", 1, Prop("q"))


def simplicity_probe() -> tuple[bool, dict]:
    """Check that unary generated functions separate every value pair.

    For each pair of distinct values, find a unary function in the
    clone of the base whose outputs differ in designation.  Separating
    every pair is what makes synonymity collapse to equivalence.
    """
    unary = clone_closure(BD_BASE, 1)
    witnesses = {}
    ok = True
    for a in VALUES:
        for b in VALUES:
            if a >= b:
                continue
            sep = None
            for g in unary:
                if designated(g.apply(a)) != designated(g.apply(b)):
                    sep = g
                    break
            witnesses[(a, b)] = sep
            if sep is None:
                ok = False
    return ok, witnesses


def test_simplicity_probe_separates_all_pairs():
    ok, witnesses = simplicity_probe()
    assert ok
    assert len(witnesses) == 6
    for (a, b), g in witnesses.items():
        assert designated(g.apply(a)) != designated(g.apply(b))
