"""The candidate-matrix search: laws, regularity, and the survivor count.

The headline numbers here were derived once by an independent hand
analysis of the constraints and are frozen as expectations: candidate
pools 4/4096/4096/4096/4096/4096/2, and 81 survivors of the full
fifteen-law filter, differing from the reference matrix only in the
implication table (9 admissible b-rows times 9 admissible n-rows).
"""

import random

import pytest

from bd4.matrixlab import (
    ALL_LAWS, BD_MATRIX, CLASSICAL_LAWS, LAW_TEXT, Matrix4, SUBSETS,
    candidate_counts, check_all_laws, check_classical_laws, check_law,
    consequence_in, enumerate_candidates, is_classically_closed,
    is_regular, uniqueness_search,
)
from bd4.semantics import consequence_prop, valuations
from bd4.syntax import (
    And, ExtApp, Falsity, Imp, Not, Or, Prop, prop_atoms,
)
from bd4.values import B, F, N, T, VALUES, designated, imp, inf, sup

p, q = Prop("p"), Prop("q")


def test_reference_matrix_tables():
    """All 53 entries plus the two quantifier tables, against first
    principles: lattice inf/sup, involutive negation, gated arrow."""
    assert BD_MATRIX.falsum == F
    assert BD_MATRIX.truth == T
    for a in VALUES:
        assert BD_MATRIX.neg_of(a) == {T: F, F: T, B: B, N: N}[a]
        for b in VALUES:
            assert BD_MATRIX.conj_of(a, b) == inf([a, b])
            assert BD_MATRIX.disj_of(a, b) == sup([a, b])
            assert BD_MATRIX.impl_of(a, b) == imp(a, b)
    assert len(SUBSETS) == 15
    for vs in SUBSETS:
        assert BD_MATRIX.forall_of(vs) == inf(vs)
        assert BD_MATRIX.exists_of(vs) == sup(vs)


def test_reference_matrix_is_regular_and_closed():
    assert is_regular(BD_MATRIX)
    assert is_classically_closed(BD_MATRIX)


def test_all_fifteen_laws_hold():
    results = check_all_laws(BD_MATRIX)
    assert set(results) == set(ALL_LAWS)
    for law, (ok, witness) in results.items():
        assert ok, (law, LAW_TEXT[law], witness)


def test_law_checker_reports_witnesses():
    # break double negation by fixing b under neg to t
    broken = Matrix4(
        neg=(F, T, N, T), conj=BD_MATRIX.conj, disj=BD_MATRIX.disj,
        impl=BD_MATRIX.impl, forall_q=BD_MATRIX.forall_q,
        exists_q=BD_MATRIX.exists_q, falsum=BD_MATRIX.falsum)
    ok, witness = check_law(broken, 11)
    assert not ok and witness is not None


def test_candidate_counts_frozen():
    assert candidate_counts() == {
        "neg": 4, "conj": 4096, "disj": 4096, "impl": 4096,
        "forall": 4096, "exists": 4096, "falsum": 2,
    }
    assert len(enumerate_candidates("neg")) == 4
    assert len(enumerate_candidates("falsum")) == 2


def test_uniqueness_search_survivor_count():
    rep = uniqueness_search()
    assert rep.survivor_count == 81
    assert BD_MATRIX in rep.survivors
    base = rep.survivors[0]
    for m in rep.survivors:
        assert m.neg == base.neg and m.conj == base.conj
        assert m.disj == base.disj and m.falsum == base.falsum
        assert m.forall_q == base.forall_q and m.exists_q == base.exists_q
    assert len(rep.survivors_modulo_impl()) == 1


def test_dropping_single_laws_increases_survivors():
    for dropped, expect in [(11, 162), (12, 576), (13, 576)]:
        rep = uniqueness_search(dropped={dropped})
        assert rep.survivor_count == expect, (dropped, rep.survivor_count)
    for dropped in (1, 7, 10):
        assert uniqueness_search(dropped={dropped}).survivor_count == 81


def test_dropping_quantifier_laws():
    assert uniqueness_search(dropped={14}).survivor_count == 331776
    assert uniqueness_search(dropped={15}).survivor_count == 331776


DEVIANT = Matrix4(
    neg=BD_MATRIX.neg, conj=BD_MATRIX.conj, disj=BD_MATRIX.disj,
    impl=tuple(
        {(N, T): B, (N, F): B}.get((a, b), BD_MATRIX.impl_of(a, b))
        for a in VALUES for b in VALUES),
    forall_q=BD_MATRIX.forall_q, exists_q=BD_MATRIX.exists_q,
    falsum=BD_MATRIX.falsum)


def test_deviant_survivor_differs_as_a_logic():
    """A second survivor is not just a different table: it disagrees
    with the reference matrix about a consequence statement."""
    results = check_all_laws(DEVIANT)
    assert all(ok for ok, _ in results.values())
    assert is_regular(DEVIANT) and is_classically_closed(DEVIANT)
    rep = uniqueness_search()
    assert DEVIANT in rep.survivors

    gamma, delta = [Not(Imp(p, q))], [p]
    assert consequence_in(BD_MATRIX, gamma, delta)[0]
    holds, wit = consequence_in(DEVIANT, gamma, delta)
    assert not holds
    assert wit == {"p": N, "q": T}


def test_classical_laws_three_fail_two_hold():
    results = check_classical_laws()
    assert len(results) == len(CLASSICAL_LAWS) == 5
    byname = {name: (ok, wit) for name, _, ok, wit in results}
    failing = [name for name, (ok, _) in byname.items() if not ok]
    assert len(failing) == 3
    for name, (ok, wit) in byname.items():
        if not ok:
            assert wit is not None and set(wit) == {"A"}
        else:
            assert wit is None
    # the two implication laws do hold
    holding = [name for name, (ok, _) in byname.items() if ok]
    assert len(holding) == 2


def test_consequence_in_matrix_matches_reference_semantics():
    from bd4.semantics import consequence_prop
    cases = [
        ([p, Not(p)], [q]),
        ([], [Or(p, Not(p))]),
        ([p], [p]),
        ([Imp(p, q), p], [q]),
    ]
    for gamma, delta in cases:
        assert consequence_in(BD_MATRIX, gamma, delta)[0] == \
            consequence_prop(gamma, delta)[0]


def test_consequence_in_refuses_an_extra_connective():
    for a in (ExtApp("Des", (p,)), Or(p, ExtApp("Both"))):
        for gamma, delta in (([a], [q]), ([q], [a])):
            with pytest.raises(ValueError):
                consequence_in(BD_MATRIX, gamma, delta)


def _value_in(m, a, v):
    """Per-valuation evaluation with the matrix's tables: the reference."""
    match a:
        case Prop(name):
            return v[name]
        case Falsity():
            return m.falsum
        case Not(b):
            return m.neg[_value_in(m, b, v)]
        case And(l, r):
            return m.conj_of(_value_in(m, l, v), _value_in(m, r, v))
        case Or(l, r):
            return m.disj_of(_value_in(m, l, v), _value_in(m, r, v))
        case Imp(l, r):
            return m.impl_of(_value_in(m, l, v), _value_in(m, r, v))


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Falsity() if rng.random() < 0.1 else Prop(rng.choice("pqr"))
    kind = rng.choice((Not, And, Or, Imp))
    if kind is Not:
        return Not(_random_formula(rng, depth - 1))
    return kind(_random_formula(rng, depth - 1),
                _random_formula(rng, depth - 1))


@pytest.mark.parametrize("m", [BD_MATRIX, DEVIANT], ids=["bd", "deviant"])
def test_consequence_in_matrix_matches_per_valuation_evaluation(m):
    rng = random.Random(11)
    for _ in range(400):
        gamma = [_random_formula(rng, 3) for _ in range(rng.randrange(3))]
        delta = [_random_formula(rng, 3) for _ in range(rng.randrange(3))]
        atoms = sorted(set().union(*map(prop_atoms, gamma + delta)))
        want = next((v for v in valuations(atoms)
                     if all(designated(_value_in(m, a, v)) for a in gamma)
                     and not any(designated(_value_in(m, a, v))
                                 for a in delta)), None)
        assert consequence_in(m, gamma, delta) == (want is None, want)
        if m is BD_MATRIX:
            assert consequence_prop(gamma, delta) == (want is None, want)
