"""The candidate-matrix search: laws, regularity, and the survivor count.

The headline numbers here were derived once by an independent hand
analysis of the constraints and are frozen as expectations: candidate
pools 4/4096/4096/4096/4096/4096/2, and 81 survivors of the full
fifteen-law filter, differing from the reference matrix only in the
implication table (9 admissible b-rows times 9 admissible n-rows).
"""

import itertools
import random

import pytest

from bd4.matrixlab import (
    _CONTEXT, _FAMILIES as FAMILIES, ALL_LAWS, BD_MATRIX, CLASSICAL_LAWS,
    LAW_TEXT, Matrix4, SUBSETS, _cell_sets, _law_witness, _tables,
    candidate_counts, check_all_laws, check_classical_laws, check_law,
    enumerate_candidates, is_classically_closed, is_regular,
    uniqueness_search,
)
from bd4.semantics import consequence_prop, valuations
from bd4.syntax import (
    And, ExtApp, Falsity, Imp, Not, Or, Prop, prop_atoms,
)
from bd4.values import B, F, N, T, VALUES, designated, imp, inf, sup

from support import consequence_in

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


# ---------------------------------------------------------------------------
# the staged search against the staged filter it replaced


def _passing(pools, family, laws, context):
    slot = _CONTEXT.index(family)
    before, after = context[:slot], context[slot + 1:]
    return [x for x in pools[family]
            if all(_law_witness(law, *before, x, *after) is None
                   for law in laws)]


def _filtered_search(dropped=(), cap=1000):
    """The reference: every family's candidates filtered by
    ``_law_witness``, stage by stage, with the report of the search."""
    active = frozenset(ALL_LAWS) - frozenset(dropped)
    pools = {family: enumerate_candidates(family) for family in FAMILIES}
    counts = {family: len(pool) for family, pool in pools.items()}

    def laws(*ids):
        return tuple(law for law in ids if law in active)

    stages = []
    negs = _passing(pools, "neg", laws(11), (None,) * 7)
    stages.append(("negation tables after law 11", len(negs)))
    total, contexts = 0, []
    for nu in negs:
        for ff in pools["falsum"]:
            context = (nu, ff) + (None,) * 5
            conj_pool = _passing(pools, "conj", laws(1, 3, 5, 7), context)
            disj_pool = _passing(pools, "disj", laws(2, 4, 6, 8), context)
            pairs = [
                (cj, dj) for cj in conj_pool for dj in disj_pool
                if all(_law_witness(law, nu, ff, cj, dj, None, None, None)
                       is None for law in laws(9, 10))
            ]
            stages.append((
                "context neg=%s falsum=%s: conj %d, disj %d, joint pairs %d"
                % (tuple(v.letter for v in nu), ff.letter, len(conj_pool),
                   len(disj_pool), len(pairs)),
                len(pairs),
            ))
            for cj, dj in pairs:
                context = (nu, ff, cj, dj, None, None, None)
                late = [_passing(pools, family, laws(*ids), context)
                        for family, ids in (("impl", (12, 13)),
                                            ("forall", (14,)),
                                            ("exists", (15,)))]
                n = len(late[0]) * len(late[1]) * len(late[2])
                total += n
                if n:
                    contexts.append((nu, ff, cj, dj, late))
    survivors = None
    if total <= cap:
        survivors = [
            Matrix4(neg=nu, conj=cj, disj=dj, impl=im, forall_q=al,
                    exists_q=ex, falsum=ff)
            for nu, ff, cj, dj, late in contexts
            for im, al, ex in itertools.product(*late)
        ]
    return counts, stages, total, survivors


def _drop_sets():
    """No drop, each single drop, and ten pairs drawn with a fixed seed."""
    pairs = list(itertools.combinations(ALL_LAWS, 2))
    return ([()] + [(law,) for law in ALL_LAWS]
            + random.Random(2301).sample(pairs, 10))


@pytest.mark.parametrize("dropped", _drop_sets(), ids=str)
def test_the_search_equals_the_staged_filter(dropped):
    rep = uniqueness_search(dropped=dropped)
    got = (rep.candidate_counts, rep.stages, rep.survivor_count,
           rep.survivors)
    assert got == _filtered_search(dropped)
    assert list(rep.candidate_counts) == list(FAMILIES)
    assert rep.dropped == frozenset(dropped)


@pytest.mark.parametrize("dropped", [(16,), ("x",), (0, 3), (7, "7")],
                         ids=str)
def test_dropping_no_law_is_refused(dropped):
    with pytest.raises(ValueError, match="no law to drop"):
        uniqueness_search(dropped=dropped)


def test_every_per_cell_pool_equals_the_filtered_candidates():
    """Conjunction and disjunction pools under every subset of their
    cell laws, in every (negation, falsity) context, against filtering
    the candidates with ``_law_witness``: the same tables in order."""
    for family, cell_laws in (("conj", (1, 3, 5, 7)),
                              ("disj", (2, 4, 6, 8))):
        candidates = enumerate_candidates(family)
        slot = _CONTEXT.index(family)
        for nu in enumerate_candidates("neg"):
            for ff in enumerate_candidates("falsum"):
                context = (nu, ff, None, None, None, None, None)
                passing = {
                    law: {x for x in candidates if _law_witness(
                        law, *context[:slot], x, *context[slot + 1:])
                        is None}
                    for law in cell_laws}
                for k in range(len(cell_laws) + 1):
                    for laws in itertools.combinations(cell_laws, k):
                        want = [x for x in candidates
                                if all(x in passing[law] for law in laws)]
                        got = list(_tables(*_cell_sets(family, laws, nu,
                                                       ff)))
                        assert got == want, (family, laws, nu, ff)
