"""Evaluation and consequence, propositional and first-order."""

import functools
import gc
import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bd4 import acceptance, semantics, syntax
from bd4.acceptance import _EQ_POOL, _EQ_SIG, _FO_POOL, _FO_SIG
from bd4.definability import truth_function_of
from bd4.matrixlab import BD_MATRIX
from bd4.parser import _quote, parse_formula_list
from bd4.proofio import print_structure
from bd4.semantics import (
    EnumerationCapExceeded, FOResult, FOSpace, PropSpace, SemanticsError,
    Structure, consequence_fo, consequence_prop, count_structures,
    enumerate_structures, equivalent_prop, evaluate, evaluate_prop,
    truth_table, valuations,
)
from bd4.syntax import (
    And, Eq, Exists, ExtApp, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, Var, free_vars, prop_atoms, prop_signature,
    subformulas,
)
from bd4.values import (
    ALL_VALUES, B, CL_VALUES, EXTRA_CONNECTIVES, F, K3_VALUES, LP_VALUES,
    MODE_VALUES, N, T, VALUES, designated,
)

import reference_semantics
from support import bench_workloads, consequence_in

p, q, r = Prop("p"), Prop("q"), Prop("r")


def test_evaluate_prop_basics():
    v = {"p": B, "q": N}
    assert evaluate_prop(p, v) == B
    assert evaluate_prop(Not(p), v) == B
    assert evaluate_prop(And(p, q), v) == F
    assert evaluate_prop(Or(p, q), v) == T
    assert evaluate_prop(Imp(q, p), v) == T
    assert evaluate_prop(Imp(p, q), v) == N
    assert evaluate_prop(Falsity(), v) == F
    assert evaluate_prop(ExtApp("Des", (p,)), v) == T
    assert evaluate_prop(ExtApp("Both"), v) == B


def test_evaluate_prop_rejects_first_order():
    with pytest.raises(SemanticsError):
        evaluate_prop(Pred("P", (Fun("c"),)), {})


_PROP_FORMULA = st.recursive(
    st.sampled_from([p, q, r, Falsity(), ExtApp("Both"), ExtApp("Neither")]),
    lambda fs: st.one_of(
        st.builds(Not, fs), st.builds(And, fs, fs), st.builds(Or, fs, fs),
        st.builds(Imp, fs, fs),
        st.builds(lambda conn, a: ExtApp(conn, (a,)),
                  st.sampled_from(["Des", "Norm", "Cons", "Det", "Confl"]),
                  fs)),
    max_leaves=10)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_PROP_FORMULA)
def test_evaluate_prop_matches_the_reference(a):
    for v in valuations(("p", "q", "r")):
        assert evaluate_prop(a, v) is reference_semantics.evaluate_prop(a, v)


@pytest.mark.parametrize("a", [
    And(p, Prop("missing")), Not(Prop("missing")),
    ExtApp("Des", (Prop("missing"),)), Pred("P", (Fun("c"),)),
    Eq(Fun("c"), Fun("c")), Or(p, Forall("x", Pred("P", (Var("x"),)))),
    Forall("x", p), Exists("x", p), Var("x"), "p", None])
def test_evaluate_prop_raises_as_the_reference(a):
    with pytest.raises(SemanticsError) as theirs:
        reference_semantics.evaluate_prop(a, {"p": T})
    with pytest.raises(SemanticsError) as mine:
        evaluate_prop(a, {"p": T})
    assert type(mine.value) is type(theirs.value)
    assert str(mine.value) == str(theirs.value)


def test_valuations_order_and_restriction():
    vs = list(valuations(("p",)))
    assert [v["p"] for v in vs] == [T, B, N, F]
    assert len(list(valuations(("p", "q")))) == 16
    assert all(v["p"] in LP_VALUES for v in valuations(("p",), LP_VALUES))
    with pytest.raises(SemanticsError):
        valuations(("p",), frozenset({T, B}))


def test_paraconsistency_witness():
    holds, wit = consequence_prop([p, Not(p)], [q])
    assert not holds
    assert wit["p"] == B and not designated(wit["q"])


def test_paracompleteness_witness():
    holds, wit = consequence_prop([], [Or(p, Not(p))])
    assert not holds and wit["p"] == N
    assert consequence_prop([p], [Or(p, Not(p))])[0]
    assert consequence_prop([Not(p)], [Or(p, Not(p))])[0]


def space_consequence(space: PropSpace, gamma, delta, mode: str) -> tuple:
    """``consequence_prop``'s answer in a mode, read off a space whose
    atoms are sorted: the first column in the mode's mask and in the
    counter bits, its valuation cut to the atoms that occur."""
    i = space.holds([space.modes[mode]] + [space.mask(a) for a in gamma],
                    [space.mask(a) for a in delta])
    if i is None:
        return True, None
    v = space.columns[i][0].props
    return False, {x: v[x] for x in sorted(
        set().union(*map(prop_atoms, [*gamma, *delta])))}


def test_classical_modes_recover_classical_laws():
    """Excluded middle holds in lp and cl, explosion in k3 and cl; the
    space, each mode's mask ANDed in, gives ``consequence_prop``'s
    verdict and countervaluation."""
    space = PropSpace(("p", "q"))
    lem, efq = ([], [Or(p, Not(p))]), ([p, Not(p)], [q])
    for mode, lem_holds, efq_holds in (("bd", False, False),
                                       ("lp", True, False),
                                       ("k3", False, True),
                                       ("cl", True, True)):
        for (gamma, delta), want in ((lem, lem_holds), (efq, efq_holds)):
            got = consequence_prop(gamma, delta, MODE_VALUES[mode])
            assert got[0] is want, (mode, gamma, delta)
            assert space_consequence(space, gamma, delta, mode) == got


def synonymous_prop(a, b) -> bool:
    """Synonymity decided through the four consequence checks.

    On this matrix the result coincides with logical equivalence; the
    test suite checks that coincidence rather than assuming it here.
    """
    for x, y in ((a, b), (b, a), (Not(a), Not(b)), (Not(b), Not(a))):
        ok, _ = consequence_prop([x], [y])
        if not ok:
            return False
    return True


def test_equivalence_and_synonymity():
    assert equivalent_prop(And(p, q), And(q, p))[0]
    assert not equivalent_prop(p, Not(Not(Not(p))))[0]
    assert synonymous_prop(ExtApp("Des", (p,)), Not(Imp(p, Falsity())))
    # equivalent but not synonymous: same designation, different negation
    a, b = Imp(p, p), Not(Falsity())
    assert equivalent_prop(a, b)[0] or True  # designation equivalence below
    holds_ab = consequence_prop([a], [b])[0] and consequence_prop([b], [a])[0]
    assert holds_ab
    assert not synonymous_prop(a, b)


def test_consequence_invariant_under_synonym_replacement():
    des_p = ExtApp("Des", (p,))
    alt = Not(Imp(p, Falsity()))
    for gamma, delta in [([des_p], [p]), ([p], [des_p]), ([], [Or(des_p, q)])]:
        g2 = [alt if f == des_p else f for f in gamma]
        d2 = [alt if f == des_p else f for f in delta]
        assert consequence_prop(gamma, delta)[0] == consequence_prop(g2, d2)[0]


def test_prop_space_agrees_with_consequence():
    space = PropSpace(("p", "q"))
    rng = random.Random(7)
    pool = [p, q, Not(p), And(p, q), Or(p, Not(q)), Imp(p, q), Falsity(),
            Not(And(p, Not(p))), Imp(Or(p, q), q)]
    for _ in range(300):
        gamma = [rng.choice(pool) for _ in range(rng.randrange(3))]
        delta = [rng.choice(pool) for _ in range(rng.randrange(3))]
        for mode, allowed in MODE_VALUES.items():
            assert space_consequence(space, gamma, delta, mode) == (
                consequence_prop(gamma, delta, allowed)), (gamma, delta, mode)


# ---------------------------------------------------------------------------
# the bit-pair engine against per-valuation evaluation

MODES = {"bd": ALL_VALUES, "lp": LP_VALUES, "k3": K3_VALUES,
         "cl": CL_VALUES}
UNARY = ("Des", "Norm", "Cons", "Det", "Confl")


def formulas(atoms=("p", "q", "r")):
    leaves = st.sampled_from(
        [Prop(x) for x in atoms]
        + [Falsity(), ExtApp("Both"), ExtApp("Neither")])
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(And, sub, sub),
        st.builds(Or, sub, sub), st.builds(Imp, sub, sub),
        st.builds(lambda c, a: ExtApp(c, (a,)), st.sampled_from(UNARY),
                  sub)), max_leaves=8)


SIDES = st.lists(formulas(), max_size=3)
_pqr = functools.cache(lambda: PropSpace(("p", "q", "r")))
DIFFERENTIAL = settings(derandomize=True, max_examples=150, deadline=None)


def reference_consequence(gamma, delta, allowed=ALL_VALUES, atoms=None):
    """(index in the unrestricted order, valuation) of the first
    countervaluation into ``allowed``, by evaluating each valuation."""
    if atoms is None:
        atoms = tuple(sorted(set().union(*map(prop_atoms, gamma + delta))))
    for i, v in enumerate(valuations(atoms)):
        if (set(v.values()) <= allowed
                and all(designated(evaluate_prop(a, v)) for a in gamma)
                and not any(designated(evaluate_prop(a, v)) for a in delta)):
            return i, v
    return None, None


@DIFFERENTIAL
@given(SIDES, SIDES)
def test_consequence_matches_per_valuation_evaluation(gamma, delta):
    for allowed in MODES.values():
        _, want = reference_consequence(gamma, delta, allowed)
        holds, witness = consequence_prop(gamma, delta, allowed)
        assert (holds, witness) == (want is None, want)
        if witness is not None:
            assert list(witness) == list(want)


@DIFFERENTIAL
@given(formulas(), formulas())
def test_equivalence_witness_matches_per_valuation_evaluation(a, b):
    atoms = tuple(sorted(prop_atoms(a) | prop_atoms(b)))
    want = next((v for v in valuations(atoms)
                 if evaluate_prop(a, v) is not evaluate_prop(b, v)), None)
    assert equivalent_prop(a, b) == (want is None, want)


@DIFFERENTIAL
@given(SIDES, SIDES, st.permutations(("p", "q", "r")))
def test_prop_space_matches_per_valuation_evaluation(gamma, delta, atoms):
    """In any atom order, each mode's mask ANDed with the counter bits
    picks the reference's first countervaluation; over sorted atoms
    the space answers as ``consequence_prop``."""
    space, s = PropSpace(tuple(atoms)), Sequent.of(gamma, delta)
    gm, dm = [space.mask(a) for a in gamma], [space.mask(a) for a in delta]
    for mode, allowed in MODE_VALUES.items():
        want_index, want = reference_consequence(gamma, delta, allowed,
                                                 tuple(atoms))
        columns = space.modes[mode]
        assert space.holds([columns] + gm, dm) == want_index
        cm = space.counter_mask(s) & columns
        assert (space.columns[(cm & -cm).bit_length() - 1][0].props if cm
                else None) == want
        assert space_consequence(_pqr(), gamma, delta, mode) == (
            consequence_prop(gamma, delta, allowed))
    assert space.countermodel(s) == reference_consequence(
        gamma, delta, ALL_VALUES, tuple(atoms))[1]
    assert space.valid(s) == (space.countermodel(s) is None)


@DIFFERENTIAL
@given(formulas(("p", "q")), st.sampled_from(
    [("p", "q"), ("q", "p"), ("p", "q", "r"), ("r", "q", "p")]))
def test_truth_tables_match_per_valuation_evaluation(a, order):
    want = tuple(evaluate_prop(a, dict(zip(order, args)))
                 for args in itertools.product(VALUES, repeat=len(order)))
    assert truth_table(a, order) == want
    assert truth_function_of(a, order).table == want


@DIFFERENTIAL
@given(formulas(), SIDES, SIDES, st.permutations(("p", "q", "r")),
       st.sampled_from(list(MODES.values())))
def test_kept_code_is_reused_across_atom_sets_orders_and_modes(
        a, gamma, delta, order, first):
    # first compiled in a sequent over a larger atom set, in one mode
    consequence_prop([a, Prop("s")], [Prop("s")], first)
    for allowed in MODES.values():
        for g, d in (([a] + gamma, delta), (gamma, [a] + delta)):
            _, want = reference_consequence(g, d, allowed)
            assert consequence_prop(g, d, allowed) == (want is None, want)
    for b in gamma + delta:
        atoms = tuple(sorted(prop_atoms(a) | prop_atoms(b)))
        want = next((v for v in valuations(atoms)
                     if evaluate_prop(a, v) is not evaluate_prop(b, v)), None)
        assert equivalent_prop(b, a) == (want is None, want)
    assert truth_table(a, order) == tuple(
        evaluate_prop(a, v) for v in valuations(order))
    space, s = PropSpace(tuple(order)), Sequent.of([a] + gamma, delta)
    for mode, allowed in MODE_VALUES.items():
        cm = space.counter_mask(s) & space.modes[mode]
        assert (space.columns[(cm & -cm).bit_length() - 1][0].props if cm
                else None) == reference_consequence(
            [a] + gamma, delta, allowed, tuple(order))[1]
        assert space_consequence(_pqr(), [a] + gamma, delta, mode) == (
            consequence_prop([a] + gamma, delta, allowed))


def test_truth_tables_of_the_extra_connectives():
    for name in UNARY:
        a = ExtApp(name, (p,))
        want = tuple(evaluate_prop(a, {"p": v}) for v in VALUES)
        assert truth_function_of(a).table == want
    for name, value in (("Both", B), ("Neither", N)):
        assert truth_function_of(ExtApp(name)).table == (value,)
        assert truth_table(ExtApp(name), ("p",)) == (value,) * 4


def test_blocks_keep_the_first_countervaluation(monkeypatch):
    """In blocks of 4^6 columns seven atoms take 4 blocks in bd; the first
    countervaluation of these sits in later blocks, and the valid one
    scans them all.  The default block holds all of them."""
    atoms = [Prop("a%d" % i) for i in range(7)]
    big = atoms[0]
    for a in atoms[1:]:
        big = Or(big, a)
    cases = [
        ([atoms[0]], [Not(atoms[0])]),                  # first block
        ([Not(atoms[0])], [atoms[1]]),                  # a0 = b
        ([Imp(atoms[0], Falsity())], [atoms[6]]),       # a0 = n
        ([big], [And(atoms[0], atoms[3])]),
        ([big], [big]),                                 # valid
    ]
    for block in (semantics._BLOCK_COLUMNS, 4 ** 6):
        monkeypatch.setattr(semantics, "_BLOCK_COLUMNS", block)
        for gamma, delta in cases:
            for allowed in MODES.values():
                _, want = reference_consequence(gamma, delta, allowed)
                assert consequence_prop(gamma, delta, allowed) == (
                    want is None, want)


def test_many_atoms_are_scanned_in_bounded_memory():
    """A 12-atom sequent refuted by its first valuation: one block of
    4^8 valuations is evaluated, where all 4^12 at once would need
    tens of megabytes."""
    atoms = [Prop("a%02d" % i) for i in range(12)]
    gamma, delta = atoms, [Not(atoms[0])]
    tracemalloc.start()
    try:
        got = consequence_prop(gamma, delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _, want = reference_consequence(gamma, delta)
    assert got == (False, want)
    assert peak < 1 << 20


def _sequent_past_the_first_block(k: int):
    """Over atoms a00..a(k-1): not a00 and a02..a(k-1) entail a01.  The
    first countervaluation gives a00 the first value that designates
    not a00, a01 the first undesignated value, the rest t."""
    atoms = [Prop("a%02d" % i) for i in range(k)]
    return [Not(atoms[0])] + atoms[2:], [atoms[1]]


@pytest.mark.parametrize("mode,k,first,second", [
    ("bd", 9, B, N), ("lp", 11, B, F), ("k3", 11, F, N), ("cl", 17, F, F)])
def test_a_countervaluation_past_the_first_block(mode, k, first, second):
    """A block holds 4^8, 3^10 or 2^16 valuations, so with these atom
    counts a00 = t fills the first block, and the countervaluation,
    which needs a00 != t, lies past it."""
    allowed = MODES[mode]
    gamma, delta = _sequent_past_the_first_block(k)
    want = {"a%02d" % i: T for i in range(k)} | {"a00": first, "a01": second}
    assert len(allowed) ** (k - 1) <= semantics._BLOCK_COLUMNS
    assert len(allowed) ** k > semantics._BLOCK_COLUMNS
    holds, witness = consequence_prop(gamma, delta, allowed)
    assert not holds and witness == want
    assert list(witness) == sorted(want)
    assert all(designated(evaluate_prop(a, witness)) for a in gamma)
    assert not designated(evaluate_prop(delta[0], witness))
    if mode == "bd":
        assert consequence_in(BD_MATRIX, gamma, delta) == (False, want)


def test_equivalence_witness_past_the_first_block():
    """a00 and Des(a00) differ only where a00 is b; a00 = b starts the
    second of the four blocks of nine atoms."""
    atoms = [Prop("a%02d" % i) for i in range(9)]
    rest = _conjunction(atoms[1:])
    a = And(atoms[0], rest)
    b = And(ExtApp("Des", (atoms[0],)), rest)
    want = {"a%02d" % i: T for i in range(9)} | {"a00": B}
    assert equivalent_prop(a, b) == (False, want)
    assert evaluate_prop(a, want) is B and evaluate_prop(b, want) is T
    assert equivalent_prop(a, And(atoms[0], _conjunction(atoms[:0:-1]))) == (
        True, None)


def test_non_propositional_input_is_refused():
    with pytest.raises(SemanticsError):
        consequence_prop([Pred("P", (Fun("c"),))], [p])
    with pytest.raises(SemanticsError):
        PropSpace(("p",)).mask(q)
    with pytest.raises(SemanticsError):
        truth_table(And(p, q), ("p",))


# ---------------------------------------------------------------------------
# the designation masks that consequence_prop keeps on nodes


@pytest.mark.parametrize("mode", sorted(MODES))
def test_the_allowed_values_may_be_any_set(mode):
    allowed = MODE_VALUES[mode]
    cases = [([p], [p]), ([p, Not(p)], [q]), ([], [Or(p, Not(p))]),
             ([Not(p)], [])]
    # frozenset(allowed) would be allowed itself: build an equal one
    for given_as in (set(allowed), frozenset(list(allowed)), allowed):
        for gamma, delta in cases:
            _, want = reference_consequence(gamma, delta, allowed)
            assert consequence_prop(gamma, delta, given_as) == (
                want is None, want)
        _, want = reference_consequence([Not(p)], [], allowed)
        assert semantics.scan_valuations(
            [Not(p)], semantics._counter(1), given_as) == want


@DIFFERENTIAL
@given(st.lists(formulas(), min_size=1, max_size=4),
       st.lists(st.tuples(st.lists(st.integers(0, 3), max_size=3),
                          st.lists(st.integers(0, 3), max_size=3),
                          st.sampled_from(sorted(MODES))),
                min_size=2, max_size=6))
def test_kept_masks_follow_every_atom_layout_and_value_set(pool, queries):
    """The same nodes in sequents over other atoms and in other modes,
    one after another in one process: no mask is read stale."""
    for g, d, mode in queries:
        gamma = [pool[i % len(pool)] for i in g]
        delta = [pool[i % len(pool)] for i in d]
        _, want = reference_consequence(gamma, delta, MODES[mode])
        got = consequence_prop(gamma, delta, MODES[mode])
        assert got == (want is None, want)
        if want is not None:
            assert list(got[1]) == list(want)


def test_a_slot_is_overwritten_when_the_atoms_or_the_values_change():
    sp, sq = Prop("slot_p"), Prop("slot_q")
    a = Imp(Not(sp), Or(sp, Falsity()))
    steps = [([a], [sp], ALL_VALUES, ("slot_p",)),
             ([a], [sq], ALL_VALUES, ("slot_p", "slot_q")),
             ([a], [sp], K3_VALUES, ("slot_p",)),
             ([a], [Not(sp)], CL_VALUES, ("slot_p",)),
             ([a], [sp], ALL_VALUES, ("slot_p",))]
    for gamma, delta, allowed, atoms in steps:
        _, want = reference_consequence(gamma, delta, allowed)
        assert consequence_prop(gamma, delta, allowed) == (want is None, want)
        assert a._mask[0] == (atoms, allowed)


def test_sequents_without_atoms_and_with_constants():
    top = Not(Falsity())  # the parser's T
    both, neither = ExtApp("Both"), ExtApp("Neither")
    cases = [([], []), ([Falsity()], []), ([], [Falsity()]), ([], [top]),
             ([top], [Falsity()]), ([both], [neither]), ([neither], [both]),
             ([], [ExtApp("Des", (both,))]), ([both], [Not(both)]),
             ([ExtApp("Cons", (p,))], [ExtApp("Det", (Or(p, neither),))]),
             ([ExtApp("Norm", (top,))], [ExtApp("Confl", (p,))])]
    for allowed in MODES.values():
        for gamma, delta in cases:
            _, want = reference_consequence(gamma, delta, allowed)
            assert consequence_prop(gamma, delta, allowed) == (
                want is None, want)
    assert consequence_prop([], []) == (False, {})


def _unslotted(formulas) -> bool:
    return all(a._mask == (None, 0) for a in formulas)


def test_a_sweep_of_several_blocks_writes_no_slot(monkeypatch):
    """Nine atoms take four blocks in bd: the answers come from the block
    scan, and no node gains a mask; in lp they fit one block.  In blocks
    of two columns, sequents over two or three atoms take several in
    every mode."""
    assert semantics._prop_sweep(9, ALL_VALUES, semantics._BLOCK_COLUMNS).outer
    atoms = [Prop("nine%d" % i) for i in range(9)]
    gamma, delta = [Not(atoms[0])] + atoms[2:], [atoms[1]]
    holds, witness = consequence_prop(gamma, delta)
    assert not holds and witness == dict(
        zip([a.name for a in atoms], [B, N] + [T] * 7))
    everything = _conjunction(atoms)
    assert consequence_prop([everything], [atoms[8]]) == (True, None)
    assert _unslotted(gamma + delta + [everything])
    assert consequence_prop(gamma, delta, LP_VALUES) == (
        False, dict(witness, nine1=F))
    assert not _unslotted(gamma + delta)

    monkeypatch.setattr(semantics, "_BLOCK_COLUMNS", 2)
    bp, bq, br = Prop("blk_p"), Prop("blk_q"), Prop("blk_r")
    cases = [([Or(bp, bq)], [bp, bq]), ([Or(bp, bq)], [And(bq, br)]),
             ([Imp(bp, br)], [Not(bq)]), ([bp, Not(bp)], [br])]
    for gamma, delta in cases:
        for allowed in MODES.values():
            _, want = reference_consequence(gamma, delta, allowed)
            assert consequence_prop(gamma, delta, allowed) == (
                want is None, want)
        assert _unslotted(gamma + delta)


def test_a_prop_space_holds_at_most_one_block_of_valuations():
    assert len(PropSpace(tuple("a%d" % i for i in range(8))).columns) == 4 ** 8
    for k in (9, 40):  # refused before any mask is built
        with pytest.raises(SemanticsError, match="at most 65536 valuations"):
            PropSpace(tuple("a%d" % i for i in range(k)))


SIG = Signature(
    functions=(("c", 0), ("d", 0), ("f", 1)),
    predicates=(("P", 1), ("Q", 2)),
)

TWO = Structure(
    domain=("d1", "d2"),
    consts={"c": "d1", "d": "d2"},
    funcs={"f": {("d1",): "d2", ("d2",): "d2"}},
    preds={"P": {("d1",): B, ("d2",): T},
           "Q": {("d1", "d1"): T, ("d1", "d2"): F,
                 ("d2", "d1"): N, ("d2", "d2"): T}},
)


def test_fo_evaluation_and_quantifiers():
    c = Fun("c")
    x = Var("x")
    assert evaluate(Pred("P", (c,)), TWO) == B
    assert evaluate(Pred("P", (Fun("f", (c,)),)), TWO) == T
    # forall = inf over the domain, exists = sup
    assert evaluate(Forall("x", Pred("P", (x,))), TWO) == B
    assert evaluate(Exists("x", Pred("Q", (x, x))), TWO) == T
    assert evaluate(Forall("x", Pred("Q", (c, x))), TWO) == F
    assert evaluate(Exists("x", Pred("Q", (Fun("d"), x))), TWO) == T


def test_eq_defaults():
    assert TWO.eq[("d1", "d1")] == T
    assert TWO.eq[("d1", "d2")] == F
    assert evaluate(Eq(Fun("c"), Fun("c")), TWO) == T
    assert evaluate(Not(Eq(Fun("c"), Fun("d"))), TWO) == T


def test_structure_guards():
    with pytest.raises(SemanticsError):
        Structure(domain=())
    with pytest.raises(SemanticsError):
        Structure(domain=("a",), eq={("a", "a"): F})
    with pytest.raises(SemanticsError):
        Structure(domain=("a",), bottom="a")


COUNT_SIGS = [
    Signature(),
    Signature(predicates=(("q", 0), ("P", 1))),
    Signature(functions=(("c", 0), ("f", 1)), predicates=(("P", 1),)),
    Signature(functions=(("c", 0), ("d", 0)), predicates=(("Q", 2), ("q", 0))),
    Signature(functions=(("g", 2),)),
]


@pytest.mark.parametrize("sig", COUNT_SIGS)
def test_structure_counts_agree_with_the_sweep_and_the_enumeration(sig):
    """``count_structures``, read off the layout, agrees with a blocked
    sweep: one free variable multiplies it by the size and the blocks
    cover it exactly.  The arities alone give its logarithm, and where it
    is small the enumeration and FOSpace's unblocked sweep give as many
    structures."""
    enumerated = 0
    for size, mode, allowed, need_eq, eq_distinct in itertools.product(
            (1, 2, 3), ("total", "partial"), MODES.values(), (True, False),
            (None, (N, F), frozenset({F}))):
        args = (sig, size, mode, allowed, need_eq, eq_distinct)
        if mode == "partial" and allowed is not ALL_VALUES:
            with pytest.raises(SemanticsError, match="restrictions"):
                count_structures(*args)
            continue
        count = count_structures(*args)
        if count:
            assert math.isclose(2 ** semantics._structure_bits(*args), count)
        sweep = semantics._Sweep(*args, ("x",), semantics._BLOCK_COLUMNS)
        assert sweep.columns == count * size
        if count:
            assert math.prod(sweep.outer) * sweep.full.bit_length() == (
                sweep.columns)
        else:
            assert list(sweep.blocks()) == []
        assert (count == 0) == (mode == "partial" and size == 1)
        if count <= 300:
            assert len(list(enumerate_structures(*args))) == count
            enumerated += 1
            if count and allowed is ALL_VALUES:
                space = FOSpace(sig, (size,), mode, need_eq, eq_distinct)
                assert len(space.columns) == count
    assert enumerated >= 20


@pytest.mark.parametrize("arity", [0, 1, 2])
def test_the_enumeration_reads_the_sweep_in_the_reference_order(arity):
    """``enumerate_structures`` gives the nested-loop reference's
    structures in its order over a grid: sizes 0-3, both modes, the four
    mode value sets, equality needed or not, three ranges for distinct
    elements' equality.  Each pair is compared on its first 301
    structures, so whole when it has at most 300, as 40 or more non-empty
    ones have.  A partial mode with a restriction raises on both sides,
    and gives nothing below its least size (the reference tests
    ``allowed`` by identity, so the value sets are ``MODE_VALUES``')."""
    sig = Signature(functions=(("f", arity),), predicates=(("P", 1),))
    whole = 0
    for size, mode, allowed, need_eq, eq_distinct in itertools.product(
            range(4), ("total", "partial"), MODE_VALUES.values(),
            (True, False), (None, (N, F), (F,))):
        args = (sig, size, mode, allowed, need_eq, eq_distinct)
        got = enumerate_structures(*args)
        want = reference_semantics.enumerate_structures(*args)
        if mode == "partial" and size > 1 and allowed is not ALL_VALUES:
            for gen in (got, want):
                with pytest.raises(SemanticsError, match="restrictions"):
                    next(gen)
            continue
        got, want = (list(itertools.islice(g, 301)) for g in (got, want))
        assert got == want, args
        whole += 0 < len(got) <= 300
    assert whole >= 40


def test_a_partial_size_below_two_has_no_structure():
    """The bottom needs an element beside it: partial size 1 has no
    structures and no columns, and FOSpace refuses it as consequence_fo
    refuses such a bound, and no size at all, an empty class on which
    every sequent would be valid."""
    sig = Signature(functions=(("c", 0),), predicates=(("P", 1), ("q", 0)))
    assert count_structures(sig, 1, "partial") == 0
    assert list(enumerate_structures(sig, 1, "partial")) == []
    for sizes, mode in (((1, 2), "partial"), ((0,), "total"), ((), "total"),
                        (iter(()), "total")):
        with pytest.raises(SemanticsError, match="admits no structure"):
            FOSpace(sig, sizes, mode=mode)
    space = FOSpace(sig, (2,), mode="partial")
    assert len(space.columns) == count_structures(sig, 2, "partial") > 0
    with pytest.raises(SemanticsError, match="admits no structure"):
        consequence_fo([Prop("q")], [], sig, max_domain=1, mode="partial")


_C_EQ_C = Eq(Fun("c"), Fun("c"))


@pytest.mark.parametrize("call", [
    lambda sig, mode: consequence_fo([], [_C_EQ_C], sig, 2, mode),
    lambda sig, mode: consequence_fo([], [_C_EQ_C], sig, 0, mode),
    lambda sig, mode: count_structures(sig, 2, mode),
    lambda sig, mode: count_structures(sig, 0, mode),
    lambda sig, mode: list(enumerate_structures(sig, 2, mode)),
    lambda sig, mode: list(enumerate_structures(sig, 0, mode)),
    lambda sig, mode: FOSpace(sig, (2,), mode),
    lambda sig, mode: FOSpace(sig, (), mode),
], ids=["consequence_fo", "consequence_fo-bound-0", "count_structures",
        "count_structures-size-0", "enumerate_structures",
        "enumerate_structures-size-0", "FOSpace", "FOSpace-no-size"])
def test_an_unknown_sweep_mode_is_refused(call):
    """Each public entry asks ``_least_size`` for its mode before any
    cache or bound, so a mode other than total or partial is refused by
    name, an unhashable one too, even where a bound or size admits no
    structure; read as total, "Partial" would answer c = c, where
    partial mode finds a countermodel."""
    sig = Signature(functions=(("c", 0),))
    assert consequence_fo([], [_C_EQ_C], sig, 2, "total").holds
    assert not consequence_fo([], [_C_EQ_C], sig, 2, "partial").holds
    for mode in ("Partial", "lp", "", ["partial"]):
        with pytest.raises(SemanticsError) as e:
            call(sig, mode)
        assert str(e.value) == ("unknown mode %s; a sweep is total or "
                                "partial" % _quote(str(mode)))


def test_an_empty_domain_has_no_structure():
    """Size 0 has no structures in either mode, counted or enumerated."""
    for sig in (Signature(predicates=(("q", 0),)),
                Signature(functions=(("c", 0),), predicates=(("P", 1),))):
        for mode in ("total", "partial"):
            assert count_structures(sig, 0, mode) == 0
            assert list(enumerate_structures(sig, 0, mode)) == []


# a chain of 24 quantifiers none of whose variables its body uses
CHAIN = "".join("forall x%d. " % i for i in range(24)) + "P(c)"


@pytest.mark.parametrize("text", [
    "F", "P(x) & F", "forall x. forall y. forall z. F",
    "forall x. forall y. forall z. P(x) & P(y) & P(z)",
    "forall x. (P(x) & exists y. P(y)) | forall z. P(z), P(x) -> ~P(x)",
    "exists x. forall y. (P(y) | exists z. P(z)), forall w. P(w)",
    "forall x. forall x. P(x)", "exists x. forall y. P(x) & forall x. P(y)",
    CHAIN])
def test_grounding_counts_in_closed_form_equal_the_grounded_sweeps(text):
    """The elements and items of ``_grounding``, read off the code that
    ``_compile`` gives, are the domains' lengths and the reference's
    grounded code's, summed over the sizes, each quantifier whose body
    does not use its variable compiled to its body as ``_run`` runs it;
    past the cap the items are a lower bound."""
    sig = Signature(functions=(("c", 0),), predicates=(("P", 1),))
    formulas = parse_formula_list(text, sig)
    run = semantics._compile(formulas, sig)[0]
    code = [op for a in formulas
            for op in reference_semantics.compiled(a, False)]
    for least, most in itertools.product((1, 2), (2, 3, 6)):
        domains = [tuple(range(k)) for k in range(least, most + 1)]
        items = sum(len(reference_semantics._ground(code, dom, {}))
                    for dom in domains)
        assert semantics._grounding(run, least, most, 10**9) == (
            sum(map(len, domains)), items)
        elements, bound = semantics._grounding(run, least, most, 20)
        assert elements == sum(map(len, domains))
        assert min(items, 21) <= bound <= items


def test_a_chain_of_quantifiers_its_body_does_not_use_answers():
    """Each quantifier of the chain compiles to its body, which runs
    once, and ``_grounding`` counts that one atom per size; counting
    every copy would refuse the query (2^24 items up to domain 2)."""
    sig = Signature(functions=(("c", 0),), predicates=(("P", 1),))
    chain, atom = parse_formula_list(CHAIN + ", P(c)", sig)
    assert semantics._grounding(semantics._compile([chain], sig)[0], 1, 2,
                                10**7) == (3, 2)
    tracemalloc.start()
    try:
        res = consequence_fo([chain], [atom], sig, max_domain=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res == FOResult(True)
    assert peak < 1 << 20


def test_evaluate_reads_a_quantifier_its_body_does_not_use_once(
        monkeypatch):
    """The inf or sup of one value is that value, so such a quantifier
    has its body's value, read once, as ``_run`` runs it; a shadowed
    variable is not free in the inner quantifier."""
    calls, evaluate_ = [], semantics.evaluate
    monkeypatch.setattr(semantics, "evaluate", lambda a, *rest: (
        calls.append(a) or evaluate_(a, *rest)))
    sig = Signature(functions=(("c", 0),), predicates=(("P", 1),))
    for text, value, inner in (("forall x. forall x. P(x)", B, 3),
                               ("exists y. forall x. P(y)", T, 4),
                               (CHAIN, B, 24)):
        calls.clear()
        assert evaluate_(parse_formula_list(text, sig)[0], TWO) is value
        assert len(calls) == inner, text


def test_enumeration_counts():
    sig = Signature(functions=(("c", 0),), predicates=(("P", 1),))
    # no equality needed: consts * P tables = 1*4 at size 1, 2*16 at size 2
    assert count_structures(sig, 1, need_eq=False) == 4
    assert count_structures(sig, 2, need_eq=False) == 32
    assert len(list(enumerate_structures(sig, 2, need_eq=False))) == 32
    # with equality: diagonal ranges over {t,b}, distinct pairs over all four
    assert count_structures(sig, 1, need_eq=True) == 4 * 2
    assert count_structures(sig, 2, need_eq=True) == 32 * (2 * 2) * (4 * 4)


def test_consequence_fo_basics():
    c = Fun("c")
    x = Var("x")
    px = Pred("P", (x,))
    res = consequence_fo([Forall("x", px)], [Pred("P", (c,))], SIG,
                         max_domain=2)
    assert res.holds
    res = consequence_fo([Pred("P", (c,))], [Forall("x", px)], SIG,
                         max_domain=2)
    assert not res.holds
    assert res.structure is not None


def test_fo_equality_reflexivity_total():
    sig = Signature(functions=(("c", 0),), predicates=())
    res = consequence_fo([], [Eq(Fun("c"), Fun("c"))], sig, max_domain=2)
    assert res.holds


def test_fo_equality_symmetry_fails_in_contract_class():
    """Distinct-pair equality values are unconstrained, so symmetry can
    break: a structure may set c=d designated and d=c not."""
    sig = Signature(functions=(("c", 0), ("d", 0)), predicates=())
    c, d = Fun("c"), Fun("d")
    res = consequence_fo([Eq(c, d)], [Eq(d, c)], sig, max_domain=2)
    assert not res.holds
    st = res.structure
    e1, e2 = st.consts["c"], st.consts["d"]
    assert designated(st.eq[(e1, e2)]) and not designated(st.eq[(e2, e1)])


def test_fo_equality_symmetry_holds_under_distinct_f_repair():
    sig = Signature(functions=(("c", 0), ("d", 0)), predicates=())
    c, d = Fun("c"), Fun("d")
    res = consequence_fo([Eq(c, d)], [Eq(d, c)], sig, max_domain=2,
                         eq_distinct=frozenset({F}))
    assert res.holds


def test_partial_mode_reflexivity_countermodel():
    sig = Signature(functions=(("c", 0),), predicates=())
    res = consequence_fo([], [Eq(Fun("c"), Fun("c"))], sig, max_domain=2,
                         mode="partial")
    assert not res.holds
    st = res.structure
    assert st.bottom is not None and st.consts["c"] == st.bottom


def test_partial_structures_force_n_at_bottom():
    for st in enumerate_structures(
            Signature(functions=(("c", 0),), predicates=()), 2,
            mode="partial"):
        assert st.eq[(st.bottom, st.bottom)] == N
        for d1 in st.domain:
            assert st.eq[(st.bottom, d1)] == N
            assert st.eq[(d1, st.bottom)] == N


def test_enumeration_cap():
    sig = Signature(functions=(("c", 0),), predicates=(("Q", 2),))
    with pytest.raises(EnumerationCapExceeded):
        consequence_fo([Pred("Q", (Fun("c"), Fun("c")))], [], sig,
                       max_domain=3, cap=1000)


_NORMALITY_CONNS = ("not", "and", "or", "imp")


def _random_formula(rng: random.Random, atoms, budget: int):
    if budget <= 0 or rng.random() < 0.3:
        return Prop(rng.choice(atoms)) if rng.random() < 0.9 else Falsity()
    kind = rng.choice(_NORMALITY_CONNS)
    if kind == "not":
        return Not(_random_formula(rng, atoms, budget - 1))
    l = _random_formula(rng, atoms, budget - 1)
    r = _random_formula(rng, atoms, budget - 1)
    return {"and": And, "or": Or, "imp": Imp}[kind](l, r)


def normality_probe(seed: int = 0, samples: int = 200) -> dict:
    """Property-check the normality biconditionals on random instances.

    Covers the atomic noninclusion checks, the three propositional
    splits (conjunction right, disjunction left, the deduction theorem)
    and the two quantifier conditions on domain-bounded structures.
    Returns a report dict with a list of failures (empty on success).
    """
    rng = random.Random(seed)
    atoms = ("p", "q", "r")
    failures = []
    checked = 0

    p = Prop("p")
    for a, b in ((p, Not(p)), (Not(p), p)):
        ok, _ = consequence_prop([a], [b])
        if ok:
            failures.append(("atomic-noninclusion", a, b))
        checked += 1

    for _ in range(samples):
        g = [_random_formula(rng, atoms, 2) for _ in range(rng.randrange(3))]
        d = [_random_formula(rng, atoms, 2) for _ in range(rng.randrange(3))]
        a1 = _random_formula(rng, atoms, 2)
        a2 = _random_formula(rng, atoms, 2)

        for name, lhs, rhs in (
                ("conjunction-right", (g, d + [And(a1, a2)]),
                 ((g, d + [a1]), (g, d + [a2]))),
                ("disjunction-left", ([Or(a1, a2)] + g, d),
                 (([a1] + g, d), ([a2] + g, d))),
                ("deduction", (g, d + [Imp(a1, a2)]),
                 (([a1] + g, d + [a2]),))):
            if (consequence_prop(*lhs)[0]
                    != all(consequence_prop(*x)[0] for x in rhs)):
                failures.append((name, g, d, a1, a2))
        checked += 3

    sig = Signature(functions=(("c", 0),), predicates=(("P", 1), ("Q", 1)))
    x = Var("x")
    open_pool = [
        Pred("P", (x,)), Not(Pred("P", (x,))), Or(Pred("P", (x,)), Pred("Q", (x,))),
        And(Pred("P", (x,)), Pred("Q", (Fun("c"),))),
        Imp(Pred("P", (x,)), Pred("Q", (x,))),
    ]
    closed_pool = [
        Pred("P", (Fun("c"),)), Pred("Q", (Fun("c"),)),
        Exists("x", Pred("P", (Var("x"),))), Forall("x", Pred("Q", (Var("x"),))),
        Not(Pred("P", (Fun("c"),))),
    ]
    fo_samples = max(10, samples // 10)
    for _ in range(fo_samples):
        a1 = rng.choice(open_pool)
        g = rng.sample(closed_pool, rng.randrange(3))
        d = rng.sample(closed_pool, rng.randrange(3))

        for name, lhs, rhs in (
                ("forall-right", (g, d + [Forall("x", a1)]), (g, d + [a1])),
                ("exists-left", ([Exists("x", a1)] + g, d), ([a1] + g, d))):
            if (consequence_fo(*lhs, sig, max_domain=2).holds
                    != consequence_fo(*rhs, sig, max_domain=2).holds):
                failures.append((name, g, d, a1))
        checked += 2

    return {"checked": checked, "failures": failures}


def test_normality_probe_clean():
    report = normality_probe(seed=0, samples=60)
    assert report["failures"] == []
    assert report["checked"] > 0


# ---------------------------------------------------------------------------
# the first-order sweep against per-structure evaluation

RICH_SIG = Signature(
    functions=(("c", 0), ("d", 0), ("f", 1), ("g", 2)),
    predicates=(("P", 1), ("Q", 2), ("q", 0)),
    extras=frozenset(UNARY + ("Both", "Neither")),
)


def reference_fo(gamma, delta, sig, max_domain=3, mode="total", cap=10**7,
                 allowed=ALL_VALUES, eq_distinct=None):
    """consequence_fo the slow way: every structure that the reference
    ``enumerate_structures`` gives over the symbols that occur, under
    every assignment of the free variables, through ``evaluate``."""
    funcs, preds, has_eq, fv = set(), set(), False, set()
    for a in gamma + delta:
        fv |= free_vars(a)
        for s in subformulas(a):
            terms = []
            if isinstance(s, Prop):
                preds.add((s.name, sig.predicate_arity(s.name)))
            elif isinstance(s, Pred):
                preds.add((s.name, sig.predicate_arity(s.name)))
                terms = list(s.args)
            elif isinstance(s, Eq):
                has_eq = True
                terms = [s.left, s.right]
            while terms:
                t = terms.pop()
                if isinstance(t, Fun):
                    funcs.add((t.name, sig.function_arity(t.name)))
                    terms.extend(t.args)
    if any(a is None for _, a in funcs | preds):
        raise SemanticsError("symbol not in signature")
    small = Signature(functions=tuple(sorted(funcs)),
                      predicates=tuple(sorted(preds)))
    fv = tuple(sorted(fv))
    least = 2 if mode == "partial" else 1
    if max_domain < least:
        raise SemanticsError(
            "domain bound %d admits no structure; the least %sdomain size "
            "is %d" % (max_domain, "partial " if least == 2 else "", least))
    sizes = range(least, max_domain + 1)
    total = 0
    for k in sizes:
        total += count_structures(small, k, mode, allowed, has_eq,
                                  eq_distinct)
        if total > cap:
            raise EnumerationCapExceeded(
                "would enumerate at least %d structures (cap %d)"
                % (total, cap))
    for k in sizes:
        for m in reference_semantics.enumerate_structures(
                small, k, mode, allowed, has_eq, eq_distinct):
            for combo in itertools.product(m.domain, repeat=len(fv)):
                alpha = dict(zip(fv, combo))
                if (all(designated(evaluate(a, m, alpha)) for a in gamma)
                        and not any(designated(evaluate(a, m, alpha))
                                    for a in delta)):
                    return FOResult(False, m, alpha)
    return FOResult(True)


def random_term(rng, voc, depth):
    if depth and rng.random() < 0.3:
        fs = [f for f in ("f", "g") if f in voc]
        if fs:
            name = rng.choice(fs)
            arity = RICH_SIG.function_arity(name)
            return Fun(name, tuple(random_term(rng, voc, depth - 1)
                                   for _ in range(arity)))
    if rng.random() < 0.5:
        return Var(rng.choice("xyz"))
    return Fun(rng.choice([c for c in ("c", "d") if c in voc] or ["c"]))


def random_fo(rng, voc, depth):
    """A formula over the symbols in ``voc``: variables are drawn from x,
    y, z whatever the quantifiers around them, so some stay free and
    some quantifiers shadow others."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice([k for k in ("P", "Q", "q", "=", "F", "0")
                           if k in voc or k in "F0"])
        if kind == "q":
            return Prop("q")
        if kind == "=":
            return Eq(random_term(rng, voc, 1), random_term(rng, voc, 1))
        if kind == "F":
            return Falsity()
        if kind == "0":
            return ExtApp(rng.choice(("Both", "Neither")))
        arity = RICH_SIG.predicate_arity(kind)
        return Pred(kind, tuple(random_term(rng, voc, 1)
                                for _ in range(arity)))
    kind = rng.choice(("not", "and", "or", "imp", "all", "ex", "ext"))
    if kind == "not":
        return Not(random_fo(rng, voc, depth - 1))
    if kind == "ext":
        return ExtApp(rng.choice(UNARY), (random_fo(rng, voc, depth - 1),))
    if kind in ("all", "ex"):
        return (Forall if kind == "all" else Exists)(
            rng.choice("xyz"), random_fo(rng, voc, depth - 1))
    cls = {"and": And, "or": Or, "imp": Imp}[kind]
    return cls(random_fo(rng, voc, depth - 1), random_fo(rng, voc, depth - 1))


def random_fo_query(rng):
    voc = {s for s in ("c", "d", "f", "g", "P", "Q", "q", "=")
           if rng.random() < 0.5} | {rng.choice("PQ")}
    sides = [[random_fo(rng, voc, rng.randint(0, 3))
              for _ in range(rng.randint(0, 2))] for _ in range(2)]
    mode = rng.choice(("total", "total", "partial"))
    least = 2 if mode == "partial" else 1
    bound = rng.randint(least, 3) if rng.random() < 0.95 else least - 1
    kw = {"mode": mode, "max_domain": bound, "cap": 3000,
          "eq_distinct": rng.choice((None, None, (N, F), frozenset({F})))}
    if mode == "total":
        kw["allowed"] = rng.choice(list(MODES.values()))
    elif rng.random() < 0.05:
        kw["allowed"] = K3_VALUES    # refused in partial mode
    return sides[0], sides[1], kw


def outcome(fn, *args, **kw):
    """What a consequence call returns or raises, comparable across
    implementations: the printed countermodel and its assignment."""
    try:
        res = fn(*args, **kw)
    except SemanticsError as exc:
        return type(exc), str(exc)
    if res.holds:
        return True, None, None
    return (False, print_structure(res.structure), res.assignment,
            res.structure)


@pytest.mark.parametrize("block", [None, 1, 6])
def test_consequence_fo_matches_per_structure_evaluation(block, monkeypatch):
    """Verdict, first countermodel and assignment, or the error; with
    blocks of the default size, and of one and six columns so that
    block boundaries fall inside every kind of digit."""
    if block is not None:
        monkeypatch.setattr(semantics, "_BLOCK_COLUMNS", block)
    rng = random.Random(4)
    seen = set()
    for _ in range(200):
        gamma, delta, kw = random_fo_query(rng)
        want = outcome(reference_fo, gamma, delta, RICH_SIG, **kw)
        got = outcome(consequence_fo, gamma, delta, RICH_SIG, **kw)
        assert got == want, (gamma, delta, kw)
        if want[0] is False:
            assert list(got[2]) == list(want[2])
        seen.add(want[0] if isinstance(want[0], bool) else want[0].__name__)
    assert seen == {True, False, "EnumerationCapExceeded", "SemanticsError"}


def test_consequence_fo_errors_match_the_reference():
    c, x = Fun("c"), Var("x")
    cases = [
        ([Pred("R", (c,))], [], {}),                   # unknown predicate
        ([Pred("P", (Fun("h", (c,)),))], [], {}),      # unknown function
        ([Pred("Q", (c, c))], [], {"cap": 10}),
        ([], [Prop("zz")], {}),                         # unknown proposition
        ([Pred("P", (x,))], [], {"mode": "partial", "allowed": LP_VALUES}),
    ]
    for gamma, delta, kw in cases:
        want = outcome(reference_fo, gamma, delta, RICH_SIG, **kw)
        assert want[0] in (SemanticsError, EnumerationCapExceeded)
        assert outcome(consequence_fo, gamma, delta, RICH_SIG, **kw) == want


def test_every_countermodel_evaluates_as_a_countermodel_again():
    """Whatever consequence_fo returns as a countermodel designates all
    of gamma and nothing in delta under ``evaluate``, in total and in
    partial mode, with its assignment of exactly the free variables."""
    from test_syntax import SIG, _FORMULA
    seen = set()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(_FORMULA, max_size=2), st.lists(_FORMULA, max_size=2),
           st.sampled_from(("total", "partial")), st.integers(1, 2))
    def check(gamma, delta, mode, bound):
        bound = 2 if mode == "partial" else bound
        try:
            res = consequence_fo(gamma, delta, SIG, max_domain=bound,
                                 mode=mode, cap=10**5)
        except EnumerationCapExceeded:
            return
        seen.add((mode, res.holds))
        if res.holds:
            return
        m, alpha = res.structure, res.assignment
        assert (m.bottom is None) == (mode == "total")
        assert set(alpha) == set().union(*map(free_vars, gamma + delta))
        assert all(designated(evaluate(a, m, alpha)) for a in gamma)
        assert not any(designated(evaluate(a, m, alpha)) for a in delta)

    check()
    assert seen == {(mode, holds) for mode in ("total", "partial")
                    for holds in (True, False)}


@pytest.mark.parametrize("mode,bound", [("total", 0), ("total", -3),
                                        ("partial", 1)])
def test_a_domain_bound_that_admits_no_structure_is_refused(mode, bound):
    c = Fun("c")
    with pytest.raises(SemanticsError, match="admits no structure"):
        consequence_fo([Pred("P", (c,))], [Not(Pred("P", (c,)))],
                       RICH_SIG, max_domain=bound, mode=mode)


def test_the_first_countermodel_is_found_in_bounded_memory():
    """Ten propositions give 4^10 columns at domain size 1, and the
    first is a countermodel: one block of 2^16 columns is evaluated,
    where all of them at once would need megabytes per mask."""
    sig = Signature(predicates=tuple(("q%d" % i, 0) for i in range(10)))
    gamma = [Prop("q%d" % i) for i in range(10)]
    delta = [Not(gamma[0])]
    assert count_structures(sig, 1, need_eq=False) >= 10**6
    tracemalloc.start()
    try:
        got = consequence_fo(gamma, delta, sig, max_domain=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    first = Structure(("d1",), props={a.name: T for a in gamma})
    assert (got.holds, got.structure, got.assignment) == (False, first, {})
    assert all(evaluate(a, first) is T for a in gamma)
    assert evaluate(delta[0], first) is F
    assert peak < 1 << 20


@pytest.mark.parametrize("kind", ["fo", "eq", "eq-repair", "den",
                                  "den-repair"])
def test_fo_space_masks_match_per_column_evaluation(kind):
    """Every column of the small classes, every 7th of the large ones,
    decoded and evaluated against the reference
    ``enumerate_structures``."""
    args = {"fo": (_FO_SIG, (1, 2), "total", False, None, ("y",)),
            "eq": (_EQ_SIG, (1, 2), "total", True, None, ()),
            "eq-repair": (_EQ_SIG, (1, 2), "total", True, (N, F), ()),
            "den": (_EQ_SIG, (2, 3), "partial", True, None, ()),
            "den-repair": (_EQ_SIG, (2, 3), "partial", True, (F,), ())}
    sig, sizes, mode, need_eq, eq_distinct, variables = args[kind]
    c, d, x, y = Fun("c"), Fun("d"), Var("x"), Var("y")
    pool = list(_FO_POOL if kind == "fo" else _EQ_POOL) + [
        Exists("x", And(Eq(x, c), Not(Pred("P", (x,))))),
        Forall("x", Forall("y", Imp(Eq(x, y), Imp(Pred("P", (x,)),
                                                  Pred("P", (y,)))))),
        Or(Eq(c, d), ExtApp("Neither")),
    ]
    if kind == "fo":
        pool += [Pred("P", (y,)), And(Eq(y, c), Prop("q")),
                 Exists("x", Or(Pred("P", (x,)), Not(Pred("P", (y,)))))]
    space = acceptance._fo_space(kind)
    masks = [space.mask(a) for a in pool]
    stride = 1 if len(space.columns) < 5000 else 7
    i = 0
    for k in sizes:
        for m in reference_semantics.enumerate_structures(
                sig, k, mode, need_eq=need_eq, eq_distinct=eq_distinct):
            for combo in itertools.product(m.domain, repeat=len(variables)):
                if i % stride == 0:
                    alpha = dict(zip(variables, combo))
                    assert space.columns[i] == (m, alpha)
                    for a, mask in zip(pool, masks):
                        assert (mask >> i & 1) == designated(
                            evaluate(a, m, alpha)), (a, i)
                i += 1
    assert len(space.columns) == i
    assert all(mask >> i == 0 for mask in masks)


def test_fo_space_countermodel_is_the_first_one():
    """Over the symbols a sequent uses, FOSpace and consequence_fo sweep
    the same columns and name the same first countermodel."""
    c, d, x = Fun("c"), Fun("d"), Var("x")
    sig = Signature(functions=(("c", 0), ("d", 0)), predicates=(("P", 1),))
    cases = [([Eq(c, d), Pred("P", (c,))], [Eq(d, c)]),
             ([Pred("P", (c,)), Eq(d, d)], [Forall("x", Pred("P", (x,)))]),
             ([Exists("x", Not(Pred("P", (x,))))], [Not(Pred("P", (d,))),
                                                  Eq(c, d)])]
    for mode, sizes in (("total", (1, 2)), ("partial", (2, 3))):
        space = FOSpace(sig, sizes, mode=mode)
        for gamma, delta in cases:
            res = consequence_fo(gamma, delta, sig, max_domain=sizes[-1],
                                 mode=mode)
            got = space.countermodel(Sequent.of(gamma, delta))
            assert not res.holds
            assert got == (res.structure, res.assignment)
            cm = space.counter_mask(Sequent.of(gamma, delta))
            assert cm.bit_count() > 1
            assert space.columns[cm.bit_length() - 1] != got


def test_fo_space_refuses_unbound_variables_and_unknown_symbols():
    space = FOSpace(_EQ_SIG, (1,))
    for a in (Pred("P", (Var("x"),)), Prop("q"), Pred("R", (Fun("c"),))):
        with pytest.raises(SemanticsError):
            space.mask(a)


_FO_FORMULA = st.recursive(
    st.sampled_from(list(_FO_POOL) + [Pred("P", (Var("y"),)), Falsity()]),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(And, sub, sub),
        st.builds(Or, sub, sub), st.builds(Imp, sub, sub)), max_leaves=6)
# the two spaces of criterion 10, each built once, and sides over each
_SPACES = {
    "prop": (_pqr, SIDES),
    "fo": (functools.cache(lambda: acceptance._fo_space("fo")),
           st.lists(_FO_FORMULA, max_size=3))}


@pytest.mark.parametrize("kind", sorted(_SPACES))
@DIFFERENTIAL
@given(st.data())
def test_the_space_checks_are_counter_bits_over_the_mode(kind, data):
    """``holds``, ``counter_mask`` and ``valid`` over every column, empty
    sides included, against ``counter_bits``; in a ``PropSpace`` each
    mode's mask, passed to ``holds`` as one more antecedent mask or
    ANDed with ``counter_mask``, gives ``consequence_prop``'s answer."""
    make, sides = _SPACES[kind]
    space = make()
    s = Sequent.of(data.draw(sides), data.draw(sides))
    gm, dm = [space.mask(a) for a in s.ant], [space.mask(a) for a in s.suc]
    assert space.full == (1 << len(space.columns)) - 1
    want = semantics.counter_bits(gm, dm) & space.full
    assert space.counter_mask(s) == want
    assert space.valid(s) == (want == 0)
    assert space.holds(gm, dm) == (
        (want & -want).bit_length() - 1 if want else None)
    if kind == "fo":
        return
    assert sorted(space.modes) == sorted(MODE_VALUES)
    assert space.modes["bd"] == space.full
    for mode, columns in space.modes.items():
        both = want & columns
        assert space.counter_mask(s) & columns == both
        assert space.holds([columns] + gm, dm) == (
            (both & -both).bit_length() - 1 if both else None)
        assert space_consequence(space, s.ant, s.suc, mode) == (
            consequence_prop(s.ant, s.suc, MODE_VALUES[mode]))


@pytest.mark.parametrize("cls, make", [
    (PropSpace, lambda: PropSpace(("p", "q"))),
    (FOSpace, lambda: acceptance._fo_space("fo")),
], ids=["prop", "fo"])
def test_a_sequent_check_reads_each_formula_through_mask_once(
        monkeypatch, cls, make):
    """Once per occurrence: a formula on both sides is read twice."""
    space, reads = make(), []
    mask = cls.mask
    monkeypatch.setattr(cls, "mask",
                        lambda self, a: reads.append(a) or mask(self, a))
    both = Falsity()
    if cls is PropSpace:
        ant, suc = [p, Not(q), both], [And(p, q), both]
    else:
        ant, suc = [_FO_POOL[2], _FO_POOL[5], both], [_FO_POOL[0], both]
    for s in (Sequent.of(ant, suc), Sequent.of(), Sequent.of(ant, ())):
        for check in (space.counter_mask, space.valid):
            reads.clear()
            check(s)
            assert sorted(reads, key=str) == sorted(
                [*s.ant, *s.suc], key=str)


def test_consequence_prop_takes_the_four_value_sets_and_no_other():
    cases = [([p], [p]), ([p, Not(p)], [q]), ([], [Or(p, Not(p))]),
             ([And(p, q)], [Imp(q, r)])]
    for allowed in MODES.values():
        for gamma, delta in cases:
            want = consequence_prop(gamma, delta, allowed)
            assert consequence_prop(gamma, delta, set(allowed)) == want
    for allowed in (list(ALL_VALUES), tuple(ALL_VALUES), None,
                    frozenset({T})):
        with pytest.raises(SemanticsError, match="allowed value set must "
                           "be one of the four closed restrictions"):
            consequence_prop([p], [q], allowed)


@pytest.mark.parametrize("make, formulas", [
    (lambda: PropSpace(("p", "q")),
     [Falsity(), p, Not(p), And(p, Not(q)), Imp(p, Falsity())]),
    (lambda: FOSpace(_EQ_SIG, (1, 2)),
     [Falsity(), Pred("P", (Fun("c"),)), Not(Eq(Fun("c"), Fun("d"))),
      Forall("x", Pred("P", (Var("x"),)))]),
], ids=["prop", "fo"])
def test_a_mask_is_the_t_half_of_the_vector_computed_once(monkeypatch, make,
                                                          formulas):
    """On a miss and on a hit, ``mask`` reads what ``vector`` gives; each
    formula is compiled once, F's zero t-mask included."""
    fresh, space, compiled = make(), make(), []
    compile_ = semantics._compile
    monkeypatch.setattr(semantics, "_compile",
                        lambda *args: compiled.append(args) or compile_(*args))
    for a in formulas:
        miss = space.mask(a)
        assert miss == fresh.vector(a)[0]
        assert space.mask(a) == space.vector(a)[0] == miss
    assert space.mask(Falsity()) == 0
    assert len(compiled) == 2 * len(formulas)  # once in each space


# ---------------------------------------------------------------------------
# the propositional scan's bound

def test_a_scan_past_its_bound_is_refused():
    atoms = [Prop("a%02d" % i) for i in range(14)]
    big = atoms[0]
    for a in atoms[1:]:
        big = And(big, a)
    with pytest.raises(EnumerationCapExceeded, match="no answer after"):
        consequence_prop([big], [atoms[0]])


def test_a_scan_past_its_bound_still_answers_early():
    """Twenty atoms refuted in the first block: the bound is checked per
    block, so the countervaluation comes back."""
    atoms = [Prop("a%02d" % i) for i in range(20)]
    holds, witness = consequence_prop(atoms, [Not(atoms[0])])
    assert not holds and witness == {a.name: T for a in atoms}


def _conjunction(formulas):
    out = formulas[0]
    for a in formulas[1:]:
        out = And(out, a)
    return out


def test_a_first_order_sweep_past_the_column_bound_is_refused():
    """84 structures pass the structure cap, but fourteen free variables
    make 3.1 * 10^8 columns at domain size 3."""
    sig = Signature(predicates=(("P", 1),))
    atoms = [Pred("P", (Var("x%d" % i),)) for i in range(14)]
    assert sum(count_structures(sig, k, need_eq=False)
               for k in (1, 2, 3)) == 84
    with pytest.raises(EnumerationCapExceeded, match="no answer after"):
        consequence_fo([_conjunction(atoms)], [atoms[0]], sig, max_domain=3)


def test_a_first_order_sweep_past_the_column_bound_still_answers_early():
    """The column bound is checked per block, so a countermodel in the
    first block comes back, and so does one past the last block the
    bound lets through."""
    sig = Signature(predicates=(("P", 1),))
    atoms = [Pred("P", (Var("x%d" % i),)) for i in range(14)]
    res = consequence_fo([_conjunction(atoms)], [Not(atoms[0])], sig,
                         max_domain=3)
    assert not res.holds and res.assignment == {
        "x%d" % i: "d1" for i in range(14)}
    res = consequence_fo([_conjunction(atoms)], [atoms[0]], sig,
                         max_domain=2)
    assert res.holds


def test_undeclared_propositions_are_refused_given_a_signature():
    sig = Signature(predicates=(("P", 1),))
    for a in (Prop("zz"), Prop("P")):
        with pytest.raises(SemanticsError):
            consequence_fo([a], [], sig, max_domain=1)
    with pytest.raises(SemanticsError, match="symbol not in signature"):
        consequence_fo([Prop("zz")], [], sig, max_domain=1)
    with pytest.raises(SemanticsError, match="P takes 1 arguments"):
        consequence_fo([], [Prop("P")], sig, max_domain=1)


def test_formulas_at_the_parser_depth_bound_are_swept():
    from bd4.parser import MAX_DEPTH, parse_formula
    sig = Signature(functions=(("c", 0), ("f", 1)), predicates=(("P", 1),))
    quantifiers = parse_formula("forall x. " * (MAX_DEPTH - 1) + "P(x)", sig)
    terms = parse_formula("P(" + "f(" * (MAX_DEPTH - 1) + "c"
                          + ")" * MAX_DEPTH, sig)
    pc = Pred("P", (Fun("c"),))
    assert consequence_fo([quantifiers], [pc], sig, max_domain=1).holds
    assert consequence_fo([terms], [terms], sig, max_domain=2).holds
    res = consequence_fo([terms], [pc], sig, max_domain=2)
    assert not res.holds
    assert designated(evaluate(terms, res.structure))


# ---------------------------------------------------------------------------
# the first-order sweep cache and the pairs it keeps

CACHE_SIG = Signature(
    functions=(("d1", 0), ("u", 0), ("c", 0), ("f", 1)),
    predicates=(("P", 1), ("R", 2), ("q", 0)),
)


# each query draws its symbols from one of these (atoms, constants, f)
CACHE_VOCABULARIES = (("P=", ("d1", "u"), False), ("R", ("c",), True),
                      ("PRq=", ("d1", "u", "c"), True))
CACHE_VARIABLES = ("x", "y", "d2")


def _cache_term(rng, voc, depth):
    if depth and voc[2] and rng.random() < 0.3:
        return Fun("f", (_cache_term(rng, voc, depth - 1),))
    if rng.random() < 0.4:
        return Var(rng.choice(CACHE_VARIABLES))
    return Fun(rng.choice(voc[1]))


def _cache_formula(rng, voc, depth):
    """A formula over CACHE_SIG whose constants are named like domain
    elements (d1, and u, the partial bottom) and like none, as is one of
    its variables (d2); each variable is bound or free, whatever the
    quantifiers around it."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(voc[0])
        if kind == "q":
            return Prop("q")
        if kind == "=":
            return Eq(_cache_term(rng, voc, 2), _cache_term(rng, voc, 2))
        return Pred(kind, tuple(_cache_term(rng, voc, 2)
                                for _ in range(1 if kind == "P" else 2)))
    kind = rng.choice(("not", "and", "or", "imp", "all", "ex"))
    if kind == "not":
        return Not(_cache_formula(rng, voc, depth - 1))
    if kind in ("all", "ex"):
        return (Forall if kind == "all" else Exists)(
            rng.choice(CACHE_VARIABLES), _cache_formula(rng, voc, depth - 1))
    cls = {"and": And, "or": Or, "imp": Imp}[kind]
    return cls(_cache_formula(rng, voc, depth - 1),
               _cache_formula(rng, voc, depth - 1))


def _cache_queries(seed: int, n: int):
    """(gamma, delta, mode, max_domain) over a few vocabularies, so that
    later queries meet the sweeps of earlier ones."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        voc = rng.choice(CACHE_VOCABULARIES)
        sides = [[_cache_formula(rng, voc, rng.randint(0, 2))
                  for _ in range(rng.randint(0, 2))] for _ in range(2)]
        mode = rng.choice(("total", "partial"))
        out.append((*sides, mode, 2 if mode == "partial" else
                    rng.choice((1, 2))))
    return out


def _cache_outcome(gamma, delta, mode, bound):
    try:
        res = consequence_fo(gamma, delta, CACHE_SIG, max_domain=bound,
                             mode=mode, cap=5000)
    except EnumerationCapExceeded as exc:
        return "cap", str(exc)
    if res.holds:
        return True, None, None
    m, alpha = res.structure, res.assignment
    assert all(designated(evaluate(a, m, alpha)) for a in gamma)
    assert not any(designated(evaluate(a, m, alpha)) for a in delta)
    return False, print_structure(m), alpha


def test_cached_sweeps_and_kept_pairs_do_not_change_any_answer():
    """The same answers with a warm cache, a cleared one before every
    query and the queries in reverse order; each countermodel evaluates
    as one again."""
    queries = _cache_queries(18, 320)
    semantics._fo_sweep.cache_clear()
    warm = [_cache_outcome(*query) for query in queries]
    info = semantics._fo_sweep.cache_info()
    assert info.hits >= len(queries) // 4
    cold = []
    for query in queries:
        semantics._fo_sweep.cache_clear()
        cold.append(_cache_outcome(*query))
    backwards = [_cache_outcome(*query) for query in reversed(queries)]
    assert warm == cold == backwards[::-1]
    kinds = {out[0] for out in warm}
    assert kinds == {True, False, "cap"}
    assert sum(out[0] is False and bool(out[2]) for out in warm) >= 20


def test_elements_constants_and_variables_named_alike_stay_apart():
    """Grounding P(x) gives the atoms P(d1) and P(u) over elements; the
    constants d1 and u and the free variables d1 and u are other atoms
    over the same sweeps, checked against the per-structure reference
    with the cache cleared first and warm."""
    sig = Signature(functions=(("d1", 0), ("u", 0)), predicates=(("P", 1),))

    def P(t):
        return Pred("P", (t,))

    pool = [Forall("x", P(Var("x"))), Exists("x", Not(P(Var("x")))),
            P(Var("d1")), P(Fun("d1")), P(Var("u")), P(Fun("u"))]
    queries = [([a, b], [c], mode) for a in pool for b in pool[2:]
               for c in pool for mode in ("total", "partial")]
    semantics._fo_sweep.cache_clear()
    for _ in range(2):
        for gamma, delta, mode in queries:
            want = outcome(reference_fo, gamma, delta, sig, 2, mode)
            assert outcome(consequence_fo, gamma, delta, sig, 2, mode) == (
                want), (gamma, delta, mode)


def _cached_sweeps(sig: Signature, sizes, mode: str, has_eq: bool,
                   variables=()):
    return [semantics._fo_sweep(sig, size, mode, ALL_VALUES, has_eq, None,
                                variables, semantics._BLOCK_COLUMNS)
            for size in sizes]


def test_kept_pairs_hold_no_formula_alive():
    sig = Signature(functions=(("life_c", 0), ("life_f", 1)),
                    predicates=(("Life", 2),))
    gc.collect()
    before = len(syntax._NODES)
    fx = Fun("life_f", (Var("life_x"),))
    a = Forall("life_y", Pred("Life", (fx, Var("life_y"))))
    b = Pred("Life", (fx, Fun("life_c")))
    assert consequence_fo([a], [b], sig, max_domain=2).holds
    kept = [s.kept for s in _cached_sweeps(sig, (1, 2), "total", False,
                                           ("life_x",))]
    assert len(kept[0]) == 2 and len(kept[1]) == 3
    del a, b, fx
    gc.collect()
    assert len(syntax._NODES) == before


def test_kept_pairs_stay_within_their_bound():
    """2,000 queries over distinct nested terms on one signature count
    more than ``_KEPT_BITS``, so the cache starts afresh, and what the
    cached sweeps keep never passes the bound."""
    sig = Signature(functions=(("c", 0), ("f", 1)),
                    predicates=(("P", 1), ("R", 2)))
    terms = [Fun("c")]
    while len(terms) < 45:
        terms.append(Fun("f", (terms[-1],)))
    pc = Pred("P", (terms[0],))
    semantics._fo_sweep.cache_clear()
    counted = 0
    for i in range(2000):
        atom = Pred("R", (terms[i // 45], terms[i % 45]))
        before = semantics._kept_bits
        assert consequence_fo([atom], [pc, atom], sig, max_domain=2).holds
        counted += max(semantics._kept_bits - before, 0)
        held = sum(len(s.kept) * 2 * (s.full.bit_length() + 1024)
                   for s in _cached_sweeps(sig, (1, 2), "total", False))
        assert held <= semantics._kept_bits <= semantics._KEPT_BITS
    assert counted > 2 * semantics._KEPT_BITS


@pytest.mark.parametrize("block", [None, 4096])
def test_a_term_nested_2000_deep_is_swept_without_recursion(monkeypatch,
                                                            block):
    """Over at most three elements, f applied 2,000 times and twice agree
    on every element (past a tail of at most two steps f repeats with a
    period dividing 6, and 2,000 = 2 mod 6), so each deep query answers
    as its shallow twin, to the countermodel, in one block and in many.
    Queries with equality stop at two elements, under the cap."""
    if block:
        monkeypatch.setattr(semantics, "_BLOCK_COLUMNS", block)
    sig = Signature(functions=(("c", 0), ("f", 1)), predicates=(("P", 1),))
    c, x = Fun("c"), Var("x")

    def queries(n):
        fc, fx = c, x
        for _ in range(n):
            fc, fx = Fun("f", (fc,)), Fun("f", (fx,))
        return [([Pred("P", (fc,))], [Pred("P", (c,))], 3),
                ([Forall("x", Pred("P", (fx,)))], [Eq(c, fc)], 2),
                ([Exists("x", Eq(fx, x))], [Pred("P", (fx,))], 2),
                ([Pred("P", (fc,))], [Exists("x", Pred("P", (fx,)))], 3)]

    refuted = 0
    for mode in ("total", "partial"):
        for (g2, d2, most), (g, d, _) in zip(queries(2), queries(2000)):
            semantics._fo_sweep.cache_clear()
            want = consequence_fo(g2, d2, sig, max_domain=most, mode=mode)
            semantics._fo_sweep.cache_clear()
            assert consequence_fo(g, d, sig, max_domain=most,
                                  mode=mode) == want
            refuted += not want.holds
    assert refuted >= 4


def test_the_sweep_cache_holds_memory_within_its_bound():
    """Each of 64 signatures over eight fresh propositions makes a sweep
    of one 2^16-column block; without the bound their masks and pairs
    would hold about 25 MB."""
    semantics._fo_sweep.cache_clear()
    tracemalloc.start()
    try:
        for i in range(64):
            atoms = [Prop("wide%d_%d" % (i, j)) for j in range(8)]
            sig = Signature(predicates=tuple((a.name, 0) for a in atoms))
            assert consequence_fo([_conjunction(atoms)], [atoms[0]], sig,
                                  max_domain=1).holds
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < semantics._KEPT_BITS // 8 * 2


def test_count_structures_and_fo_spaces_leave_the_sweep_cache_alone():
    """The benchmark sizes its queries with count_structures before it
    times consequence_fo, so sizing must not warm the timed path."""
    info = semantics._fo_sweep.cache_info()
    for size in (1, 2, 3):
        count_structures(CACHE_SIG, size, "partial" if size > 1 else "total")
        count_structures(RICH_SIG, size, "total", K3_VALUES, False)
    FOSpace(_EQ_SIG, (1, 2)).mask(_EQ_POOL[0])
    assert semantics._fo_sweep.cache_info() == info


def test_quantifiers_nested_2000_deep_are_grounded_without_recursion():
    """At one element a quantifier's body runs once, so 2,000
    nested quantifiers over P(c), foralls and exists alternating, answer
    as P(c) itself, to the countermodel."""
    sig = Signature(functions=(("c", 0),), predicates=(("P", 1), ("Q", 1)))
    pc, qc = Pred("P", (Fun("c"),)), Pred("Q", (Fun("c"),))
    deep = pc
    for i in range(2000):
        deep = (Forall if i % 2 else Exists)("x%d" % i, deep)
    for gamma, delta in (([deep], [pc]), ([pc], [deep]), ([deep], [qc]),
                         ([qc], [deep])):
        flat = [pc if a is deep else a for a in gamma], [
            pc if a is deep else a for a in delta]
        semantics._fo_sweep.cache_clear()
        want = consequence_fo(*flat, sig, max_domain=1)
        semantics._fo_sweep.cache_clear()
        assert consequence_fo(gamma, delta, sig, max_domain=1) == want


def test_compiled_code_and_free_variables_match_a_recursive_walk():
    rng = random.Random(21)
    for _ in range(300):
        gamma, delta, _ = random_fo_query(rng)
        fs = gamma + delta
        code, _, _, _, free = semantics._compile(fs, RICH_SIG)
        assert reference_semantics.node_code(code) == [
            op for a in fs for op in reference_semantics.compiled(a, False)]
        assert free == tuple(sorted(set().union(*map(free_vars, fs))))


def test_compiling_quantifiers_nested_2000_deep_takes_linear_memory():
    """A copy of the bound variables per quantifier would hold about two
    million names at once here."""
    sig = Signature(functions=(("c", 0),), predicates=(("P", 1),))
    inner = And(Pred("P", (Var("x0"),)), Pred("P", (Var("y"),)))
    deep = inner
    for i in range(2000):
        deep = Forall("x%d" % i, deep)
    tracemalloc.start()
    try:
        code, _, _, _, free = semantics._compile([deep], sig)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20
    assert free == ("y",)
    # x0 alone is used, so the 1,999 quantifiers inside it compile to
    # their bodies, each the same at every element
    (q, var, code), = code
    assert (q, var) == (Forall, "x0")
    assert reference_semantics.node_code(code) == [
        inner.right, inner.left, And]


# ---------------------------------------------------------------------------
# the plan of a query shape: the signature of the symbols that occur, the
# sweeps' shape and the refusal, decided before any sweep is taken


def test_the_first_fo_entails_ops_equal_their_pinned_digests():
    W = bench_workloads()
    pins = json.loads(Path(W.__file__).with_name("pinned.json").read_text())
    pins = pins["fo-entails"]
    got = []
    for q in itertools.islice(W.fo_queries(W.DEFAULT_SEED), W.PINNED_OPS):
        line, error = W.fo_check(q, W.fo_op(q))
        assert error is None
        got.append(W.digest(line))
    assert got == pins and len(got) == 100


# W and V, too wide for the hypothesis formulas, are laid out far past
# any cap from two elements on
PLAN_SIG = Signature(functions=(("c", 0), ("f", 1), ("g", 2)),
                     predicates=(("P", 1), ("Q", 2), ("R", 3), ("q", 0),
                                 ("W", 40), ("V", 1001)))
_PLAN_TERM = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("z"), Fun("c")]),
    lambda ts: st.one_of(st.builds(lambda t: Fun("f", (t,)), ts),
                         st.builds(lambda t, u: Fun("g", (t, u)), ts, ts)),
    max_leaves=3)
_PLAN_FORMULA = st.recursive(
    st.one_of(st.just(Prop("q")), st.just(Falsity()),
              st.builds(lambda t: Pred("P", (t,)), _PLAN_TERM),
              st.builds(lambda t, u: Pred("Q", (t, u)), _PLAN_TERM,
                        _PLAN_TERM),
              st.builds(lambda *ts: Pred("R", ts), _PLAN_TERM, _PLAN_TERM,
                        _PLAN_TERM),
              st.builds(Eq, _PLAN_TERM, _PLAN_TERM)),
    lambda fs: st.one_of(
        st.builds(Not, fs), st.builds(And, fs, fs), st.builds(Or, fs, fs),
        st.builds(Imp, fs, fs), st.builds(Forall, st.sampled_from("xyz"), fs),
        st.builds(Exists, st.sampled_from("xyz"), fs)),
    max_leaves=5)
_PLAN_SIDE = st.lists(_PLAN_FORMULA, max_size=2)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_PLAN_SIDE, _PLAN_SIDE, st.sampled_from((2, 3, 0, 1, 4)),
       st.sampled_from(("total", "partial")),
       st.sampled_from(list(MODE_VALUES.values())),
       st.sampled_from((None, (N, F), frozenset({F}))),
       st.sampled_from((3000, 600, 1, 40, 4)))
def test_consequence_fo_answers_and_refuses_as_the_inline_pre_scan(
        gamma, delta, bound, mode, allowed, eq_distinct, cap):
    """Result for result and refusal text for refusal text, with caps
    small enough to refuse, bounds 0-4, both modes, every value set and
    three ranges of distinct elements' equality; each query is asked
    twice, so the second answer reads what the first one cached."""
    kw = {"max_domain": bound, "mode": mode, "cap": cap, "allowed": allowed,
          "eq_distinct": eq_distinct}
    want = outcome(reference_semantics.consequence_fo, gamma, delta,
                   PLAN_SIG, **kw)
    for _ in range(2):
        assert outcome(consequence_fo, gamma, delta, PLAN_SIG, **kw) == want


_X, _C = Var("x"), Fun("c")


@pytest.mark.parametrize("gamma, bound, kw, refusal", [
    ([Pred("P", (_C,))], 0, {}, "admits no structure"),
    ([Pred("P", (_C,))], 1, {"mode": "partial"}, "admits no structure"),
    ([Forall("x", Forall("y", Pred("Q", (_X, Var("y")))))], 4, {"cap": 20},
     "formula items"),
    ([Pred("W", (_X,) * 40)], 3, {"cap": 40}, "about 10^"),
    ([Pred("V", (_C,) * 1001)], 2, {"cap": 4}, "at least 10^(10^15)"),
    ([Pred("Q", (_X, _C))], 3, {"cap": 600}, "at least 786948 structures"),
    ([Pred("P", (_X,))], 2, {"mode": "partial", "allowed": K3_VALUES},
     "restrictions"),
    ([Pred("P", (_X,)), Eq(_X, _C)], 3, {"eq_distinct": (N, F)}, None),
])
def test_each_refusal_of_the_pre_scan_reads_as_the_reference(gamma, bound, kw,
                                                           refusal):
    """One query for each check before the sweeps, in their order, and
    one that passes them all, cold and warm."""
    want = outcome(reference_semantics.consequence_fo, gamma, [], PLAN_SIG,
                   max_domain=bound, **kw)
    if refusal is None:
        assert want[0] is False
    else:
        assert issubclass(want[0], SemanticsError) and refusal in want[1]
    for _ in range(2):
        assert outcome(consequence_fo, gamma, [], PLAN_SIG, max_domain=bound,
                       **kw) == want


@pytest.mark.parametrize("gamma, delta, allowed", [
    ([], [Eq(_C, _C)], {F, N}),
    ([], [Not(Eq(_C, _C))], {F, N}),
    ([Eq(_C, _C)], [], {F, N}),
    ([Pred("P", (_C,))], [], set()),
    ([], [Pred("P", (_C,))], set()),
], ids=["eq", "not-eq", "eq-left", "pred-left", "pred"])
def test_a_value_set_that_admits_no_structure_is_refused(gamma, delta,
                                                         allowed):
    """No designated value is left for the equality diagonal, or no value
    at all for a predicate, so no structure of any size is left and no
    query over them is answered: each call, warm ones included, raises
    an exception of its own."""
    kw = {"max_domain": 3, "allowed": frozenset(allowed)}
    want = outcome(reference_semantics.consequence_fo, gamma, delta,
                   PLAN_SIG, **kw)
    assert want == (SemanticsError, "value set {%s} admits no structure of "
                    "these symbols up to domain 3"
                    % ", ".join(str(v) for v in sorted(allowed)))
    raised = []
    for _ in range(2):
        with pytest.raises(SemanticsError) as got:
            consequence_fo(gamma, delta, PLAN_SIG, **kw)
        assert (type(got.value), str(got.value)) == want
        raised.append(got.value)
    assert raised[0] is not raised[1]


def test_formulas_given_to_consequence_fo_leave_the_node_table():
    """Neither the plans nor the sweeps hold a node: API-built formulas
    over fresh symbols, answered and refused in both modes, leave the
    table as it was once they are dropped."""
    sig = Signature(functions=(("plan_c", 0), ("plan_f", 1)),
                    predicates=(("Plan", 2), ("plan_q", 0)))
    gc.collect()
    before = len(syntax._NODES)
    fx, y = Fun("plan_f", (Var("plan_x"),)), Var("plan_y")
    a = Forall("plan_y", Pred("Plan", (fx, y)))
    b = Exists("plan_y", Or(Eq(fx, y), Prop("plan_q")))
    seen = set()
    for mode, bound, cap in (("total", 2, 10**7), ("partial", 3, 10**7),
                             ("total", 3, 5), ("total", 4, 10**7)):
        for gamma, delta in (([a], [b]), ([b], [a]), ([Prop("plan_q")], [])):
            seen.add(outcome(consequence_fo, gamma, delta, sig,
                             max_domain=bound, mode=mode, cap=cap)[0])
    assert seen == {True, False, EnumerationCapExceeded}
    del a, b, fx, y, gamma, delta
    gc.collect()
    assert len(syntax._NODES) == before


def test_a_query_whose_atoms_are_kept_leaves_no_garbage():
    """Asked again, a query whose every ground atom a cached sweep keeps
    builds no closure and no cycle: with the collector off, it leaves
    nothing for ``gc.collect()`` to free, refuted or valid."""
    sig = Signature(functions=(("c", 0), ("f", 1)),
                    predicates=(("P", 1), ("q", 0)))
    fx, fc = Fun("f", (_X,)), Fun("f", (_C,))
    queries = [([Forall("x", Pred("P", (fx,)))], [Pred("P", (fc,))]),
               ([Pred("P", (fx,)), Prop("q")], [Exists("x", Eq(fx, _C))])]
    assert [consequence_fo(gamma, delta, sig, max_domain=2).holds
            for gamma, delta in queries * 2] == [True, False] * 2
    gc.collect()
    gc.disable()
    try:
        for gamma, delta in queries:
            consequence_fo(gamma, delta, sig, max_domain=2)
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


def test_a_query_whose_atoms_are_filled_afresh_leaves_no_garbage():
    """A query that builds pairs leaves no cycle behind, so a sweep the
    cache drops is freed at once: with the collector off, fresh queries
    leave nothing for ``gc.collect()``."""
    sig = Signature(functions=(("c", 0), ("f", 1)),
                    predicates=(("P", 1), ("q", 0)))
    fx, fc = Fun("f", (_X,)), Fun("f", (_C,))
    queries = [([Forall("x", Pred("P", (fx,)))], [Pred("P", (fc,))]),
               ([Pred("P", (fx,)), Prop("q")], [Exists("x", Eq(fx, _C))])]
    gc.collect()
    gc.disable()
    try:
        for gamma, delta in queries * 2:
            semantics._fo_sweep.cache_clear()
            consequence_fo(gamma, delta, sig, max_domain=2)
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


# ---------------------------------------------------------------------------
# quantifiers evaluated in place, against the grounded reference

_TERMS = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("z"), Fun("c"), Fun("d")]),
    lambda ts: st.one_of(st.builds(lambda t: Fun("f", (t,)), ts),
                         st.builds(lambda a, b: Fun("g", (a, b)), ts, ts)),
    max_leaves=3)
_FO_FORMULAS = st.recursive(
    st.one_of(st.builds(lambda t: Pred("P", (t,)), _TERMS),
              st.builds(lambda a, b: Pred("Q", (a, b)), _TERMS, _TERMS),
              st.builds(Eq, _TERMS, _TERMS),
              st.sampled_from([Prop("q"), Falsity(), ExtApp("Both")])),
    lambda fs: st.one_of(
        st.builds(Not, fs), st.builds(And, fs, fs), st.builds(Or, fs, fs),
        st.builds(Imp, fs, fs),
        st.builds(lambda c, a: ExtApp(c, (a,)), st.sampled_from(UNARY), fs),
        st.builds(Forall, st.sampled_from("xyz"), fs),
        st.builds(Exists, st.sampled_from("xyz"), fs)),
    max_leaves=6)


def _shadows(a) -> bool:
    """Whether a quantifier in a binds a variable that one around it binds."""
    stack = [(a, frozenset())]
    while stack:
        a, bound = stack.pop()
        if a.__class__ in (Forall, Exists):
            if a.var in bound:
                return True
            stack.append((a.body, bound | {a.var}))
        elif a.__class__ not in (Pred, Eq):
            stack += [(b, bound) for b in syntax._parts(a)]
    return False


def _kept_log(run):
    """What ``run()`` returns or raises, from a cleared sweep cache, with
    every ``_count_kept`` call it makes and the keys, in order, of the
    pairs each sweep it counts for keeps."""
    calls, sweeps = [], []
    count = semantics._count_kept

    def counted(sweep, masks, items):
        calls.append((sweep.full.bit_length(), masks, items))
        if sweep not in sweeps:
            sweeps.append(sweep)
        count(sweep, masks, items)

    semantics._fo_sweep.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_count_kept", counted)
        got = run()
    return got, calls, [None if s.kept is None else list(s.kept)
                        for s in sweeps]


def test_in_place_consequence_fo_equals_the_grounded_reference():
    """Over drawn queries, quantifiers run in place give the grounded
    reference's result or refusal, count the same kept bits in the same
    order and keep the same ground shapes.  The draws cover nested and
    shadowing quantifiers, free variables, equality, partial mode,
    restricted value sets, ``eq_distinct``, an extra connective and
    sweeps of more than one block."""
    seen = set()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_FO_FORMULAS, max_size=2),
           st.lists(_FO_FORMULAS, min_size=1, max_size=2),
           st.sampled_from(("total", "total", "partial")),
           st.integers(1, 3), st.sampled_from(list(MODES.values())),
           st.sampled_from((None, None, (N, F), (F,))),
           st.sampled_from((None, None, 1, 6, 64)))
    @example([Not(Eq(_C, Fun("d")))],
             [Forall("x", Or(Eq(_X, _C), Eq(_X, Fun("d"))))], "total", 3,
             CL_VALUES, (F,), 64)
    @example([Forall("x", Exists("y", Pred("Q", (_X, Var("y")))))],
             [Exists("y", Forall("x", Pred("Q", (_X, Var("y")))))],
             "partial", 3, ALL_VALUES, None, None)
    def check(gamma, delta, mode, bound, allowed, eq_distinct, block):
        kw = {"mode": mode, "max_domain": bound, "cap": 3000,
              "eq_distinct": eq_distinct}
        if mode == "total":
            kw["allowed"] = allowed
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(semantics, "_BLOCK_COLUMNS", block)
            want = _kept_log(lambda: outcome(
                reference_semantics.consequence_fo, gamma, delta, RICH_SIG,
                **kw))
            got = _kept_log(lambda: outcome(consequence_fo, gamma, delta,
                                            RICH_SIG, **kw))
        assert got == want, (gamma, delta, kw)
        if not isinstance(want[0][0], bool):
            return
        subs = [s for a in gamma + delta for s in subformulas(a)]
        quantified = [s for s in subs if s.__class__ in (Forall, Exists)]
        seen.update(
            name for name, hit in (
                ("nested", any(b.__class__ in (Forall, Exists) for s in
                               quantified for b in subformulas(s.body))),
                ("shadowed", any(map(_shadows, gamma + delta))),
                ("free", any(free_vars(a) for a in gamma + delta)),
                ("eq", any(s.__class__ is Eq for s in subs)),
                ("partial", mode == "partial"),
                ("restricted", mode == "total" and allowed != ALL_VALUES),
                ("eq_distinct", eq_distinct is not None),
                ("extra", any(s.__class__ is ExtApp and s.args for s in subs)),
                ("blocks", block is not None and want[1] and
                 any(sweeps is None for sweeps in want[2])),
                ("refuted", want[0][0] is False),
                ("three", bound == 3 and (want[0][0] is True or len(
                    want[0][3].domain) == 3))) if hit)

    check()
    assert seen == {"nested", "shadowed", "free", "eq", "partial",
                    "restricted", "eq_distinct", "extra", "blocks",
                    "refuted", "three"}


def _closed_but_y(a, qx, qz):
    """a with free x and z bound, so only y may stay free."""
    for var, q in (("x", qx), ("z", qz)):
        if var in free_vars(a):
            a = q(var, a)
    return a


_SPACE_FORMULAS = st.builds(
    _closed_but_y,
    st.recursive(
        st.one_of(st.builds(lambda t: Pred("P", (t,)), st.sampled_from(
                      [Var("x"), Var("y"), Var("z"), Fun("c"), Fun("d")])),
                  st.builds(Eq, *[st.sampled_from([Var("x"), Var("y"),
                                                   Fun("c"), Fun("d")])] * 2),
                  st.sampled_from([Prop("q"), Falsity()])),
        lambda fs: st.one_of(
            st.builds(Not, fs), st.builds(And, fs, fs), st.builds(Or, fs, fs),
            st.builds(Imp, fs, fs),
            st.builds(Forall, st.sampled_from("xyz"), fs),
            st.builds(Exists, st.sampled_from("xyz"), fs)),
        max_leaves=5),
    st.sampled_from([Forall, Exists]), st.sampled_from([Forall, Exists]))


@pytest.mark.parametrize("mode, sizes, need_eq", [
    ("total", (1, 2), False), ("total", (1,), True), ("partial", (2,), True),
])
def test_fo_space_vectors_equal_per_column_evaluation(mode, sizes, need_eq):
    """Each bit of a drawn formula's (t, f) pair is the told-true or
    told-false half of its value at that column under ``evaluate``."""
    sig = Signature(functions=(("c", 0), ("d", 0)),
                    predicates=(("P", 1), ("q", 0)))
    space = FOSpace(sig, sizes, mode, need_eq, None, ("y",))
    columns = [space.columns[i] for i in range(len(space.columns))]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_SPACE_FORMULAS)
    def check(a):
        t, f = space.vector(a)
        for i, (m, alpha) in enumerate(columns):
            v = evaluate(a, m, alpha)
            assert (t >> i & 1, f >> i & 1) == (v in (T, B), v in (B, F)), (
                a, i)
        assert t >> len(columns) == f >> len(columns) == 0

    check()


def test_quantifier_chains_2000_deep_run_in_place_without_recursion():
    """At one element each quantifier's body runs once, so 2,000 nested
    quantifiers, foralls and exists alternating, around a body that uses
    the outermost variable and a constant, give the body's pair with
    that variable read as the element, through ``consequence_fo`` and
    through ``FOSpace.vector``."""
    sig = Signature(functions=(("c", 0),), predicates=(("P", 1), ("Q", 1)))
    body = Imp(Pred("P", (Var("x0"),)), Pred("Q", (Fun("c"),)))
    deep = body
    for i in reversed(range(2000)):
        deep = (Forall if i % 2 else Exists)("x%d" % i, deep)
    flat = Forall("x0", body)
    space = FOSpace(sig, (1,))
    assert space.vector(deep) == space.vector(flat)
    for gamma, delta in (([deep], []), ([], [deep]), ([Pred("P", (Fun("c"),))],
                                                       [deep])):
        want = consequence_fo([flat if a is deep else a for a in gamma],
                              [flat if a is deep else a for a in delta], sig,
                              max_domain=1)
        assert consequence_fo(gamma, delta, sig, max_domain=1) == want


def test_of_two_faults_in_an_atom_the_right_most_is_refused():
    """The terms are walked left to right for the atom's template, and
    the fault refused is the one a right-to-left walk meets first: the
    right-most, at any depth."""
    sig = Signature(functions=(("c", 0), ("f", 1)), predicates=(("P", 2),))
    g, f0 = Fun("g"), Fun("f")
    for atom, message in (
            (Pred("P", (g, f0)), "f takes 1 arguments"),
            (Pred("P", (f0, g)), "symbol not in signature"),
            (Pred("P", (Fun("f", (g,)), Prop("p"))),
             "not a term: %r" % (Prop("p"),)),
            (Eq(Fun("f", (Prop("p"),)), Fun("f", (g,))),
             "symbol not in signature")):
        for run in (lambda: consequence_fo([atom], [], sig),
                    lambda: FOSpace(sig, (1,)).vector(atom)):
            with pytest.raises(SemanticsError) as got:
                run()
            assert str(got.value) == message
