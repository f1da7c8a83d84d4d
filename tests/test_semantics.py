"""Evaluation and consequence, propositional and first-order."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from bd4 import acceptance, semantics
from bd4.acceptance import _EQ_POOL, _EQ_SIG, _FO_POOL, _FO_SIG
from bd4.definability import truth_function_of
from bd4.matrixlab import BD_MATRIX, consequence_in
from bd4.proofio import print_structure
from bd4.semantics import (
    EnumerationCapExceeded, FOResult, FOSpace, PropSpace, SemanticsError,
    Structure, consequence_fo, consequence_prop, count_structures,
    enumerate_structures, equivalent_prop, evaluate, evaluate_prop,
    normality_probe, synonymous_prop, truth_table, valuations,
)
from bd4.syntax import (
    And, Eq, Exists, ExtApp, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, Var, free_vars, prop_atoms, prop_signature,
    subformulas,
)
from bd4.values import (
    ALL_VALUES, B, CL_VALUES, F, K3_VALUES, LP_VALUES, N, T, VALUES,
    designated,
)

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


def test_classical_modes_recover_classical_laws():
    assert consequence_prop([], [Or(p, Not(p))], LP_VALUES)[0]
    assert not consequence_prop([], [Or(p, Not(p))], K3_VALUES)[0]
    assert consequence_prop([p, Not(p)], [q], K3_VALUES)[0]
    assert not consequence_prop([p, Not(p)], [q], LP_VALUES)[0]
    assert consequence_prop([], [Or(p, Not(p))], CL_VALUES)[0]
    assert consequence_prop([p, Not(p)], [q], CL_VALUES)[0]


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
    modes = {"bd": ALL_VALUES, "lp": LP_VALUES, "k3": K3_VALUES,
             "cl": CL_VALUES}
    for _ in range(300):
        gamma = [rng.choice(pool) for _ in range(rng.randrange(3))]
        delta = [rng.choice(pool) for _ in range(rng.randrange(3))]
        gm = [space.mask(f) for f in gamma]
        dm = [space.mask(f) for f in delta]
        for mode, allowed in modes.items():
            direct, _ = consequence_prop(gamma, delta, allowed)
            via_space = space.holds(gm, dm, mode) is None
            assert direct == via_space, (gamma, delta, mode)


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
    space = PropSpace(tuple(atoms))
    for mode, allowed in MODES.items():
        want_index, want = reference_consequence(gamma, delta, allowed,
                                                 tuple(atoms))
        got = space.holds([space.mask(a) for a in gamma],
                          [space.mask(a) for a in delta], mode)
        assert got == want_index
        s = Sequent.of(gamma, delta)
        assert space.countermodel(s, mode) == want
        assert space.valid(s, mode) == (want is None)


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
    space = PropSpace(tuple(order))
    for mode, allowed in MODES.items():
        s = Sequent.of([a] + gamma, delta)
        assert space.countermodel(s, mode) == reference_consequence(
            [a] + gamma, delta, allowed, tuple(order))[1]


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
    """``count_structures`` is the column count of a blocked sweep whose
    blocks cover it exactly, a free variable multiplies it by the size,
    and where it is small the enumeration and FOSpace's unblocked sweep
    give as many structures."""
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


def test_a_partial_size_below_two_has_no_structure():
    """The bottom needs an element beside it: partial size 1 has no
    structures and no columns, and FOSpace refuses it as consequence_fo
    refuses such a bound."""
    sig = Signature(functions=(("c", 0),), predicates=(("P", 1), ("q", 0)))
    assert count_structures(sig, 1, "partial") == 0
    assert list(enumerate_structures(sig, 1, "partial")) == []
    for sizes, mode in (((1, 2), "partial"), ((0,), "total")):
        with pytest.raises(SemanticsError, match="admits no structure"):
            FOSpace(sig, sizes, mode=mode)
    space = FOSpace(sig, (2,), mode="partial")
    assert len(space.columns) == count_structures(sig, 2, "partial") > 0
    with pytest.raises(SemanticsError, match="admits no structure"):
        consequence_fo([Prop("q")], [], sig, max_domain=1, mode="partial")


def test_an_empty_domain_has_no_structure():
    """Size 0 has no structures in either mode, counted or enumerated."""
    for sig in (Signature(predicates=(("q", 0),)),
                Signature(functions=(("c", 0),), predicates=(("P", 1),))):
        for mode in ("total", "partial"):
            assert count_structures(sig, 0, mode) == 0
            assert list(enumerate_structures(sig, 0, mode)) == []


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


def test_normality_probe_clean():
    report = normality_probe(seed=0, samples=60)
    assert report["failures"] == []
    assert report["checked"] > 0


# ---------------------------------------------------------------------------
# the grounded first-order sweep against per-structure evaluation

RICH_SIG = Signature(
    functions=(("c", 0), ("d", 0), ("f", 1), ("g", 2)),
    predicates=(("P", 1), ("Q", 2), ("q", 0)),
    extras=frozenset(UNARY + ("Both", "Neither")),
)


def reference_fo(gamma, delta, sig, max_domain=3, mode="total", cap=10**7,
                 allowed=ALL_VALUES, eq_distinct=None):
    """consequence_fo the slow way: every structure that
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
        for m in enumerate_structures(small, k, mode, allowed, has_eq,
                                      eq_distinct):
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
    decoded and evaluated against ``enumerate_structures``."""
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
        for m in enumerate_structures(sig, k, mode, need_eq=need_eq,
                                      eq_distinct=eq_distinct):
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
