"""Backward proof search: found proofs check, refutations countermodel."""

import itertools
import random

import pytest

from bd4.kernel import check_derivation, derives
from bd4.parser import parse_sequent
from bd4.proofio import print_derivation
from bd4.search import MODES, SearchBudget, prove_prop
from bd4.semantics import consequence_prop, evaluate_prop
from bd4.syntax import And, Falsity, Imp, Not, Or, Prop, Sequent, prop_signature
from bd4.values import ALL_VALUES, CL_VALUES, K3_VALUES, LP_VALUES, N, designated

p, q, r = Prop("p"), Prop("q"), Prop("r")

MODE_VALUES = {
    "base": ALL_VALUES, "lp": LP_VALUES, "k3": K3_VALUES, "cl": CL_VALUES,
}


def assert_proves(gamma, delta, mode="base"):
    s = Sequent.of(gamma, delta)
    res = prove_prop(s, SearchBudget(mode=mode))
    assert res.proved, res.status
    good, v = check_derivation(res.proof)
    assert good, v
    assert derives(gamma, delta, res.proof)
    return res


def assert_refutes(gamma, delta, mode="base"):
    s = Sequent.of(gamma, delta)
    res = prove_prop(s, SearchBudget(mode=mode))
    assert res.status == "refuted"
    w = res.countermodel
    assert all(designated(evaluate_prop(a, w)) for a in gamma)
    assert not any(designated(evaluate_prop(a, w)) for a in delta)
    allowed = MODE_VALUES[mode]
    assert all(v in allowed for v in w.values())
    return res


def test_basic_sequents():
    assert_proves([p], [p])
    assert_proves([And(p, q)], [p])
    assert_proves([p], [Or(p, q)])
    assert_proves([p, Imp(p, q)], [q])
    assert_proves([], [Imp(p, p)])
    assert_proves([Falsity()], [q])
    assert_proves([], [Not(Falsity())])
    assert_refutes([], [p])
    assert_refutes([p], [q])


def test_refutation_picks_first_valuation_in_value_order():
    res = assert_refutes([], [p])
    assert res.countermodel == {"p": N}


def test_de_morgan_dualities_prove_both_ways():
    pairs = [
        (Not(And(p, q)), Or(Not(p), Not(q))),
        (Not(Or(p, q)), And(Not(p), Not(q))),
        (Not(Not(p)), p),
        (Not(Imp(p, q)), And(p, Not(q))),
    ]
    for left, right in pairs:
        assert_proves([left], [right])
        assert_proves([right], [left])


def test_peirce_formula_is_provable():
    peirce = Imp(Imp(Imp(p, q), p), p)
    assert_proves([], [peirce])


def test_contraposition_fails():
    assert_refutes([Imp(p, q)], [Imp(Not(q), Not(p))])


def test_mode_sensitivity_of_excluded_middle_and_explosion():
    lem = Or(p, Not(p))
    assert_refutes([], [lem], mode="base")
    assert_refutes([], [lem], mode="k3")
    for mode in ("lp", "cl"):
        res = assert_proves([], [lem], mode=mode)
        assert res.proof.packs == frozenset({"notLR"})
    contradiction = And(p, Not(p))
    assert_refutes([contradiction], [q], mode="base")
    assert_refutes([contradiction], [q], mode="lp")
    for mode in ("k3", "cl"):
        res = assert_proves([contradiction], [q], mode=mode)
        assert res.proof.packs == frozenset({"notLR"})


def test_base_proofs_use_no_packs():
    res = assert_proves([And(p, Not(p))], [Not(And(p, Not(p))), p])
    assert res.proof.packs == frozenset()


def test_exhausted_budget_reports_exhausted():
    big = p
    for _ in range(6):
        big = And(Or(big, q), Imp(r, big))
    res = prove_prop(Sequent.of([big], [big]), SearchBudget(max_nodes=2))
    assert res.status == "exhausted" and res.bound == "nodes"
    assert res.proof is None and res.countermodel is None


def test_exhausted_depth_names_the_depth_bound():
    res = prove_prop(Sequent.of([And(p, And(q, r))], [r]),
                     SearchBudget(max_depth=1))
    assert res.status == "exhausted" and res.bound == "depth"
    assert prove_prop(Sequent.of([And(p, And(q, r))], [r]),
                      SearchBudget(max_depth=2)).proved


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_depth=0)
    with pytest.raises(ValueError):
        SearchBudget(mode="zap")


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([p, q, Falsity()])
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_formula(rng, depth - 1))
    a = random_formula(rng, depth - 1)
    b = random_formula(rng, depth - 1)
    return (And, Or, Imp)[kind - 1](a, b)


def test_search_matches_oracle_across_modes():
    rng = random.Random(20240817)
    for _ in range(120):
        gamma = [random_formula(rng, 3) for _ in range(rng.randrange(3))]
        delta = [random_formula(rng, 3) for _ in range(rng.randrange(1, 3))]
        s = Sequent.of(gamma, delta)
        for mode in MODES:
            res = prove_prop(s, SearchBudget(mode=mode))
            holds, _ = consequence_prop(s.ant, s.suc, MODE_VALUES[mode])
            assert res.status in ("proved", "refuted")
            assert res.proved == holds
            if res.proved:
                good, v = check_derivation(res.proof)
                assert good, v
                assert derives(gamma, delta, res.proof)


def test_exhaustive_two_atom_shallow_agreement():
    atoms = [p, q]
    pool = list(atoms) + [Falsity()]
    pool += [Not(a) for a in pool] + [And(p, Not(p)), Or(p, Not(p)),
                                      Imp(p, q), Imp(Not(q), Not(p))]
    for left, right in itertools.product(pool, repeat=2):
        for mode in MODES:
            s = Sequent.of([left], [right])
            res = prove_prop(s, SearchBudget(mode=mode))
            holds, _ = consequence_prop(s.ant, s.suc, MODE_VALUES[mode])
            assert res.proved == holds


# One sequent per base decomposition (each is the last step's rule) and
# one per pack mode; the derivations are pinned byte for byte.
PINNED = {
    ("p & q => p", "base"): """\
packs: base
0: Id principal="p" |- p; q => p
1: and-L premises=[0] principal="p & q" |- p & q => p
""",
    ("p; q => p & q", "base"): """\
packs: base
0: Id principal="p" |- p; q => p
1: Id principal="q" |- p; q => q
2: and-R premises=[0, 1] principal="p & q" |- p; q => p & q
""",
    ("p | q => p; q", "base"): """\
packs: base
0: Id principal="p" |- p => p; q
1: Id principal="q" |- q => p; q
2: or-L premises=[0, 1] principal="p | q" |- p | q => p; q
""",
    ("p => p | q", "base"): """\
packs: base
0: Id principal="p" |- p => p; q
1: or-R premises=[0] principal="p | q" |- p => p | q
""",
    ("p; p -> q => q", "base"): """\
packs: base
0: Id principal="p" |- p => p; q
1: Id principal="q" |- p; q => q
2: imp-L premises=[0, 1] principal="p -> q" |- p; p -> q => q
""",
    ("=> p -> p", "base"): """\
packs: base
0: Id principal="p" |- p => p
1: imp-R premises=[0] principal="p -> p" |-  => p -> p
""",
    ("~~p => p", "base"): """\
packs: base
0: Id principal="p" |- p => p
1: notnot-L premises=[0] principal="~~p" |- ~~p => p
""",
    ("p => ~~p", "base"): """\
packs: base
0: Id principal="p" |- p => p
1: notnot-R premises=[0] principal="~~p" |- p => ~~p
""",
    ("~(p & q) => ~p; ~q", "base"): """\
packs: base
0: Id principal="~p" |- ~p => ~p; ~q
1: Id principal="~q" |- ~q => ~p; ~q
2: notand-L premises=[0, 1] principal="~(p & q)" |- ~(p & q) => ~p; ~q
""",
    ("~p => ~(p & q)", "base"): """\
packs: base
0: Id principal="~p" |- ~p => ~p; ~q
1: notand-R premises=[0] principal="~(p & q)" |- ~p => ~(p & q)
""",
    ("~(p | q) => ~p", "base"): """\
packs: base
0: Id principal="~p" |- ~p; ~q => ~p
1: notor-L premises=[0] principal="~(p | q)" |- ~(p | q) => ~p
""",
    ("~p; ~q => ~(p | q)", "base"): """\
packs: base
0: Id principal="~p" |- ~p; ~q => ~p
1: Id principal="~q" |- ~p; ~q => ~q
2: notor-R premises=[0, 1] principal="~(p | q)" |- ~p; ~q => ~(p | q)
""",
    ("~(p -> q) => p", "base"): """\
packs: base
0: Id principal="p" |- p; ~q => p
1: notimp-L premises=[0] principal="~(p -> q)" |- ~(p -> q) => p
""",
    ("p; ~q => ~(p -> q)", "base"): """\
packs: base
0: Id principal="p" |- p; ~q => p
1: Id principal="~q" |- p; ~q => ~q
2: notimp-R premises=[0, 1] principal="~(p -> q)" |- p; ~q => ~(p -> q)
""",
    ("=> p | ~p", "lp"): """\
packs: notLR
0: Id principal="p" |- p => p
1: not-R premises=[0] principal="~p" |-  => p; ~p
2: or-R premises=[1] principal="p | ~p" |-  => p | ~p
""",
    ("p & ~p => q", "k3"): """\
packs: notLR
0: Id principal="p" |- p => p; q
1: not-L premises=[0] principal="~p" |- p; ~p => q
2: and-L premises=[1] principal="p & ~p" |- p & ~p => q
""",
    ("~q; p -> q => ~p", "cl"): """\
packs: notLR
0: Id principal="p" |- p => p; q
1: not-R premises=[0] principal="~p" |-  => p; q; ~p
2: not-L premises=[1] principal="~q" |- ~q => p; ~p
3: Id principal="q" |- q => q; ~p
4: not-L premises=[3] principal="~q" |- q; ~q => ~p
5: imp-L premises=[2, 4] principal="p -> q" |- p -> q; ~q => ~p
""",
}


@pytest.mark.parametrize("text,mode", list(PINNED))
def test_printed_derivation_is_pinned(text, mode):
    s = parse_sequent(text, prop_signature("p", "q"))
    res = prove_prop(s, SearchBudget(mode=mode))
    assert print_derivation(res.proof) == PINNED[text, mode]


def test_pins_cover_every_decomposition_and_pack_mode():
    last = {text.splitlines()[-1].split()[1] for text in PINNED.values()}
    assert last >= {"and-L", "and-R", "or-L", "or-R", "imp-L", "imp-R",
                    "notnot-L", "notnot-R", "notand-L", "notand-R",
                    "notor-L", "notor-R", "notimp-L", "notimp-R"}
    assert {mode for _, mode in PINNED} == set(MODES)
