"""Backward proof search: found proofs check, refutations countermodel."""

import collections
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from bd4 import acceptance
from bd4.kernel import check_derivation
from bd4.parser import parse_sequent
from bd4.proofio import print_derivation
from bd4.search import (
    MODES, SearchBudget, _Exhausted, _Searcher, prove_prop,
)
from bd4.semantics import (
    PropSpace, SemanticsError, consequence_prop, evaluate_prop,
)
from bd4.syntax import (
    And, ExtApp, Falsity, Imp, Not, Or, Prop, Sequent, prop_signature,
)
from bd4.values import ALL_VALUES, CL_VALUES, K3_VALUES, LP_VALUES, N, designated

from reference_search import _Searcher as ReferenceSearcher
from reference_search import _linearize
from reference_search import reference_prove_prop
from support import derives

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


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(mode="zap")


def test_a_valid_sequent_that_needs_an_extra_connective_is_refused():
    """No rule takes Des apart: where the oracle says valid the search is
    stuck, and where it refutes the countermodel still comes back."""
    des = ExtApp("Des", (q,))
    with pytest.raises(SemanticsError, match="no sequent rule proves"):
        prove_prop(Sequent.of([q], [des]))
    assert prove_prop(Sequent.of([des], [p])).status == "refuted"
    assert prove_prop(Sequent.of([des, q], [q])).proved


def test_the_refusal_names_a_long_sequent_clipped():
    """A short sequent is named whole; a long one by its first 60
    characters, so the message stays one short line."""
    des, wide = ExtApp("Des", (q,)), q
    for _ in range(12):
        wide = And(wide, wide)
    for s, named in ((Sequent.of([q], [des]), "|- q => Des q"),
                     (Sequent.of([q, wide], [des]),
                      "|- q; q & q & (q & q) & (q & q & (q & q)) & "
                      "(q & q & (q & q) [clipped]")):
        with pytest.raises(SemanticsError) as exc:
            prove_prop(s)
        assert str(exc.value) == (
            "no sequent rule proves %s, though it holds" % named)
    assert len(str(Sequent.of([q, wide], [des]))) > 20_000


@pytest.mark.parametrize("mode,named", [
    ("zap", "'zap'"), ("z" * 100, "'%s' [clipped]" % ("z" * 60))])
def test_an_unknown_mode_is_named_clipped(mode, named):
    with pytest.raises(ValueError) as exc:
        SearchBudget(mode=mode)
    assert str(exc.value) == "unknown mode %s" % named


def random_formula(rng, depth, leaves=(p, q, Falsity())):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_formula(rng, depth - 1, leaves))
    a = random_formula(rng, depth - 1, leaves)
    b = random_formula(rng, depth - 1, leaves)
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


def _formulas(depth):
    """Formulas over p, q, r and F of connective depth at most ``depth``."""
    if depth == 0:
        return st.sampled_from([p, q, r, Falsity()])
    sub = _formulas(depth - 1)
    return st.one_of(sub, sub.map(Not), st.builds(And, sub, sub),
                     st.builds(Or, sub, sub), st.builds(Imp, sub, sub))


_SIDE = st.lists(_formulas(3), max_size=2)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_SIDE, _SIDE, st.sampled_from(MODES))
def test_every_proof_checks_and_every_countermodel_refutes(gamma, delta,
                                                          mode):
    s = Sequent.of(gamma, delta)
    res = prove_prop(s, SearchBudget(mode=mode))
    if res.proved:
        good, v = check_derivation(res.proof)
        assert good, v
        assert not res.proof.hypotheses and res.proof.target == s
    else:
        assert res.status == "refuted"
        w = res.countermodel
        assert all(v in MODE_VALUES[mode] for v in w.values())
        assert all(designated(evaluate_prop(a, w)) for a in s.ant)
        assert not any(designated(evaluate_prop(a, w)) for a in s.suc)


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


# ---------------------------------------------------------------------------
# the search loop against the reference: the search before it ran as one
# loop, with a generator per subgoal

def _searched(searcher_class, s, budget):
    """(outcome, nodes searched) of one search of s: its derivation,
    None when the search fails, or the bound that ran out.  The
    reference's proof is a node tree, linearized here."""
    searcher = searcher_class(budget)
    try:
        found = searcher.solve(s)
    except _Exhausted as exc:
        return exc.args[0], searcher.nodes
    if searcher_class is ReferenceSearcher and found is not None:
        found = _linearize(found)
    return found, searcher.nodes


@pytest.fixture(scope="module")
def c11_sequents():
    """Every 60th sequent of criterion 11's universe."""
    universe = acceptance._prop_universe(
        PropSpace(("p", "q")), acceptance.SuiteConfig(), "completeness", {})
    return [Sequent.of(gamma, delta) for gamma, delta, _
            in itertools.islice(universe, 0, None, 60)]


@pytest.fixture(scope="module")
def random_sequents():
    """Seeded random sequents over 3 to 5 atoms and F."""
    rng = random.Random(5)
    sequents = []
    for _ in range(200):
        leaves = [Prop(n) for n in "pqrst"[:rng.randint(3, 5)]] + [Falsity()]
        gamma = [random_formula(rng, 3, leaves)
                 for _ in range(rng.randrange(4))]
        delta = [random_formula(rng, 3, leaves)
                 for _ in range(rng.randint(1, 2))]
        sequents.append(Sequent.of(gamma, delta))
    return sequents


# bounds small enough that some searches run out of nodes
BOUNDS = {"default": {}, "nodes": {"max_nodes": 3}}


@pytest.mark.parametrize("mode", MODES)
def test_the_search_loop_equals_the_generator_search(mode, c11_sequents,
                                                     random_sequents):
    """Searched alone, valid or not, each sequent gets the same proof,
    failure or bound, after the same number of nodes; and ``prove_prop``
    the same status, bound, proof and countermodel.  Among the proofs
    are some that cite a step twice and, in the pack modes, some that
    use a pack rule."""
    seen = collections.Counter()
    for bound, limits in BOUNDS.items():
        budget = SearchBudget(mode=mode, **limits)
        for s in c11_sequents + random_sequents:
            want = _searched(ReferenceSearcher, s, budget)
            assert _searched(_Searcher, s, budget) == want, (bound, s)
            seen[want[0] if want[0] in (None, "nodes") else "proof"] += 1
            got, ref = prove_prop(s, budget), reference_prove_prop(s, budget)
            assert ((got.status, got.bound, got.proof, got.countermodel)
                    == (ref.status, ref.bound, ref.proof, ref.countermodel))
            seen[got.status] += 1
            if got.proved:
                cited = collections.Counter(
                    i for step in got.proof.steps for i in step.premises)
                seen["shared"] += max(cited.values(), default=0) > 1
                seen["packs"] += bool(got.proof.packs)
    assert min(seen[k] for k in (None, "nodes", "proof", "proved",
                                 "refuted", "exhausted", "shared")) > 0, seen
    assert (seen["packs"] > 0) == (mode != "base"), seen


# ---------------------------------------------------------------------------
# the prover's output on criterion 11's universe, pinned


def _prover_output_digest(step=10) -> str:
    """SHA-256 over the sequent, status, bound, countermodel and printed
    proof of every ``step``-th sequent of criterion 11's seed-0 universe,
    in each mode."""
    universe = acceptance._prop_universe(
        PropSpace(("p", "q")), acceptance.SuiteConfig(), "completeness", {})
    digest = hashlib.sha256()
    for gamma, delta, _ in itertools.islice(universe, 0, None, step):
        s = Sequent.of(gamma, delta)
        for mode in MODES:
            res = prove_prop(s, SearchBudget(mode=mode))
            cm = (None if res.countermodel is None
                  else sorted((k, str(v)) for k, v in res.countermodel.items()))
            proof = None if res.proof is None else print_derivation(res.proof)
            digest.update(repr((str(s), mode, res.status, res.bound, cm,
                                proof)).encode())
    return digest.hexdigest()


# taken before the search ran in one loop frame per node
PROVER_OUTPUT_C11_EVERY_10TH = (
    "864eb25ae7e111766d36582fa05d3852e5230cc7ee4a4c0c6f71e2cc4263dc1b")


def test_prover_output_on_criterion_11s_universe_is_pinned():
    assert _prover_output_digest() == PROVER_OUTPUT_C11_EVERY_10TH
