"""The bundled corpus checks clean and its mutants are all rejected."""

import pytest

from bd4.corpus_suite import CORPUS_DIR, corpus_signature, load_corpus, mutations
from bd4.kernel import check_derivation, is_proof
from bd4.proofio import parse_derivation, print_derivation

from support import BASE_RULES, PACK_RULES, derives

CORPUS = load_corpus()
SIG = corpus_signature()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_entry_checks_and_round_trips(name):
    d = CORPUS[name]
    good, v = check_derivation(d)
    assert good, v
    printed = print_derivation(d)
    assert parse_derivation(printed, SIG) == d
    assert print_derivation(parse_derivation(printed, SIG)) == printed


def test_corpus_size_and_rule_coverage():
    assert len(CORPUS) >= 12
    used = {s.rule for d in CORPUS.values() for s in d.steps}
    missing = (set(BASE_RULES) | set(PACK_RULES)) - used
    assert not missing, missing


def test_proofs_versus_hypothesis_derivations():
    assert is_proof(CORPUS["conj_commute"])
    # a derivation from declared hypotheses checks but is not a proof
    assert not is_proof(CORPUS["cut_hypothesis"])
    assert check_derivation(CORPUS["cut_hypothesis"])[0]
    tgt = CORPUS["conj_commute"].target
    assert derives(tgt.ant, tgt.suc, CORPUS["conj_commute"])


def test_equality_entry_has_equality_free_companion():
    with_eq = CORPUS["equality_replacement"]
    companion = CORPUS["equality_companion"]
    eq_rules = {"eq-Refl", "eq-Repl"}
    assert eq_rules & {s.rule for s in with_eq.steps}
    assert not eq_rules & {s.rule for s in companion.steps}
    target = with_eq.steps[-1].sequent
    ctarget = companion.steps[-1].sequent
    # companion proves the same sequent plus one congruence axiom premise
    assert ctarget.suc == target.suc
    extra = ctarget.ant - target.ant
    assert len(extra) == 1
    assert target.ant <= ctarget.ant


def test_pack_files_declare_their_packs():
    assert CORPUS["lp_excluded_middle"].packs == frozenset({"notLR"})
    assert CORPUS["den_left"].packs == frozenset({"den"})
    assert CORPUS["conj_commute"].packs == frozenset()


@pytest.mark.parametrize(
    "label,name,build,code",
    mutations(), ids=[row[0].replace(" ", "-") for row in mutations()])
def test_mutant_rejected_with_exact_code(label, name, build, code):
    mutant = build(CORPUS[name])
    good, v = check_derivation(mutant)
    assert not good, "mutant %r was accepted" % label
    assert v.code == code, (v.code, code, v.detail)


def test_mutation_battery_is_large_enough():
    assert len(mutations()) >= 30


def test_corpus_files_live_in_package():
    assert CORPUS_DIR.is_dir()
    assert (CORPUS_DIR / "corpus.sig").is_file()
