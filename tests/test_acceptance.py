"""One verdict per reproduction criterion.

Three criteria are asserted red on purpose, with their analyses:
the uniqueness sweep stops at 81 matrices because the fifteen laws
leave the implication rows for b and n antecedents open; =-Repl is
unsound while equality between distinct elements may be designated;
and Den-R is unsound in partial structures while that equality may be
n.  Turning these assertions green would mean the defect was papered
over, so they pin the red status and the repair diagnostics instead.
"""

from pathlib import Path

import pytest

from bd4.acceptance import (
    SuiteConfig, render_report, report_all, run_criterion,
)

PINNED_LINES = (Path(__file__).resolve().parents[1] / "bench"
                / "report_lines_seed0.txt")


@pytest.fixture(scope="module")
def report():
    results = report_all()
    for r in results:
        print(r.line())
    return {r.number: r for r in results}


def test_criterion_01_matrix_fidelity(report):
    r = report[1]
    assert r.ok and r.seconds < 1
    assert r.details["entries"] == 53
    assert r.details["quantifier_entries"] == 30
    assert r.details["mismatches"] == 0


def test_criterion_02_fifteen_laws(report):
    r = report[2]
    assert r.ok and r.seconds < 1
    assert r.details["laws"] == 15
    assert r.details["failed"] == 0
    assert r.details["cases"] == 244


def test_criterion_03_classical_law_failures(report):
    r = report[3]
    assert r.ok and r.seconds < 1
    assert r.details["failing"] == 3
    assert r.details["holding"] == 2
    for i in range(3):
        assert r.details["witness_%d" % i] == "A=B"


def test_criterion_04_uniqueness_sweep_red(report):
    r = report[4]
    assert r.status == "fail"
    assert r.seconds < 160  # the spec bound: 16 sweeps, each under 10s
    assert r.details["candidate_counts_ok"]
    assert r.details["survivors"] == 81
    assert r.details["survivors_modulo_impl"] == 1
    assert r.details["contains_target"]
    assert r.details["drop_any_law_gives_many"]
    drops = {law: r.details["drop_%d" % law] for law in range(1, 16)}
    assert all(n > 1 for n in drops.values())
    assert drops[11] == 162
    assert drops[12] == 576 and drops[13] == 576
    assert drops[14] == 331776 and drops[15] == 331776
    assert "implication" in r.note


def test_criterion_05_regularity_and_witnesses(report):
    r = report[5]
    assert r.ok and r.seconds < 1
    assert r.details["regular"] and r.details["classically_closed"]
    assert r.details["contradiction_entails_all"] is False
    assert r.details["paraconsistency_witness"] == "p=b,q=n"
    assert r.details["lem_from_A"] and r.details["lem_from_notA"]
    assert r.details["lem_outright"] is False
    assert r.details["paracompleteness_witness"] == "p=n"


def test_criterion_06_extension_simulation(report):
    r = report[6]
    assert r.ok and r.seconds < 60
    assert r.details["reps_depth2"] == 148
    assert r.details["failures"] == 0
    assert r.details["checked"] == 110311
    assert r.details["crosschecked"] > 1000


def test_criterion_07_definability(report):
    r = report[7]
    assert r.ok and r.seconds < 10
    assert r.details["unary_clone_size"] == 36
    assert r.details["criterion_set_size"] == 36
    assert r.details["clone_equals_criterion_set"]
    assert not r.details["conflation_in_clone"]
    assert not r.details["cons_in_norm_clone"]


def test_criterion_08_expansion_synonymities(report):
    r = report[8]
    assert r.ok and r.seconds < 1
    assert r.details["failed"] == 0


def test_criterion_09_kernel_corpus(report):
    r = report[9]
    assert r.ok and r.seconds < 5
    assert r.details["derivations"] == 25
    assert r.details["rules_missing"] == 0
    assert r.details["mutations"] == 35
    assert r.details["mutations_misjudged"] == 0


def test_criterion_10_rule_soundness_red(report):
    r = report[10]
    assert r.status == "fail"
    assert r.seconds < 120
    assert r.details["rules_violated"] == "eq-Repl[eq],Den-R[partial]"
    assert r.details["eq_Repl_eq_violations"] > 0
    assert r.details["eq_Repl_eq_repair_violations"] == 0
    assert r.details["Den_R_partial_violations"] > 0
    assert r.details["Den_R_partial_repair_violations"] == 0
    floors = [v for k, v in r.details.items() if k.endswith("_nonvacuous")]
    assert len(floors) == 34 and min(floors) >= 500


def test_criterion_11_prover_completeness(report):
    r = report[11]
    assert r.ok and r.seconds < 300
    assert r.details["disagreements"] == 0
    assert r.details["checked"] == 43437
    assert r.details["proved"] + r.details["refuted"] == r.details["checked"]
    assert "representatives" in r.note


def test_criterion_12_partial_structures_red(report):
    r = report[12]
    assert r.status == "fail"
    assert r.seconds < 10
    assert r.details["self_identity_countermodel"]
    assert r.details["Den_L_violations"] == 0
    assert r.details["Den_R_violations"] > 0
    assert r.details["Den_R_repair_violations"] == 0


def test_tiny_caps_report_skipped_not_shrunk():
    r = run_criterion(10, SuiteConfig(rule_instances=10))
    assert r.status == "skipped" and r.note == "bound"
    r = run_criterion(6, SuiteConfig(random_instances=99))
    assert r.status == "skipped" and r.note == "bound"


def test_report_rendering_is_deterministic(report):
    results = tuple(report[n] for n in sorted(report))
    text = render_report(results, "lines")
    assert text == render_report(results, "lines")
    heads = [l for l in text.splitlines() if l.startswith("criterion=")]
    assert len(heads) == 12
    assert "status=fail" in text and "status=pass" in text
    human = render_report(results)
    assert human.strip().endswith("passed 9 of 12 (0 skipped)")


def test_report_lines_equal_the_pinned_seed_0_report(report):
    """Every criterion detail, red ones included, byte for byte."""
    results = tuple(report[n] for n in sorted(report))
    pinned = PINNED_LINES.read_text(encoding="utf-8")
    assert render_report(results, "lines") == pinned
