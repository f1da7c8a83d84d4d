"""Tests of the benchmark's own parts.

    python3 -m pytest -q bench/selftest.py

The file is named so that a plain ``pytest`` run of the repository
does not collect it.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layertrace as T  # noqa: E402
import reference as R  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

from bd4.parser import parse_sequent  # noqa: E402
from bd4.semantics import consequence_prop  # noqa: E402
import bd4.search as search  # noqa: E402

P, Q = ("atom", "p"), ("atom", "q")


def test_reference_reproduces_criterion_5_witnesses():
    assert R.consequence([P, ("not", P)], [Q]) == (False, {"p": "b", "q": "n"})
    assert R.consequence([], [("or", P, ("not", P))]) == (False, {"p": "n"})
    assert R.consequence([P], [("or", P, ("not", P))]) == (True, None)


def test_reference_agrees_with_the_program_on_generated_sequents():
    for q in itertools.islice(W.prop_queries(11), 200):
        s = parse_sequent(q.text, W.PROP_SIG)
        holds, witness = consequence_prop(s.ant, s.suc)
        want_holds, want_witness = R.consequence(q.ant, q.suc)
        assert holds == want_holds
        if not holds:
            assert {a: v.name.lower() for a, v in witness.items()} == \
                want_witness


def test_generators_are_deterministic_per_seed():
    for stream in (W.prop_queries, W.fo_queries):
        first = list(itertools.islice(stream(5), 60))
        assert first == list(itertools.islice(stream(5), 60))
        assert first != list(itertools.islice(stream(6), 60))


def test_fo_sweep_bound_holds_for_every_query():
    for seed in range(3):
        for i, q in enumerate(itertools.islice(W.fo_queries(seed), 720)):
            low, high = W.FO_BANDS[W.fo_band(i)]
            assert low < q.work <= high
            assert 0 < q.sweep <= W.SWEEP_BOUND


def test_valid_shares_are_printed_and_outputs_check():
    for name in ("prop-prove", "fo-entails"):
        r = run.drive_queries(W, name, 1, 150)
        share = r.valid / len(r.lats)
        print("%s: %.0f%% of %d queries valid" % (name, 100 * share,
                                                   len(r.lats)))
        assert not r.errors
        assert 0.2 < share < 0.8


def test_pinned_outputs_of_the_default_seed():
    for name in ("prop-prove", "fo-entails"):
        r = run.drive_queries(W, name, W.DEFAULT_SEED, W.PINNED_OPS)
        run.check_pins(W, name, W.DEFAULT_SEED, r)
        assert not r.errors
    pinned = json.loads(run.PINNED.read_text())
    assert all(len(pinned[n]) == W.PINNED_OPS
               for n in ("prop-prove", "fo-entails"))
    blocks = run.PINNED_REPORT.read_text().rstrip("\n").split("\n\n")
    statuses = tuple(b.split("\n")[2].split("=")[1] for b in blocks)
    assert statuses == W.REPORT_STATUSES


def test_trace_tolerates_missing_hooks_and_restores_originals():
    original = search.prove_prop
    hooks = (T.Hook("bd4.semantics", "no_such_oracle", "semantics.prop"),
             T.Hook("bd4.semantics", "NoSuchSpace.mask",
                    "semantics.propspace"),
             T.Hook("bd4.nonexistent", "f", "parser"),
             T.Hook("bd4.search", "prove_prop", "search", after=T._search))
    tr = T.Tracer(hooks)
    tr.install()
    try:
        search.prove_prop(parse_sequent("p => p | q", W.PROP_SIG))
    finally:
        tr.uninstall()
    assert search.prove_prop is original
    assert tr.missing == {"bd4.semantics.no_such_oracle",
                          "bd4.semantics.NoSuchSpace.mask",
                          "bd4.nonexistent.f"}
    m = tr.metrics()
    assert m["semantics.prop.calls"] == 0
    assert m["semantics.prop.valuations"] == 0
    assert m["parser.calls"] == 0
    assert m["search.calls"] == 1 and m["search.proved"] == 1
    assert {"semantics.prop.calls", "semantics.prop.valuations",
            "parser.calls"} <= set(tr.unmeasured)
    assert "search.proved" not in tr.unmeasured


def test_a_failing_count_is_unmeasured_and_the_call_goes_on():
    def stale(tracer, bound, result):
        raise AttributeError("result lost a field")

    tr = T.Tracer((T.Hook("bd4.search", "prove_prop", "search",
                          after=stale),))
    tr.install()
    try:
        result = search.prove_prop(parse_sequent("p => p", W.PROP_SIG))
    finally:
        tr.uninstall()
    assert result.proved
    assert tr.broken == {"bd4.search.prove_prop"}
    m = tr.metrics()
    assert m["search.calls"] == 1 and m["search.proved"] == 0
    assert "search.proved" in tr.unmeasured


def test_runs_are_whole_blocks_sized_by_seconds():
    for name in ("prop-prove", "fo-entails"):
        ops = run.run_ops(W, name, 10)
        assert ops % W.BLOCKS[name] == 0
        assert abs(ops - 10 * run.RATES[name]) <= W.BLOCKS[name] / 2
        assert run.run_ops(W, name, 0.01) >= W.PINNED_OPS


def test_spans_are_timed_with_the_given_clock():
    ticks = itertools.count()
    tr = T.Tracer(now=lambda: float(next(ticks)))
    tr.install()
    try:
        W.prop_op(next(W.prop_queries(0)))
    finally:
        tr.uninstall()
    # a span reads the clock twice, and its children's ticks leave it: a
    # leaf span has one tick of self time
    assert tr.calls["semantics.prop"] == 1
    assert tr.self_s["semantics.prop"] == 1.0
    assert all(v == int(v) >= 1 for v in tr.self_s.values())


def test_child_spans_leave_their_parent():
    tr = T.Tracer()
    tr.install()
    try:
        for q in itertools.islice(W.prop_queries(2), 40):
            W.prop_op(q)
    finally:
        tr.uninstall()
    layers = tr.layer_table()
    search_incl = layers["search"]["incl_s"]
    parts = layers["search"]["self_s"] + layers["semantics.prop"]["incl_s"]
    assert abs(search_incl - parts) < 1e-3 * max(1.0, search_incl)
    m = tr.metrics()
    assert m["search.calls"] == 40 == m["semantics.prop.calls"]
    assert m["kernel.calls"] == m["search.proved"]
    # every metric is a number; layers off the path read 0
    assert all(isinstance(m[k], (int, float)) for k, _ in T.METRICS)
    assert m["matrixlab.self_s"] == 0 == m["report.c01_s"]
    assert tr.unmeasured == []


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == list(T.METRICS)
    r = run.drive_queries(W, "prop-prove", 0, 10)
    e2e = run.end_to_end("prop-prove", r, [0.1])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, u) for k, (_, u) in e2e.items()]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "prop-prove",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
