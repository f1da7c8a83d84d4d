"""The command line, run in subprocesses and in process through
``cli.main``: output that does not depend on the hash seed, and exit
code 2 with a one-line error on bad input."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bd4 import cli, proofio
from bd4.acceptance import report_all
from bd4.parser import MAX_DEPTH

SRC = str(Path(__file__).resolve().parents[1] / "src")


def bd4(*args, hashseed="0"):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
    return subprocess.run([sys.executable, "-m", "bd4.cli", *args],
                          capture_output=True, text=True, env=env)


SHARED_LITERALS = """\
proved (1 steps)
packs: base
0: Id principal="p" |- p; q => p; q
"""

SPLIT = """\
proved (4 steps)
packs: base
0: Id principal="r" |- r => p; q; r
1: Id principal="p" |- p; q => p; q; r
2: and-L premises=[1] principal="q & p" |- q & p => p; q; r
3: or-L premises=[0, 2] principal="r | q & p" |- r | q & p => p; q; r
"""


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_prove_output_is_the_same_under_every_hash_seed(hashseed):
    out = bd4("prove", "p; q => p; q", hashseed=hashseed)
    assert (out.returncode, out.stdout) == (0, SHARED_LITERALS)
    out = bd4("prove", "r | (q & p) => p; q; r", hashseed=hashseed)
    assert (out.returncode, out.stdout) == (0, SPLIT)


CHAIN = "p" + "".join(" & q" if i % 2 else " | p" for i in range(1199))

DEEP = {
    "parentheses": ("eval", "(" * 200 + "p" + ")" * 200),
    "chain-eval": ("eval", "--val", "p=b,q=n", CHAIN),
    "chain-entails": ("entails", CHAIN, "p"),
    "negations": ("prove", "~" * 600 + "p => p"),
}


@pytest.mark.parametrize("name", list(DEEP))
def test_deep_input_is_a_parse_error(name):
    out = bd4(*DEEP[name])
    assert out.returncode == 2
    assert out.stderr.startswith("error: nested deeper than %d" % MAX_DEPTH)
    assert out.stderr.count("\n") == 1


def test_formula_at_the_depth_bound_is_proved():
    deep = "~" * MAX_DEPTH + "p"
    out = bd4("prove", "%s => %s" % (deep, deep))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("proved (%d steps)\n" % (MAX_DEPTH + 1))


@pytest.mark.parametrize("flag", ["--max-nodes"])
def test_exhausted_search_names_the_bound_that_ran_out(flag):
    out = bd4("prove", "p & q & r => p", flag, "1")
    assert out.returncode == 2
    assert out.stderr == "error: search budget exhausted; raise %s\n" % flag


def _balanced(atoms):
    if len(atoms) == 1:
        return atoms[0]
    half = len(atoms) // 2
    return "(%s & %s)" % (_balanced(atoms[:half]), _balanced(atoms[half:]))


def _deep_proof_sequent():
    """Ten bracket-nested 100-atom conjunctions over p, q, r: the proof
    is a chain of about 800 steps, past Python's recursion limit."""
    rng = random.Random(0)
    return "; ".join(_balanced([rng.choice("pqr") for _ in range(100)])
                     for _ in range(10)) + " => p | q"


def test_a_proof_deeper_than_the_recursion_limit_is_printed():
    """At the default budget: the node budget alone bounds the search."""
    out = bd4("prove", _deep_proof_sequent())
    assert out.returncode == 0, out.stderr[-500:]
    assert out.stderr == ""
    assert out.stdout.startswith("proved (")
    steps = int(out.stdout.split("(")[1].split()[0])
    assert steps > 800
    assert out.stdout.count("\n") == steps + 2


FO_SIG_TEXT = """\
const c
const d
func f/1
pred P/1
pred Q/2
prop q
"""

FREE_VARIABLE = """\
entails: no
domain d1 d2
const c = d1
const d = d2
func f d1 -> d1
func f d2 -> d1
pred P d1 = T
pred P d2 = N
eq d1 d1 = T
eq d1 d2 = N
eq d2 d1 = T
eq d2 d2 = T
assignment: x=d2
"""

PARTIAL = """\
domain u d1
bottom u
const c = u
pred P d1 = T
pred P u = N
eq d1 d1 = T
eq d1 u = N
eq u d1 = N
eq u u = N
assignment: y=u
"""

FO_PINS = {
    "total": (("entails", "--max-domain", "2", "c = d -> F, P(f(x))",
               "P(x)"), 1, FREE_VARIABLE, "entails=false\n"),
    "partial": (("countermodel", "--partial", "--max-domain", "3",
                 "exists x. (x = c -> F)", "P(y) | P(c)"),
                0, PARTIAL, "countermodel=true\n"),
    "valid": (("entails", "forall x. P(x)", "P(f(c))"), 0,
              "entails: yes (no countermodel up to domain 3)\n",
              "entails=true\n"),
}


@pytest.fixture
def fo_sig(tmp_path):
    path = tmp_path / "fo.sig"
    path.write_text(FO_SIG_TEXT)
    return str(path)


@pytest.mark.parametrize("name", list(FO_PINS))
def test_first_order_output_is_pinned(name, fo_sig):
    (verb, *args), code, human, lines = FO_PINS[name]
    out = bd4(verb, "--sig", fo_sig, *args)
    assert (out.returncode, out.stdout, out.stderr) == (code, human, "")
    out = bd4("--format", "lines", verb, "--sig", fo_sig, *args)
    assert (out.returncode, out.stdout, out.stderr) == (code, lines, "")


TWO_ELEMENTS = """\
domain d1 d2
const c = d1
const d = d2
pred q = T
pred P d1 = T
pred P d2 = N
eq d1 d1 = T
eq d1 d2 = F
eq d2 d1 = F
eq d2 d2 = T
assignment: x=d2
"""

# per question: its arguments after the verb ("SIG" for the signature
# file), then per verb its exit code, human output and lines output
VERB_PINS = {
    "prop-holds": (("p & q", "q, r"), {
        "entails": (0, "entails: yes\n", "entails=true\n"),
        "countermodel": (1, "no countermodel\n", "countermodel=false\n")}),
    "prop-fails": (("p | q, ~r", "p & r"), {
        "entails": (1, "entails: no\nwitness: p=t,q=t,r=f\n",
                    "entails=false witness=p=t,q=t,r=f\n"),
        "countermodel": (0, "countermodel: p=t,q=t,r=f\n",
                         "countermodel=true witness=p=t,q=t,r=f\n")}),
    "fo-holds": (("--sig", "SIG", "forall x. P(x)", "P(f(c))"), {
        "entails": (0, "entails: yes (no countermodel up to domain 3)\n",
                    "entails=true\n"),
        "countermodel": (1, "no countermodel up to domain 3\n",
                         "countermodel=false\n")}),
    "fo-fails": (("--sig", "SIG", "--max-domain", "2", "P(c), q",
                  "P(x) | P(d)"), {
        "entails": (1, "entails: no\n" + TWO_ELEMENTS, "entails=false\n"),
        "countermodel": (0, TWO_ELEMENTS, "countermodel=true\n")}),
}


@pytest.mark.parametrize("verb", ["entails", "countermodel"])
@pytest.mark.parametrize("name", list(VERB_PINS))
def test_entails_and_countermodel_output_is_pinned(name, verb, fo_sig,
                                                   capsys):
    args, pins = VERB_PINS[name]
    args = [fo_sig if x == "SIG" else x for x in args]
    code, human, lines = pins[verb]
    for fmt, want in (("human", human), ("lines", lines)):
        assert cli.main(["--format", fmt, verb, *args]) == code
        assert capsys.readouterr() == (want, "")


@pytest.mark.parametrize("args", [("--max-domain", "0"),
                                  ("--max-domain", "-3"),
                                  ("--partial", "--max-domain", "1")])
def test_a_domain_bound_that_admits_no_structure_is_an_error(args, fo_sig):
    out = bd4("entails", "--sig", fo_sig, *args, "P(c)", "~P(c)")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: domain bound ")
    assert out.stderr.count("\n") == 1


def test_a_valid_sequent_past_the_scan_bound_is_an_error():
    atoms = ["a%02d" % i for i in range(14)]
    out = bd4("entails", " & ".join(atoms), atoms[0])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: no answer after ")
    assert out.stderr.count("\n") == 1


def test_a_first_order_sweep_past_the_column_bound_is_an_error(fo_sig):
    atoms = ["P(x%d)" % i for i in range(14)]
    out = bd4("entails", "--sig", fo_sig, " & ".join(atoms), atoms[0])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: no answer after ")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize("args", [
    ("define", "clone", "--arity", "-1"),
    ("prove", "--packs", "lp", "--max-nodes", "0", "p => p"),
    ("prove", "--max-nodes", "0", "p => p"),
    ("prove", "--max-nodes", "-3", "p => p"),
    ("define", "synth", "Des", "--depth", "-1"),
    ("report", "--rule-instances", "-5", "--random-instances", "-3",
     "--max-nodes", "0"),
    ("report", "--rule-instances", "0"),
    ("report", "--random-instances", "-1"),
    ("report", "--max-nodes", "0"),
])
def test_a_bound_out_of_range_is_a_usage_error(args, capsys):
    assert cli.main(list(args)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert out.err.count("\n") == 1


REPORT_BOUNDS = {"--rule-instances": 100_000, "--random-instances": 1_000_000,
                 "--max-nodes": 10_000_000}


class _SuiteRan(Exception):
    pass


def _no_suite(config):
    raise _SuiteRan(config)


@pytest.mark.parametrize("flag", sorted(REPORT_BOUNDS))
def test_a_report_count_past_its_bound_is_refused_before_any_suite(
        flag, monkeypatch, capsys):
    bound = REPORT_BOUNDS[flag]
    monkeypatch.setattr(cli, "report_all", _no_suite)
    for count in (str(bound + 1), "9" * 3000):
        assert cli.main(["report", flag, count]) == 2
        assert capsys.readouterr() == (
            "", "error: %s must be from 1 to %d\n" % (flag, bound))
    with pytest.raises(_SuiteRan) as ran:  # the bound itself is admitted
        cli.main(["report", flag, str(bound)])
    assert getattr(ran.value.args[0], flag[2:].replace("-", "_")) == bound


@pytest.mark.parametrize("argv, head", [
    (["--seed", "x" * 5000, "eval", "p"],
     "bd4: error: argument --seed: invalid int value: 'xxx"),
    (["report", "--drop-law", "z\u00e9" * 2000],
     "bd4 report: error: argument --drop-law: invalid int value: 'z\u00e9"),
], ids=["seed", "report-drop-law"])
def test_a_long_usage_error_is_clipped_to_one_short_line(argv, head,
                                                         capsys):
    """Uncut, the seed's error line would run to 5,050 bytes."""
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("usage: bd4")
    last = out.err.splitlines()[-1]
    assert last.startswith(head) and last.endswith(" [clipped]")
    assert 196 <= len(last.encode()) <= 199


@pytest.mark.parametrize("argv, env, message", [
    (("eval", "p"), "abc", "argument --seed: invalid int value: 'abc'"),
    (("report", "--drop-law", "16"), None,
     "report --drop-law needs a law number from 1 to 15"),
    (("report", "--drop-law", "7", "--drop-law", "0"), None,
     "report --drop-law needs a law number from 1 to 15"),
    (("laws", "drop", "16"), None,
     "laws drop needs a law number from 1 to 15"),
], ids=["seed-abc", "report-law-16", "report-law-0", "laws-drop-16"])
def test_a_bad_seed_or_law_number_is_a_usage_error(argv, env, message,
                                                   monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("BD4_SEED", raising=False)
    else:
        monkeypatch.setenv("BD4_SEED", env)
    with pytest.raises(SystemExit) as exit_:
        cli.main(list(argv))
    assert exit_.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith("bd4: error: %s\n" % message)


def test_the_nullary_clone_holds_the_two_constants(capsys):
    assert cli.main(["define", "clone", "--arity", "0"]) == 0
    assert capsys.readouterr().out == "clone size at arity 0: 2\n  t\n  f\n"


@pytest.mark.parametrize("arity", ["2", "3", "12", "1000000000"])
def test_a_clone_past_the_work_bound_is_an_error(arity, capsys):
    assert cli.main(["define", "clone", "--arity", arity]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: clone closure at arity %s needs more than "
                       "400000 table cells of work\n" % arity)


def test_synthesis_at_depth_zero_searches_the_atoms_alone(capsys):
    assert cli.main(["define", "synth", "Des", "--depth", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == "no defining formula up to 0 connectives\n"
    assert out.err == ""


# the uniqueness sweep's verbs, pinned as they printed before the sweep
# was rebuilt from per-cell value sets; the file maps each argv, format
# first, to the exit code and stdout, with the human report's seconds
# masked
LAWS_PINS = Path(__file__).resolve().parent / "laws_cli_pins.json"
LAWS_ARGVS = [("laws", "uniqueness")] + [("laws", "drop", str(law))
                                         for law in range(1, 16)]
DROPPED_REPORT = ("report", "--drop-law", "7", "--drop-law", "8")


def _main(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _untimed(text: str) -> str:
    return re.sub(r"(?m)^(criterion-\d+ \w+) +\d+\.\d+s ", r"\1 ", text)


def _pinned_runs() -> dict:
    """Each pinned argv in both formats, keyed as in ``LAWS_PINS``; the
    two report runs share one run of the suites."""
    runs, configs = {}, []

    def once(config):
        configs.append(config)
        if len(configs) == 1:
            runs["results"] = report_all(config)
        return runs["results"]

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "report_all", once)
        for argv in LAWS_ARGVS + [DROPPED_REPORT]:
            for fmt in ("human", "lines"):
                key = " ".join(("--format", fmt) + argv)
                code, stdout, stderr = _main(key.split())
                assert stderr == ""
                out[key] = [code, _untimed(stdout)]
    assert len(configs) == 2 and configs[0] == configs[1]
    return out


def test_the_laws_verbs_and_a_dropped_law_report_are_pinned():
    runs = _pinned_runs()
    pins = json.loads(LAWS_PINS.read_text(encoding="utf-8"))
    assert len(pins) == 2 * len(LAWS_ARGVS) + 2
    for key, want in pins.items():
        assert runs[key] == want, key


NOT_UTF8 = b"const c\npred P/1\n\xff\xfe\n"


@pytest.mark.parametrize("argv", [
    ("check", "BAD"),
    ("check", "SIG", "--sig", "BAD"),
    ("entails", "--sig", "BAD", "P(c)", "P(c)"),
    ("countermodel", "--sig", "BAD", "P(c)", "P(c)"),
    ("simulate", "--mode", "lp", "--sig", "BAD", "p", "p"),
    ("eval", "--sig", "BAD", "P(c)"),
    ("eval", "--sig", "SIG", "--structure", "BAD", "P(c)"),
], ids=" ".join)
def test_a_file_that_is_not_utf8_is_an_error(argv, fo_sig, tmp_path,
                                             capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    argv = [{"BAD": str(bad), "SIG": fo_sig}.get(x, x) for x in argv]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: %s is not UTF-8 text: invalid start byte "
                       "at byte 17\n" % bad)


# per signature line: the atom that uses it, and the exponent of ten
# its two-element structures number
HUGE = [
    ("pred P/12", "P(%s)" % ",".join("c" * 12), "2466"),
    ("pred P/16", "P(%s)" % ",".join("c" * 16), "39456"),
    ("pred P/24", "P(%s)" % ",".join("c" * 24), "10100890"),
    ("pred P/40", "P(%s)" % ",".join("c" * 40), "661971961084"),
    ("func f/30", "R(f(%s))" % ",".join("c" * 30), "323228498"),
]


@pytest.mark.parametrize("decl,atom,exponent", HUGE,
                         ids=[row[0] for row in HUGE])
def test_a_structure_count_past_reading_is_refused_unbuilt(decl, atom,
                                                           exponent, tmp_path,
                                                           capsys):
    """Each size's count comes from the arities, so the two-element
    structures are refused before a digit of them is laid out."""
    sig = tmp_path / "huge.sig"
    sig.write_text("const c\npred R/1\n%s\n" % decl)
    tracemalloc.start()
    try:
        code = cli.main(["entails", "--sig", str(sig), atom, atom])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == ("error: would enumerate at least about 10^%s "
                       "structures (cap 10000000)\n" % exponent)
    assert len(out.err.encode()) < 200
    assert peak < 1 << 20


# queries whose structures are few but whose domains or grounded
# quantifiers are not, with the elements and items they would need
UNGROUNDED = [
    (("--max-domain", "1000000", "F", "F"), "500000500000", "2000000"),
    (("--max-domain", "400", "forall x. forall y. forall z. F", "F"),
     "80200", "21413400"),
    (("--max-domain", "1" + "0" * 3000, "F", "F"),
     "about 10^5999", "about 10^3000"),
]


@pytest.mark.parametrize("args,elements,items", UNGROUNDED,
                         ids=["elements", "grounding", "huge-bound"])
def test_a_sweep_past_the_cap_in_elements_or_grounding_is_refused(
        args, elements, items, tmp_path, capsys):
    """The domain elements and grounded code of every size are counted
    in closed form before the first size is laid out."""
    sig = tmp_path / "p.sig"
    sig.write_text("pred P/1\n")
    tracemalloc.start()
    try:
        code = cli.main(["entails", "--sig", str(sig), *args])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == ("error: would lay out %s domain elements and ground "
                       "at least %s formula items (cap 10000000)\n"
                       % (elements, items))
    assert len(out.err.encode()) < 200
    assert peak < 1 << 20


# the two hostile structure files: a domain whose equality cells pass
# the bound, and 300 elements under which four quantifiers pass the
# grounding bound (two take about 0.3 s)
WIDE = "domain %s\npred q = T\n" % " ".join("e%d" % i for i in range(20000))
BIG = "domain %s\n%s" % (" ".join("e%d" % i for i in range(300)),
                         "".join("pred P e%d = T\n" % i for i in range(300)))


def _traced_main(argv) -> tuple:
    """``_main`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        code, out, err = _main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, out, err, peak


def test_a_domain_past_the_equality_cell_bound_is_refused(tmp_path):
    (tmp_path / "q.sig").write_text("prop q\n")
    (tmp_path / "wide.struct").write_text(WIDE)
    code, out, err, peak = _traced_main([
        "eval", "--sig", str(tmp_path / "q.sig"),
        "--structure", str(tmp_path / "wide.struct"), "q"])
    assert (code, out) == (2, "")
    assert err == ("error: line 1: a domain of 20000 elements has more "
                   "than 1000000 equality cells\n")
    assert peak < 8 << 20


def test_the_equality_cell_bound_admits_a_domain_that_meets_it(
        tmp_path, monkeypatch):
    monkeypatch.setattr(proofio, "MAX_EQ_CELLS", 9)
    sig = proofio.parse_signature("prop q\n")
    assert len(proofio.parse_structure(
        "domain a b c\npred q = T\n", sig).eq) == 9
    with pytest.raises(proofio.ProofIOError,
                       match="4 elements has more than 9 equality cells"):
        proofio.parse_structure("domain a b c d\npred q = T\n", sig)


@pytest.mark.parametrize("quantifiers", [3, 4])
def test_a_formula_past_the_grounding_bound_is_refused(quantifiers,
                                                       tmp_path):
    (tmp_path / "p1.sig").write_text("pred P/1\n")
    (tmp_path / "big.struct").write_text(BIG)
    formula = "".join("forall %s. " % v for v in "xyzw"[:quantifiers])
    code, out, err, peak = _traced_main([
        "eval", "--sig", str(tmp_path / "p1.sig"),
        "--structure", str(tmp_path / "big.struct"), formula + "P(x)"])
    assert (code, out) == (2, "")
    assert err == ("error: over 300 elements the formula grounds to at "
                   "least 27000000 items, more than 1000000\n")
    assert peak < 32 << 20


def test_the_grounding_bound_admits_a_formula_that_meets_it(
        tmp_path, monkeypatch):
    """forall x. forall y. P(x) grounds to 3 P atoms for each of the 3
    values of x, 2 joins for each x and 2 joins of the x copies, plus
    the 3 copies of each inner quantifier: 9 + 6 + 2 = 17 items."""
    (tmp_path / "p1.sig").write_text("pred P/1\n")
    (tmp_path / "three.struct").write_text(
        "domain a b c\npred P a = T\npred P b = B\npred P c = T\n")
    argv = ["eval", "--sig", str(tmp_path / "p1.sig"), "--structure",
            str(tmp_path / "three.struct"), "forall x. forall y. P(x)"]
    monkeypatch.setattr(cli, "MAX_EVAL_ITEMS", 17)
    assert _main(argv) == (0, "value: b\n", "")
    monkeypatch.setattr(cli, "MAX_EVAL_ITEMS", 16)
    assert _main(argv) == (2, "", "error: over 3 elements the formula "
                           "grounds to at least 17 items, more than 16\n")


@pytest.mark.parametrize("sig, argv, head, size", [
    ("pred P/1\n",
     ["prove", "--sig", "S", "=> " + "forall x. " * 99 + "P(x)"],
     "error: not a propositional formula: forall x. forall x. ", (196, 200)),
    ("prop p\n" + "zzz " * 20_000 + "\n",
     ["entails", "--sig", "S", "p", "p"],
     "error: line 2: unrecognized declaration 'zzz zzz ", (113, 113)),
    ("prop p\n" + "z\u00e9z " * 20_000 + "\n",
     ["entails", "--sig", "S", "p", "p"],
     "error: line 2: unrecognized declaration 'z\u00e9z z\u00e9z ", (128, 128)),
    ("", ["eval", "--val", "p=" + "zzz" * 20_000, "p"],
     "error: unknown truth value 'zzzzzz", (196, 200)),
    ("", ["eval", "--val", "p=" + "z\u00e9z" * 20_000, "p"],
     "error: unknown truth value 'z\u00e9zz\u00e9z", (196, 200)),
], ids=["quantifiers", "declaration", "two-byte-characters", "truth-value",
        "truth-value-two-byte-characters"])
def test_a_long_error_is_clipped_to_one_short_line(sig, argv, head, size,
                                                   tmp_path):
    """Uncut, the first line would run to 1,031 bytes and the last two to
    60,047 and 80,047.  ``proofio`` quotes the two bad declarations, of
    80,042 and 100,042 bytes when quoted whole, by their first 60
    characters itself, with the same marker."""
    (tmp_path / "S").write_text(sig, encoding="utf-8")
    code, out, err = _main([str(tmp_path / a) if a == "S" else a
                            for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(head) and err.endswith(" [clipped]\n")
    assert err.count("\n") == 1
    assert size[0] <= len(err.encode()) <= size[1]


def test_prove_refuses_a_valid_sequent_that_needs_an_extra_connective(
        tmp_path):
    sig = tmp_path / "S"
    sig.write_text("conn Des\nprop q\n")
    assert _main(["prove", "--sig", str(sig), "q => Des(q)"]) == (
        2, "", "error: no sequent rule proves |- q => Des q, though it "
        "holds\n")


PAST_CAP_VALID = " & ".join("p%d" % i for i in range(14)) + " => p0"
PAST_CAP_INVALID = ("~a00; a00 -> F; "
                    + " & ".join("a%02d" % i for i in range(1, 14)) + " => F")


def test_prove_past_the_oracle_cap_answers_with_a_proof_the_search_finds(
        tmp_path):
    """Fourteen atoms take the oracle past its scan cap, but the search
    proves the sequent in fourteen steps, and the kernel accepts them."""
    drv = tmp_path / "proof.drv"
    code, out, err = _main(["prove", "--emit", str(drv), PAST_CAP_VALID])
    assert (code, err) == (0, "")
    assert out.startswith("proved (14 steps)\npacks: base\n")
    assert _main(["check", str(drv)]) == (
        0, "ok: 14 steps, target |- %s\n" % PAST_CAP_VALID, "")


@pytest.mark.parametrize("argv", [[PAST_CAP_INVALID],
                                  ["--max-nodes", "5", PAST_CAP_VALID]],
                         ids=["no-proof", "budget"])
def test_prove_past_the_oracle_cap_without_a_proof_is_still_refused(argv):
    """The oracle gives up on a sequent over fourteen atoms, and the
    search finds no proof (the sequent is refutable) or runs out of
    budget, so the cap's error stands."""
    assert _main(["prove", *argv]) == (
        2, "", "error: no answer after 67174400 columns (cap 67108864)\n")


DEEP_PAST_CAP_VALID = "; ".join(
    " & ".join("a%d_%d" % (i, j) for j in range(90)) for i in range(3)
) + " => a2_0"


def test_a_proof_past_the_oracle_cap_deeper_than_200_is_found(tmp_path):
    """Three 90-atom conjunction chains: the oracle gives up at its cap,
    and the search, bounded by its node budget alone, proves the sequent
    in a chain of decompositions more than 200 deep."""
    drv = tmp_path / "proof.drv"
    code, out, err = _main(["prove", "--emit", str(drv),
                            DEEP_PAST_CAP_VALID])
    assert (code, err) == (0, "")
    assert out.startswith("proved (268 steps)\npacks: base\n")
    assert _main(["--format", "lines", "check", str(drv)]) == (
        0, "ok=true steps=268\n", "")


def test_a_node_budget_out_of_range_names_the_option(capsys):
    assert cli.main(["prove", "--max-nodes", "0", "p => p"]) == 2
    assert capsys.readouterr().err == (
        "error: --max-nodes must be positive\n")


def test_prove_emit_writes_the_printed_derivation(tmp_path):
    drv = tmp_path / "proof.drv"
    code, out, err = _main(["prove", "--emit", str(drv),
                            "r | (q & p) => p; q; r"])
    assert (code, out, err) == (0, SPLIT, "")
    assert drv.read_bytes() == SPLIT.split("\n", 1)[1].encode()
    assert _main(["--format", "lines", "check", str(drv)]) == (
        0, "ok=true steps=4\n", "")
    nowhere = tmp_path / "missing" / "proof.drv"
    code, out, err = _main(["prove", "--emit", str(nowhere), "p => p"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(nowhere) in err


def test_report_out_writes_what_it_prints(tmp_path):
    report = tmp_path / "report.txt"
    code, out, err = _main([
        "--format", "lines", "report", "--rule-instances", "1",
        "--random-instances", "1", "--max-nodes", "1", "--out",
        str(report)])
    assert (code, err) == (1, "")  # criterion 4 stays red
    assert report.read_text() == out
    statuses = dict(re.findall(r"criterion=(\d+)\nname=\S+\nstatus=(\w+)",
                               out))
    assert sorted(n for n, st in statuses.items() if st == "skipped") == [
        "10", "11", "12", "6"]
    assert len(statuses) == 12


def test_atoms_name_the_table_rows(capsys):
    code, out, err = _main(["eval", "--atoms", "p q", "p & q"])
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert len(rows) == 16
    assert rows[0] == "p=t q=t : t" and rows[-1] == "p=f q=f : f"
    assert _main(["eval", "--atoms", "p,q", "p & q"]) == (
        2, "", "error: bad symbol name: 'p,q'\n")


# ---------------------------------------------------------------------------
# fuzzed argv over the verbs that read signature, structure and
# derivation files, and over the counts, law numbers, arities and depths
# that the other verbs refuse

_ARITY = st.integers(0, 2) | st.integers(0, 64)
_SOUP = st.lists(st.sampled_from((
    "(", ")", ",", "~", "&", "|", "->", "=", "=>", ";", "forall", "x.",
    "p", "q", "c", "P", "F", "T", "Des")), max_size=8).map(" ".join)


def _applied(name, arity, args):
    return "%s(%s)" % (name, ", ".join(args)) if arity else name


@st.composite
def _inputs(draw):
    """A signature file, and strategies for a formula and a formula list
    over its symbols.  The arities go up to 64; one file in four carries
    a line that is no declaration or is random bytes, and one formula in
    five is a soup of tokens."""
    arity = {name: draw(_ARITY) for name in "fPQ"}
    decls = {"f": "func f/%d" % arity["f"], "P": "pred P/%d" % arity["P"],
             "Q": "pred Q/%d" % arity["Q"], "q": "prop q", "Des": "conn Des"}
    names = {"c"} | set(draw(st.lists(st.sampled_from(sorted(decls)))))
    sig = "const c\n" + "".join(decls[n] + "\n" for n in sorted(decls)
                                if n in names)
    broken = draw(st.integers(0, 7))
    if broken == 0:
        sig += draw(st.text(max_size=12))
    elif broken == 1:
        sig = draw(st.binary(max_size=40))
    terms = ["c", "x"]
    if "f" in names:
        terms.append(_applied("f", arity["f"], ["c"] * arity["f"]))
    atoms = ["F", "c = x"]
    if "q" in names:
        atoms += ["q", "Des(q)"] if "Des" in names else ["q"]
    atom = st.one_of(st.sampled_from(atoms), *[
        st.lists(st.sampled_from(terms), min_size=arity[name],
                 max_size=arity[name]).map(
            lambda args, name=name: _applied(name, arity[name], args))
        for name in sorted(names & {"P", "Q"})])
    formula = st.recursive(atom, lambda fs: st.one_of(
        fs.map("~{}".format), st.builds("({} & {})".format, fs, fs),
        st.builds("({} | {})".format, fs, fs),
        st.builds("({} -> {})".format, fs, fs),
        fs.map("forall x. {}".format), fs.map("exists x. {}".format)),
        max_leaves=4)
    side = st.lists(formula, max_size=2).map(", ".join)
    return (sig, st.one_of(*[formula] * 4, _SOUP),
            st.one_of(*[side] * 4, _SOUP))


_STRUCTURE = st.one_of(
    st.sampled_from((WIDE, BIG, "domain a b\npred P a = T\npred P b = N\n"
                     "const c = a\nprop q = B\n")),
    st.text(max_size=40), st.binary(max_size=40))
_DERIVATION = st.one_of(
    st.just(SPLIT.split("\n", 1)[1]), st.text(max_size=60),
    st.binary(max_size=60))


_DIGITS = st.sampled_from(("1" * 3000, "9" * 5000))
_REFUSED_LAW = st.one_of(st.integers(max_value=0),
                         st.integers(min_value=16)).map(str) | _DIGITS
_JUNK_SEED = st.one_of(st.text(max_size=12), st.sampled_from((
    "x" * 5000, "9" * 5000, "", "1.5", "0x10", "--", "-")))


def _refused_count(bound):
    return st.one_of(st.integers(max_value=0).map(str),
                     st.integers(min_value=bound + 1).map(str), _DIGITS)


@st.composite
def _refused_argvs(draw):
    """argv for report, laws drop or define clone or synth, with every
    flag value in a range the verb refuses; about half start with a junk
    --seed."""
    seed = ["--seed", draw(_JUNK_SEED)] if draw(st.booleans()) else []
    verb = draw(st.sampled_from(("report", "laws", "clone", "synth")))
    if verb == "report":
        argv = ["report"]
        for flag in draw(st.lists(st.sampled_from(sorted(REPORT_BOUNDS)
                                                  + ["--drop-law"]),
                                  min_size=1, max_size=4)):
            argv += [flag, draw(_REFUSED_LAW if flag == "--drop-law"
                                else _refused_count(REPORT_BOUNDS[flag]))]
    elif verb == "laws":
        argv = ["laws", "drop", draw(_REFUSED_LAW)]
    elif verb == "clone":
        argv = ["define", "clone", "--arity", draw(st.one_of(
            st.integers(max_value=-1), st.integers(min_value=12)).map(str)
            | _DIGITS)]
    else:
        argv = ["define", "synth", draw(st.sampled_from(("Des", "Confl"))),
                "--depth", str(draw(st.integers(max_value=-1)))]
    return seed + argv


@st.composite
def _argvs(draw):
    """(argv, {file name: contents}) for one random invocation."""
    verb = draw(st.sampled_from(("eval", "entails", "countermodel", "equiv",
                                 "prove", "check", "simulate")))
    sig, formula, side = draw(_inputs())
    files, argv = {}, [verb]
    if draw(st.integers(0, 2)):
        files["sig"] = sig
        argv += ["--sig", "sig"]
    elif verb != "check" and draw(st.booleans()):
        argv += ["--atoms", draw(st.sampled_from(("p q", "q", "p,q", "")))]
    if verb == "eval":
        if draw(st.booleans()):
            files["struct"] = draw(_STRUCTURE)
            argv += ["--structure", "struct"]
        argv.append(draw(formula))
    elif verb == "check":
        files["drv"] = draw(_DERIVATION)
        argv.append("drv")
    elif verb == "prove":
        argv += ["--packs", draw(st.sampled_from(("base", "lp", "k3", "cl"))),
                 "%s => %s" % (draw(side), draw(side))]
    elif verb == "simulate":
        argv += ["--mode", draw(st.sampled_from(("lp", "k3", "cl"))),
                 draw(side), draw(side)]
    elif verb == "equiv":
        argv += [draw(formula), draw(formula)]
    else:
        argv += ["--max-domain", str(draw(st.integers(0, 2)))]
        if draw(st.booleans()):
            argv.append("--partial")
        argv += [draw(side), draw(side)]
    return argv, files


def _exit_checked(argv) -> int:
    """main's exit code for argv, with no traceback and every stderr line
    under 200 bytes; argparse's errors end its usage with one line, and
    main's own exit 2 prints one ``error:`` line alone."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
            usage = False
        except SystemExit as exc:  # argparse's usage errors
            code, usage = exc.code, True
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    assert all(len(line.encode()) < 200 for line in err.splitlines()), argv
    if usage:
        assert code == 2 and out.getvalue() == "", argv
        assert err.startswith("usage: bd4"), argv
        assert ": error: " in err.splitlines()[-1], argv
    elif code == 2 and err:
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    return code


def test_fuzzed_argv_exits_0_1_or_2_without_a_traceback(tmp_path_factory,
                                                        monkeypatch):
    folder = tmp_path_factory.mktemp("fuzz")
    codes = set()
    monkeypatch.setattr(cli, "report_all", _no_suite)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_argvs())
    def run(case):
        argv, files = case
        for name, body in files.items():
            path = folder / name
            if isinstance(body, bytes):
                path.write_bytes(body)
            else:
                path.write_text(body, encoding="utf-8")
        argv = [str(folder / a) if a in files else a for a in argv]
        codes.add(_exit_checked(argv))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_refused_argvs())
    def run_refused(argv):
        assert _exit_checked(argv) == 2, argv

    run()
    assert codes == {0, 1, 2}
    run_refused()
