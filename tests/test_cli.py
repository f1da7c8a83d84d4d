"""The command line, run in subprocesses and in process through
``cli.main``: output that does not depend on the hash seed, and exit
code 2 with a one-line error on bad input."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bd4 import cli
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


@pytest.mark.parametrize("flag", ["--depth", "--max-nodes"])
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
    out = bd4("prove", "--depth", "100000", _deep_proof_sequent())
    assert out.returncode == 0, out.stderr[-500:]
    assert out.stderr == ""
    assert out.stdout.startswith("proved (")
    steps = int(out.stdout.split("(")[1].split()[0])
    assert steps > 800
    assert out.stdout.count("\n") == steps + 2


def test_the_deep_proof_at_the_default_depth_exhausts_the_budget():
    out = bd4("prove", _deep_proof_sequent())
    assert out.returncode == 2
    assert out.stderr == "error: search budget exhausted; raise --depth\n"


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
    ("prove", "--depth", "0", "p => p"),
    ("prove", "--max-nodes", "0", "p => p"),
    ("prove", "--depth", "-3", "--max-nodes", "-3", "p => p"),
    ("define", "synth", "Des", "--depth", "-1"),
])
def test_a_bound_out_of_range_is_a_usage_error(args, capsys):
    assert cli.main(list(args)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert out.err.count("\n") == 1


def test_the_nullary_clone_holds_the_two_constants(capsys):
    assert cli.main(["define", "clone", "--arity", "0"]) == 0
    assert capsys.readouterr().out == "clone size at arity 0: 2\n  t\n  f\n"


def test_synthesis_at_depth_zero_searches_the_atoms_alone(capsys):
    assert cli.main(["define", "synth", "Des", "--depth", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == "no defining formula up to 0 connectives\n"
    assert out.err == ""
