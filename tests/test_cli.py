"""The command line run in subprocesses: output that does not depend on
the hash seed, and exit code 2 with a one-line error on bad input."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

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
