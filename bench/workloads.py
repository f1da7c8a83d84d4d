"""Seeded inputs, the timed operations and their checks for each workload.

Each workload is a closed loop with one client: the next operation is
sent only when the previous one has returned.  An operation calls the
``bd4`` API through module attributes looked up at call time, so the
traced run sees every call.  The generators, which parse each
first-order query to size its sweep, and the checks use functions bound
at import, before any tracing; they run outside the timed region, with
the tracer paused.

* ``prop-prove``: ``parse_sequent`` -> ``prove_prop`` -> on a proof
  ``check_derivation`` and ``print_derivation``.
* ``fo-entails``: ``parse_formula_list`` -> ``consequence_fo`` -> on a
  countermodel ``print_structure``.
* ``report``: ``run_criterion(1..12)`` at the nominal ``SuiteConfig``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

import reference
from layertrace import sweep_size

import bd4.acceptance as acceptance
import bd4.kernel as kernel
import bd4.parser as parser
import bd4.proofio as proofio
import bd4.search as search
import bd4.semantics as semantics
from bd4.acceptance import SuiteConfig
from bd4.kernel import is_proof
from bd4.parser import parse_formula_list
from bd4.semantics import evaluate
from bd4.syntax import Signature, prop_signature, subformulas

WORKLOADS = ("prop-prove", "fo-entails", "report")
DEFAULT_SEED = 0
# ops of the default seed's stream whose output is pinned
PINNED_OPS = 100
# statuses of criteria 1..12 at the nominal config, on every seed
REPORT_STATUSES = tuple(
    "fail" if n in (4, 10, 12) else "pass" for n in range(1, 13))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _letter(v) -> str:
    return v.name.lower()


def render_valuation(val: dict) -> str:
    """The CLI's ``p=b,q=n`` rendering of a valuation of letters."""
    return ",".join("%s=%s" % (a, val[a]) for a in sorted(val))


# ---------------------------------------------------------------------------
# prop-prove

PROP_ATOMS = ("p", "q", "r", "s", "u")
PROP_SIG = prop_signature(*PROP_ATOMS)


@dataclass(frozen=True)
class PropQuery:
    text: str
    ant: tuple
    suc: tuple


def _prop_formula(rng: random.Random, atoms, depth: int):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.06:
            return ("F",)
        return ("atom", rng.choice(atoms))
    tag = rng.choice(("not", "and", "or", "imp"))
    if tag == "not":
        return ("not", _prop_formula(rng, atoms, depth - 1))
    return (tag, _prop_formula(rng, atoms, depth - 1),
            _prop_formula(rng, atoms, depth - 1))


def _weaken(rng: random.Random, a, atoms):
    """A formula that every valuation designating ``a`` designates."""
    other = _prop_formula(rng, atoms, 1)
    return rng.choice((
        a, ("or", a, other), ("or", other, a), ("imp", other, a),
        ("not", ("not", a)),
    ))


def prop_queries(seed: int):
    """Endless seeded stream of propositional sequents over 2-5 atoms,
    formula depth at most 3 and 0-3 formulas per side.

    The stream is stratified so that every run sees the same mix: query
    i uses 2 + i % 4 atoms, and in one block of four in every four a
    succedent formula weakens an antecedent one, which makes it valid.
    """
    rng = random.Random("prop-prove:%d" % seed)
    for i in itertools.count():
        atoms = PROP_ATOMS[:2 + i % 4]
        linked = (i // 4) % 4 == 0
        ant = [_prop_formula(rng, atoms, rng.randint(0, 3))
               for _ in range(rng.randint(1 if linked else 0, 3))]
        suc = [_prop_formula(rng, atoms, rng.randint(0, 3))
               for _ in range(rng.randint(0, 3))]
        if linked:
            link = _weaken(rng, rng.choice(ant), atoms)
            if len(suc) == 3:
                suc[rng.randrange(3)] = link
            else:
                suc.insert(rng.randint(0, len(suc)), link)
        text = "%s => %s" % ("; ".join(map(reference.render, ant)),
                             "; ".join(map(reference.render, suc)))
        yield PropQuery(text, tuple(ant), tuple(suc))


def prop_op(q: PropQuery):
    """The timed operation: what ``bd4 prove`` does for one sequent."""
    s = parser.parse_sequent(q.text, PROP_SIG)
    result = search.prove_prop(s)
    checked = printed = None
    if result.proved:
        checked = kernel.check_derivation(result.proof)
        printed = proofio.print_derivation(result.proof)
    return s, result, checked, printed


def prop_check(q: PropQuery, out):
    """(the --format lines row, error or None)."""
    s, result, checked, printed = out
    holds, witness = reference.consequence(q.ant, q.suc)
    if result.status == "proved":
        line = "proved=true steps=%d" % len(result.proof.steps)
        if not holds:
            return line, "proved, reference refutes with %s" % (
                render_valuation(witness))
        if not (checked and checked[0] and is_proof(result.proof)):
            return line, "proof rejected by the kernel"
        if result.proof.target != s:
            return line, "proof targets another sequent"
        if not printed:
            return line, "empty derivation text"
        return line, None
    if result.status == "refuted":
        got = {a: _letter(v) for a, v in result.countermodel.items()}
        line = "proved=false countermodel=%s" % render_valuation(got)
        if holds:
            return line, "refuted, reference proves"
        if got != witness:
            return line, "countervaluation %s is not the first, %s" % (
                render_valuation(got), render_valuation(witness))
        return line, None
    return "proved=%s" % result.status, "search %s" % result.status


# ---------------------------------------------------------------------------
# fo-entails

FO_SIG = Signature(functions=(("c", 0), ("d", 0)),
                   predicates=(("P", 1), ("Q", 1), ("q", 0)))
# the largest structure sweep one query may need
SWEEP_BOUND = 20_000
# bands (low, high] of a query's work: the structures of its full sweep
# times the size of its formulas, which tracks the latency of a valid
# query to within about a factor of two.  Three light bands, a medium
# one and a huge one.
FO_BANDS = {"a": (0, 300), "b": (300, 2_000), "c": (2_000, 10_000),
            "M": (10_000, 20_000), "H": (100_000, 200_000)}
# In each cycle of FO_CYCLE queries: one huge query and 24 medium ones,
# all valid by construction, the medium ones alternating between the
# modes.  The other queries take the light bands a, a, b, b, c in turn,
# six at a time, so each band sees every mode and kind.  The costly
# queries come in the same numbers on every seed, and they are rare
# enough that no single one decides a run's figures.  Queries drawn
# freely stay light: whether one is valid, and so what it costs, is a
# coin toss that one run cannot average out.
FO_CYCLE = 360
FO_PLAN = {0: "H"} | {15 * j + 6: "M" for j in range(24)}


def fo_band(i: int) -> str:
    return FO_PLAN.get(i % FO_CYCLE) or "aabbc"[i // 6 % 5]


@dataclass(frozen=True)
class FOQuery:
    gamma: str
    delta: str
    mode: str
    max_domain: int
    sweep: int
    work: int
    valid_by_construction: bool


@dataclass(frozen=True)
class _Vocabulary:
    """The symbols one query draws from: a subset of the signature."""
    consts: tuple
    preds: tuple
    use_eq: bool


def _vocabulary(rng: random.Random) -> _Vocabulary:
    preds = tuple(p for p in ("P", "Q", "q") if rng.random() < 0.5)
    return _Vocabulary(("c", "d")[:rng.randint(1, 2)], preds or ("P",),
                       rng.random() < 0.35)


def _fo_atom(rng: random.Random, voc: _Vocabulary, terms):
    if voc.use_eq and rng.random() < 0.25:
        return ("eq", rng.choice(terms), rng.choice(terms))
    name = rng.choice(voc.preds)
    if name == "q":
        return ("prop", "q")
    return ("pred", name, rng.choice(terms))


def _fo_formula(rng: random.Random, depth: int, voc: _Vocabulary,
                bound=()):
    terms = voc.consts + tuple(bound)
    if depth == 0 or rng.random() < 0.3:
        return _fo_atom(rng, voc, terms)
    tag = rng.choice(("not", "and", "or", "imp", "forall", "exists"))
    if tag in ("forall", "exists"):
        if bound:
            tag = "not"
        else:
            return (tag, "x", _fo_formula(rng, depth - 1, voc, ("x",)))
    if tag == "not":
        return ("not", _fo_formula(rng, depth - 1, voc, bound))
    return (tag, _fo_formula(rng, depth - 1, voc, bound),
            _fo_formula(rng, depth - 1, voc, bound))


def render_fo(a) -> str:
    tag = a[0]
    if tag == "prop":
        return a[1]
    if tag == "pred":
        return "%s(%s)" % (a[1], a[2])
    if tag == "eq":
        return "%s = %s" % (a[1], a[2])
    if tag in ("forall", "exists"):
        return "(%s %s. %s)" % (tag, a[1], render_fo(a[2]))
    if tag == "not":
        return "~" + render_fo(a[1])
    op = {"and": "&", "or": "|", "imp": "->"}[tag]
    return "(%s %s %s)" % (render_fo(a[1]), op, render_fo(a[2]))


def _instantiate(a, x: str, t: str):
    if a[0] == "pred":
        return ("pred", a[1], t if a[2] == x else a[2])
    if a[0] == "eq":
        return ("eq",) + tuple(t if u == x else u for u in a[1:])
    if a[0] == "prop":
        return a
    return (a[0],) + tuple(
        _instantiate(u, x, t) if isinstance(u, tuple) else u for u in a[1:])


def _fo_valid_pair(rng: random.Random, voc: _Vocabulary):
    """Premise and conclusion where the conclusion weakens the premise."""
    if rng.random() < 0.4:
        body = _fo_formula(rng, 1, voc, ("x",))
        premise = ("forall", "x", body)
        return premise, _instantiate(body, "x", rng.choice(voc.consts))
    premise = _fo_formula(rng, 2, voc)
    other = _fo_formula(rng, 1, voc)
    conclusion = rng.choice((
        ("or", premise, other), ("or", other, premise),
        ("imp", other, premise),
    ))
    return premise, conclusion


def fo_queries(seed: int):
    """Endless seeded stream of first-order entailment queries over c, d,
    P/1, Q/1, q/0 and equality, in total and partial mode.

    Every third query is valid by construction; the others are drawn
    freely.  Modes alternate between blocks of three, and query i's work,
    counted over the parsed query, lies in band ``fo_band(i)``, so every
    run sees the same mix.  A draw outside its band or over the sweep
    bound is drawn again.
    """
    rng = random.Random("fo-entails:%d" % seed)
    for i in itertools.count():
        mode = ("total", "partial")[(i // 3) % 2]
        constructed = i % 3 == 0
        low, high = FO_BANDS[fo_band(i)]
        while True:
            voc = _vocabulary(rng)
            max_domain = 2 if (voc.use_eq or mode == "partial") else 3
            gamma = [_fo_formula(rng, 2, voc)
                     for _ in range(rng.randint(0, 1 if constructed else 2))]
            if constructed:
                premise, conclusion = _fo_valid_pair(rng, voc)
                gamma.insert(rng.randint(0, len(gamma)), premise)
                delta = [conclusion]
            else:
                delta = [_fo_formula(rng, 2, voc)
                         for _ in range(rng.randint(1, 2))]
            text = (", ".join(map(render_fo, gamma)),
                    ", ".join(map(render_fo, delta)))
            formulas = (parse_formula_list(text[0], FO_SIG)
                        + parse_formula_list(text[1], FO_SIG))
            sweep = sweep_size(formulas, FO_SIG, mode, max_domain)
            work = sweep * sum(len(list(subformulas(a))) for a in formulas)
            if sweep <= SWEEP_BOUND and low < work <= high:
                break
        yield FOQuery(*text, mode, max_domain, sweep, work, constructed)


def fo_op(q: FOQuery):
    """The timed operation: what ``bd4 entails --sig`` does for a query."""
    gamma = parser.parse_formula_list(q.gamma, FO_SIG)
    delta = parser.parse_formula_list(q.delta, FO_SIG)
    res = semantics.consequence_fo(gamma, delta, FO_SIG,
                                   max_domain=q.max_domain, mode=q.mode)
    printed = None if res.holds else proofio.print_structure(res.structure)
    return gamma, delta, res, printed


def fo_check(q: FOQuery, out):
    """(the verdict with its countermodel, error or None)."""
    gamma, delta, res, printed = out
    if res.holds:
        return "entails=true", None
    alpha = res.assignment or {}
    line = "entails=false\n%sassignment: %s" % (
        printed, ",".join("%s=%s" % (x, alpha[x]) for x in sorted(alpha)))
    if q.valid_by_construction:
        return line, "countermodel to a valid-by-construction query"
    if any(_letter(evaluate(g, res.structure, alpha)) not in "tb"
           for g in gamma):
        return line, "countermodel does not designate every premise"
    if any(_letter(evaluate(d, res.structure, alpha)) in "tb"
           for d in delta):
        return line, "countermodel designates a conclusion"
    return line, None


# ---------------------------------------------------------------------------
# report

def report_op(number: int, seed: int):
    """The timed operation: one criterion of ``bd4 report``."""
    return acceptance.run_criterion(number, SuiteConfig(seed=seed))


STREAMS = {"prop-prove": prop_queries, "fo-entails": fo_queries}
# the period of each stream's mix, in operations
BLOCKS = {"prop-prove": 16, "fo-entails": FO_CYCLE}
OPS = {"prop-prove": (prop_op, prop_check), "fo-entails": (fo_op, fo_check)}
