"""The twelve reproduction suites behind ``bd4 report``.

Each criterion function re-derives one headline claim from scratch and
returns a CriterionResult with a pass/fail status, wall time, and a
details dict whose values are frozen-comparable (ints, strings).  The
expected tables live here as literals so the suites do not certify the
package against itself.

Three suites are red on purpose.  The uniqueness sweep finds 81
surviving matrices, not one; the =-Repl rule admits countermodels under
unconstrained equality tables; and Den-R admits countermodels in
partial structures.  Each red result carries the analysis and a repair
diagnostic showing the narrowed structure class where the failure
disappears.  Gaming those to green would defeat the point of the suite.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field

from .corpus_suite import load_corpus, mutations
from .definability import (
    BD_BASE, CONFLATION, CONJ_FN, DISJ_FN, NEG_FN, TruthFunction,
    check_expansion_equivalences, clone_closure, extra_function,
    is_definable_criterion, verify_definition, DEFINITIONS,
)
from .kernel import (
    RULES, Derivation, DerivationStep, check_derivation, is_proof,
)
from .matrixlab import (
    ALL_LAWS, BD_MATRIX, LAW_ARITY, SUBSETS, check_all_laws,
    check_classical_laws, is_classically_closed, is_regular,
    uniqueness_search,
)
from .proofio import print_sequent
from .search import SearchBudget, prove_prop
from .semantics import (
    PropSpace, consequence_fo, consequence_prop, enumerate_structures,
    evaluate, evaluate_prop,
)
from .simulation import EXTENSION_MODES, translation_sets, verify_simulation
from .syntax import (
    And, Eq, Exists, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop, Sequent,
    Signature, Var,
)
from .values import B, F, N, T, VALUES, designated


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs for the reproduction run.

    The caps exist for smoke runs; a cap below the nominal workload
    cannot produce the criterion's verdict, so the affected suite is
    reported as skipped instead of silently shrunk.
    """

    seed: int = 0
    dropped_laws: tuple = ()
    rule_instances: int = 1000
    random_instances: int = 10_000
    max_nodes: int = 100_000


@dataclass
class CriterionResult:
    number: int
    name: str
    status: str  # pass | fail | skipped
    seconds: float
    details: dict = field(default_factory=dict)
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def line(self, timing: bool = True) -> str:
        head = "criterion-%02d %s" % (self.number, self.status)
        if timing:
            head += " %6.2fs" % self.seconds
        head += " %s" % self.name
        if self.note:
            head += " [%s]" % self.note
        return head

    def lines(self):
        """Machine-readable key=value rows, no wall time."""
        out = ["criterion=%d" % self.number, "name=%s" % self.name,
               "status=%s" % self.status]
        for k, v in self.details.items():
            out.append("%s=%s" % (k, v))
        if self.note:
            out.append("note=%s" % self.note)
        return out


def _timed(number, name, fn, *args):
    t0 = time.perf_counter()
    status, details, note = fn(*args)
    return CriterionResult(number, name, status, time.perf_counter() - t0,
                           details, note)


# ---------------------------------------------------------------------------
# criterion 1: the matrix itself, cell by cell

_NEG = {T: F, B: B, N: N, F: T}

_CONJ = {
    (T, T): T, (T, B): B, (T, N): N, (T, F): F,
    (B, T): B, (B, B): B, (B, N): F, (B, F): F,
    (N, T): N, (N, B): F, (N, N): N, (N, F): F,
    (F, T): F, (F, B): F, (F, N): F, (F, F): F,
}

_DISJ = {
    (T, T): T, (T, B): T, (T, N): T, (T, F): T,
    (B, T): T, (B, B): B, (B, N): T, (B, F): B,
    (N, T): T, (N, B): T, (N, N): N, (N, F): N,
    (F, T): T, (F, B): B, (F, N): N, (F, F): F,
}

_IMPL = {
    (T, T): T, (T, B): B, (T, N): N, (T, F): F,
    (B, T): T, (B, B): B, (B, N): N, (B, F): F,
    (N, T): T, (N, B): T, (N, N): T, (N, F): T,
    (F, T): T, (F, B): T, (F, N): T, (F, F): T,
}


def _criterion_1():
    checked = 0
    bad = []
    for a, want in _NEG.items():
        checked += 1
        if BD_MATRIX.neg_of(a) is not want:
            bad.append("neg(%s)" % a.name)
    for table, of, label in ((_CONJ, BD_MATRIX.conj_of, "conj"),
                             (_DISJ, BD_MATRIX.disj_of, "disj"),
                             (_IMPL, BD_MATRIX.impl_of, "impl")):
        for (a1, a2), want in table.items():
            checked += 1
            if of(a1, a2) is not want:
                bad.append("%s(%s,%s)" % (label, a1.name, a2.name))
    checked += 1
    if BD_MATRIX.falsum is not F:
        bad.append("falsum")
    # the quantifier oracle folds the frozen binary tables over the set
    quant = 0
    for s in SUBSETS:
        vals = sorted(s)
        want_inf = vals[0]
        want_sup = vals[0]
        for v in vals[1:]:
            want_inf = _CONJ[(want_inf, v)]
            want_sup = _DISJ[(want_sup, v)]
        quant += 2
        if BD_MATRIX.forall_of(s) is not want_inf:
            bad.append("forall(%s)" % sorted(v.name for v in s))
        if BD_MATRIX.exists_of(s) is not want_sup:
            bad.append("exists(%s)" % sorted(v.name for v in s))
    details = {"entries": checked, "quantifier_entries": quant,
               "mismatches": len(bad)}
    if bad:
        details["first_mismatch"] = bad[0]
    return ("pass" if not bad else "fail"), details, ""


# ---------------------------------------------------------------------------
# criterion 2: the fifteen laws

def _criterion_2():
    report = check_all_laws(BD_MATRIX)
    failed = sorted(law for law, (ok, _) in report.items() if not ok)
    cases = sum(4 ** LAW_ARITY[law] for law in ALL_LAWS if law not in (14, 15))
    cases += 2 * 15 * 4
    details = {"laws": len(report), "cases": cases, "failed": len(failed)}
    if failed:
        details["failing_laws"] = ",".join(map(str, failed))
    return ("pass" if not failed else "fail"), details, ""


# ---------------------------------------------------------------------------
# criterion 3: classical equivalences that break

# the three the suite must break, by their position in the checked list
_MUST_FAIL = (0, 1, 2)


def _criterion_3():
    rows = check_classical_laws(BD_MATRIX)
    failing = [i for i, (_, _, holds, _) in enumerate(rows) if not holds]
    missing = [i for i in _MUST_FAIL if i not in failing]
    no_witness = [rows[i][0] for i in failing if rows[i][3] is None]
    details = {
        "checked": len(rows),
        "failing": len(failing),
        "holding": len(rows) - len(failing),
    }
    for i in failing:
        name, _, _, witness = rows[i]
        details["witness_%d" % i] = "A=%s" % witness["A"].name
    ok = not missing and not no_witness
    note = ""
    if len(failing) != len(rows):
        note = "two of the five hold as table identities"
    if missing:
        note = "required equivalence did not fail"
    return ("pass" if ok else "fail"), details, note


# ---------------------------------------------------------------------------
# criterion 4: the uniqueness sweep (red: 81 survivors, not one)

_EXPECTED_COUNTS = {"neg": 4, "conj": 4096, "disj": 4096, "impl": 4096,
                    "forall": 4096, "exists": 4096, "falsum": 2}

_DROP_SURVIVORS = {11: 162, 12: 576, 13: 576, 14: 331776, 15: 331776}


def _criterion_4(config: SuiteConfig):
    report = uniqueness_search(dropped=config.dropped_laws)
    details = {}
    count_bad = {
        fam: (got, _EXPECTED_COUNTS[fam])
        for fam, got in report.candidate_counts.items()
        if _EXPECTED_COUNTS.get(fam) != got
    }
    details["candidate_counts_ok"] = not count_bad
    details["survivors"] = report.survivor_count
    if report.survivors is not None:
        match = [s for s in report.survivors if s == BD_MATRIX]
        details["contains_target"] = len(match) == 1
        details["survivors_modulo_impl"] = len(report.survivors_modulo_impl())
    drops_ok = True
    if not config.dropped_laws:
        for law in ALL_LAWS:
            sub = uniqueness_search(dropped=(law,))
            details["drop_%d" % law] = sub.survivor_count
            if sub.survivor_count <= 1:
                drops_ok = False
            want = _DROP_SURVIVORS.get(law)
            if want is not None and sub.survivor_count != want:
                drops_ok = False
        details["drop_any_law_gives_many"] = drops_ok
    unique = report.survivor_count == 1
    ok = (not count_bad) and unique and drops_ok
    note = ""
    if not unique and not config.dropped_laws:
        note = ("the laws pin every table except implication; "
                "9 admissible b-rows x 9 admissible n-rows remain")
    return ("pass" if ok else "fail"), details, note


# ---------------------------------------------------------------------------
# criterion 5: regularity, closure, and the two witness entailments

def _criterion_5():
    p, q = Prop("p"), Prop("q")
    details = {}
    ok = True

    details["regular"] = is_regular(BD_MATRIX)
    details["classically_closed"] = is_classically_closed(BD_MATRIX)
    ok &= details["regular"] and details["classically_closed"]

    holds, witness = consequence_prop([p, Not(p)], [q])
    details["contradiction_entails_all"] = holds
    if holds or witness.get("p") is not B:
        ok = False
    else:
        details["paraconsistency_witness"] = _valuation_str(witness)

    for label, gamma in (("from_A", [p]), ("from_notA", [Not(p)])):
        h, _ = consequence_prop(gamma, [Or(p, Not(p))])
        details["lem_%s" % label] = h
        ok &= h
    holds, witness = consequence_prop([], [Or(p, Not(p))])
    details["lem_outright"] = holds
    if holds or witness.get("p") is not N:
        ok = False
    else:
        details["paracompleteness_witness"] = _valuation_str(witness)
    return ("pass" if ok else "fail"), details, ""


def _valuation_str(v: dict) -> str:
    return ",".join("%s=%s" % (a, v[a].name.lower()) for a in sorted(v))


# ---------------------------------------------------------------------------
# shared formula pools for the propositional sweeps

def _formula_pool(atoms, max_depth: int):
    """All formulas over the atoms and F up to the connective depth."""
    level = [Prop(a) for a in atoms] + [Falsity()]
    pool = list(level)
    for _ in range(max_depth):
        prev = list(pool)
        nxt = [Not(a) for a in prev]
        for conn in (And, Or, Imp):
            nxt.extend(conn(a, b) for a in prev for b in prev)
        seen = set(pool)
        for a in nxt:
            if a not in seen:
                seen.add(a)
                pool.append(a)
    return pool


def _distinct_reps(pool, space: PropSpace):
    """First representative of each truth-table class, in pool order."""
    reps = []
    seen = set()
    for a in pool:
        vec = space.vector(a)
        if vec not in seen:
            seen.add(vec)
            reps.append(a)
    return reps


# ---------------------------------------------------------------------------
# criterion 6: the LP/K3/CL simulation biconditionals

def _criterion_6(config: SuiteConfig):
    if config.random_instances < 10_000:
        return "skipped", {}, "bound"
    space = PropSpace(("p", "q"))
    reps2 = _distinct_reps(_formula_pool(("p", "q"), 2), space)
    reps1 = _distinct_reps(_formula_pool(("p", "q"), 1), space)
    details = {"reps_depth2": len(reps2), "reps_depth1": len(reps1)}

    checked = 0
    crosschecked = 0
    failures = []

    def probe(gamma, delta, mode):
        nonlocal checked, crosschecked
        checked += 1
        gm = [space.mask(a) for a in gamma]
        dm = [space.mask(a) for a in delta]
        restricted = space.holds(gm, dm, mode) is None
        guards = translation_sets(gamma, delta, mode)
        bd = space.holds([space.mask(a) for a in guards] + gm, dm, "bd") is None
        if restricted != bd:
            failures.append((mode, gamma, delta, "biconditional"))
        if space.holds(gm, dm, "bd") is None and not restricted:
            failures.append((mode, gamma, delta, "inclusion"))
        if checked % 97 == 0:
            crosschecked += 1
            full = verify_simulation(gamma, delta, mode)
            if full.ok != (restricted == bd):
                failures.append((mode, gamma, delta, "crosscheck"))

    sides = [()] + [(a,) for a in reps2]
    for gamma in sides:
        for delta in sides:
            for mode in EXTENSION_MODES:
                probe(gamma, delta, mode)
    details["single_pairs"] = len(sides) * len(sides)

    small = [()] + [(a,) for a in reps1] + [
        pair for pair in itertools.combinations(reps1, 2)]
    for gamma in small:
        for delta in small:
            for mode in EXTENSION_MODES:
                probe(gamma, delta, mode)
    details["pair_sides"] = len(small)

    rng = random.Random("%d:simulation" % config.seed)
    for _ in range(config.random_instances):
        gamma = tuple(rng.sample(reps2, rng.randint(0, 2)))
        delta = tuple(rng.sample(reps2, rng.randint(0, 2)))
        probe(gamma, delta, rng.choice(EXTENSION_MODES))
    details["random_instances"] = config.random_instances
    details["checked"] = checked
    details["crosschecked"] = crosschecked
    details["failures"] = len(failures)
    if failures:
        mode, gamma, delta, kind = failures[0]
        details["first_failure"] = "%s %s %s" % (
            kind, mode, print_sequent(Sequent.of(gamma, delta)))
    return ("pass" if not failures else "fail"), details, ""


# ---------------------------------------------------------------------------
# criterion 7: definability of the four special connectives

def _criterion_7():
    details = {}
    ok = True
    for name in ("Des", "Norm", "Cons", "Det"):
        good = verify_definition(DEFINITIONS[name], extra_function(name))
        details["def_%s" % name] = good
        ok &= good
    details["conflation_fails_criterion"] = not is_definable_criterion(CONFLATION)
    ok &= details["conflation_fails_criterion"]

    clone = clone_closure(BD_BASE, 1)
    details["unary_clone_size"] = len(clone)
    ok &= len(clone) == 36
    by_criterion = {
        tab for tab in itertools.product(VALUES, repeat=4)
        if is_definable_criterion(TruthFunction(1, tab))
    }
    details["criterion_set_size"] = len(by_criterion)
    details["clone_equals_criterion_set"] = (
        {g.table for g in clone} == by_criterion)
    ok &= details["clone_equals_criterion_set"]
    details["conflation_in_clone"] = CONFLATION.table in {g.table for g in clone}
    ok &= not details["conflation_in_clone"]

    norm_clone = clone_closure((NEG_FN, CONJ_FN, DISJ_FN,
                                extra_function("Norm")), 1)
    cons = extra_function("Cons")
    details["cons_in_norm_clone"] = cons.table in {g.table for g in norm_clone}
    ok &= not details["cons_in_norm_clone"]
    return ("pass" if ok else "fail"), details, ""


# ---------------------------------------------------------------------------
# criterion 8: the displayed synonymities of the expanded language

def _criterion_8():
    rows = check_expansion_equivalences()
    bad = [r.label for r in rows if not r.ok]
    details = {"checked": len(rows), "failed": len(bad)}
    if bad:
        details["first_failed"] = bad[0]
    return ("pass" if not bad else "fail"), details, ""


# ---------------------------------------------------------------------------
# criterion 9: the derivation corpus and its mutation battery

def _criterion_9():
    corpus = load_corpus()
    details = {"derivations": len(corpus)}
    ok = len(corpus) >= 12
    bad_files = []
    used = set()
    for name, d in sorted(corpus.items()):
        good, v = check_derivation(d)
        if not good:
            bad_files.append("%s: %s" % (name, v))
        used |= {s.rule for s in d.steps}
    details["files_rejected"] = len(bad_files)
    ok &= not bad_files
    missing = set(RULES) - used
    details["rules_covered"] = len(set(RULES) & used)
    details["rules_missing"] = len(missing)
    ok &= not missing

    rows = mutations()
    details["mutations"] = len(rows)
    ok &= len(rows) >= 30
    wrong = []
    for label, name, build, code in rows:
        good, v = check_derivation(build(corpus[name]))
        if good or v.code != code:
            wrong.append(label)
    details["mutations_misjudged"] = len(wrong)
    if wrong:
        details["first_misjudged"] = wrong[0]
    ok &= not wrong
    return ("pass" if ok else "fail"), details, ""


# ---------------------------------------------------------------------------
# rule soundness machinery (criteria 10 and 12)

_c, _d = Fun("c", ()), Fun("d", ())
_x = Var("x")
_p, _q, _r = Prop("p"), Prop("q"), Prop("r")


def _P(t):
    return Pred("P", (t,))


_PROP_POOL = (
    _p, _q, _r, Not(_p), Not(_q), And(_p, _q), Or(_q, _r), Imp(_p, _q),
    Not(And(_p, _q)), Or(_p, Not(_r)), Falsity(),
)
_PROP_LITERALS = (_p, _q, _r, Not(_p), Not(_q), Not(_r))

_FO_SIG = Signature(functions=(("c", 0), ("d", 0)),
                    predicates=(("P", 1), ("q", 0)))
_FO_POOL = (
    Prop("q"), Not(Prop("q")), _P(_c), _P(_d), Not(_P(_c)),
    Forall("x", _P(_x)), Exists("x", Not(_P(_x))), Imp(_P(_c), Prop("q")),
)
_FO_BODIES = (
    _P(_x), Not(_P(_x)), And(_P(_x), Prop("q")), Or(_P(_x), _P(_c)),
    Imp(Prop("q"), _P(_x)),
)

_EQ_SIG = Signature(functions=(("c", 0), ("d", 0)), predicates=(("P", 1),))
_EQ_POOL = (
    _P(_c), _P(_d), Not(_P(_c)), Not(_P(_d)), Eq(_c, _c), Eq(_d, _d),
    Eq(_c, _d), Not(Eq(_c, _d)), Forall("x", _P(_x)),
)
_EQ_X_LITERALS = (_P(_x), Not(_P(_x)), Eq(_x, _c), Eq(_d, _x),
                  Not(Eq(_x, _c)))

_TERMS = (_c, _d)


class FOSpace:
    """Validity oracle over every structure in a finite class.

    Columns are (structure, assignment) pairs; each formula gets a
    designation bitmask over the columns, and a sequent is valid on the
    class exactly when no column designates the whole antecedent while
    designating nothing in the succedent.
    """

    def __init__(self, sig, sizes, mode="total", need_eq=True,
                 eq_distinct=None, variables=()):
        self.columns = []
        for size in sizes:
            for m in enumerate_structures(sig, size, mode,
                                          need_eq=need_eq,
                                          eq_distinct=eq_distinct):
                for combo in itertools.product(m.domain,
                                               repeat=len(variables)):
                    self.columns.append((m, dict(zip(variables, combo))))
        self._masks = {}

    def mask(self, a) -> int:
        out = self._masks.get(a)
        if out is None:
            out = 0
            for i, (m, alpha) in enumerate(self.columns):
                if designated(evaluate(a, m, dict(alpha))):
                    out |= 1 << i
            self._masks[a] = out
        return out

    def counter_mask(self, s: Sequent) -> int:
        g = ~0
        for a in s.ant:
            g &= self.mask(a)
        for a in s.suc:
            g &= ~self.mask(a)
        return g & ((1 << len(self.columns)) - 1)

    def valid(self, s: Sequent) -> bool:
        return self.counter_mask(s) == 0

    def countermodel(self, s: Sequent):
        cm = self.counter_mask(s)
        if cm == 0:
            return None
        return self.columns[cm.bit_length() - 1]


class _PropValidity:
    """Same interface as FOSpace, over a valuation grid and mode."""

    def __init__(self, space: PropSpace, mode: str):
        self.space = space
        self.mode = mode

    def valid(self, s: Sequent) -> bool:
        return self.space.holds([self.space.mask(a) for a in s.ant],
                                [self.space.mask(a) for a in s.suc],
                                self.mode) is None

    def countermodel(self, s: Sequent):
        i = self.space.holds([self.space.mask(a) for a in s.ant],
                             [self.space.mask(a) for a in s.suc], self.mode)
        return None if i is None else self.space.grid[i]


def _sample_instance(name, rng, ctx_pool):
    """One random instance: (premises, conclusion, final step).

    The pattern's formula letters are drawn left to right from the
    rule's pool, then t and t2 from the terms; the kernel's table builds
    the premises and the conclusion.
    """
    rule = RULES[name]
    gamma = frozenset(rng.sample(ctx_pool, rng.randint(0, 2)))
    delta = frozenset(rng.sample(ctx_pool, rng.randint(0, 2)))
    pool = (_EQ_X_LITERALS if name == "eq-Repl"
            else _PROP_LITERALS if rule.literal
            else _FO_BODIES if name in _QUANT_RULES else _PROP_POOL)
    values = {"x": "x", **{n: rng.choice(pool) for n in rule.slots}}
    fields = {f: rng.choice(_TERMS) for f in ("t", "t2") if f in rule.needs}
    fields.update((f, f) for f in ("x", "y") if f in rule.needs)
    probe = DerivationStep(name, Sequent(),
                           principal=rule.principal_of(values), **fields)
    premises, conclusion = rule.instance(rule.bind(probe), gamma, delta)
    step = DerivationStep(name, conclusion, tuple(range(len(premises))),
                          probe.principal, **fields)
    return premises, conclusion, step


def _kernel_accepts(premises, step, pack) -> None:
    steps = tuple(DerivationStep("hypothesis", s) for s in premises)
    d = Derivation(steps=steps + (step,), hypotheses=premises,
                   packs=frozenset() if pack is None else frozenset({pack}))
    good, v = check_derivation(d)
    if not good:
        # the sampler produced something the kernel's own schema rejects;
        # that is a bug in this module, not a soundness result
        raise RuntimeError("sampler/kernel mismatch on %s: %s" % (step.rule, v))


def _soundness_run(rule, judge, rng, instances, ctx_pool, pack=None,
                   repair_judge=None):
    """Premises-valid-implies-conclusion-valid over random instances.

    Sampling retries a few times toward instances whose premises are
    all valid, since vacuous instances certify nothing.  Every kept
    instance is replayed through the proof kernel so the schema being
    judged is exactly the one the kernel enforces.
    """
    nonvacuous = 0
    violations = 0
    example = None
    repair_violations = 0
    for _ in range(instances):
        for _attempt in range(4):
            premises, conclusion, step = _sample_instance(rule, rng, ctx_pool)
            if all(judge.valid(s) for s in premises):
                break
        _kernel_accepts(premises, step, pack)
        if not all(judge.valid(s) for s in premises):
            continue
        nonvacuous += 1
        if not judge.valid(conclusion):
            violations += 1
            if example is None:
                example = conclusion
            if repair_judge is not None and not all(
                    repair_judge.valid(s) for s in premises):
                continue
            if repair_judge is not None and not repair_judge.valid(conclusion):
                repair_violations += 1
    return {
        "instances": instances,
        "nonvacuous": nonvacuous,
        "violations": violations,
        "example": None if example is None else print_sequent(example),
        "repair_violations": repair_violations if repair_judge else None,
    }


@functools.lru_cache(maxsize=None)
def _fo_space(kind: str) -> FOSpace:
    if kind == "fo":
        return FOSpace(_FO_SIG, (1, 2), need_eq=False, variables=("y",))
    if kind == "eq":
        return FOSpace(_EQ_SIG, (1, 2))
    if kind == "eq-repair":
        return FOSpace(_EQ_SIG, (1, 2), eq_distinct=(N, F))
    if kind == "den":
        return FOSpace(_EQ_SIG, (2, 3), mode="partial")
    if kind == "den-repair":
        return FOSpace(_EQ_SIG, (2, 3), mode="partial", eq_distinct=(F,))
    raise ValueError(kind)


_QUANT_RULES = ("forall-L", "forall-R", "exists-L", "exists-R",
                "notforall-L", "notforall-R", "notexists-L", "notexists-R")


def _criterion_10(config: SuiteConfig):
    if config.rule_instances < 1000:
        return "skipped", {}, "bound"
    n = config.rule_instances
    space3 = PropSpace(("p", "q", "r"))
    fo = _fo_space("fo")
    eq = _fo_space("eq")
    eq_repair = _fo_space("eq-repair")
    den = _fo_space("den")
    den_repair = _fo_space("den-repair")

    runs = []
    for rule in RULES:
        if rule in _QUANT_RULES:
            runs.append((rule, "fo", fo, _FO_POOL, None, None))
        elif rule == "eq-Refl":
            runs.append((rule, "eq", eq, _EQ_POOL, None, None))
        elif rule == "eq-Repl":
            runs.append((rule, "eq", eq, _EQ_POOL, None, eq_repair))
        elif rule == "Den-L":
            runs.append((rule, "partial", den, _EQ_POOL, "den", None))
        elif rule == "Den-R":
            runs.append((rule, "partial", den, _EQ_POOL, "den", den_repair))
        elif rule == "not-L":
            runs.append((rule, "k3", _PropValidity(space3, "k3"),
                         _PROP_POOL, "notLR", None))
            runs.append((rule, "cl", _PropValidity(space3, "cl"),
                         _PROP_POOL, "notLR", None))
        elif rule == "not-R":
            runs.append((rule, "lp", _PropValidity(space3, "lp"),
                         _PROP_POOL, "notLR", None))
            runs.append((rule, "cl", _PropValidity(space3, "cl"),
                         _PROP_POOL, "notLR", None))
        else:
            runs.append((rule, "bd", _PropValidity(space3, "bd"),
                         _PROP_POOL, None, None))

    details = {"rules": len(RULES), "runs": len(runs),
               "instances_per_run": n}
    violated = []
    for rule, tag, judge, pool, pack, repair in runs:
        rng = random.Random("%d:%s:%s" % (config.seed, rule, tag))
        row = _soundness_run(rule, judge, rng, n, pool, pack, repair)
        key = "%s_%s" % (rule.replace("-", "_"), tag)
        details[key + "_nonvacuous"] = row["nonvacuous"]
        if row["violations"]:
            violated.append("%s[%s]" % (rule, tag))
            details[key + "_violations"] = row["violations"]
            details[key + "_example"] = row["example"]
            if row["repair_violations"] is not None:
                details[key + "_repair_violations"] = row["repair_violations"]
    details["rules_violated"] = ",".join(violated) if violated else "none"
    note = ""
    if violated:
        note = ("unconstrained equality between distinct elements breaks "
                "=-Repl (total) and Den-R (partial); forcing those cells "
                "non-designated, or to f in partial mode, repairs both")
    return ("pass" if not violated else "fail"), details, note


# ---------------------------------------------------------------------------
# criterion 11: prover versus oracle on a bounded propositional universe

def _criterion_11(config: SuiteConfig):
    if config.random_instances < 10_000 or config.max_nodes < 100_000:
        return "skipped", {}, "bound"
    space = PropSpace(("p", "q"))
    reps2 = _distinct_reps(_formula_pool(("p", "q"), 2), space)
    reps1 = _distinct_reps(_formula_pool(("p", "q"), 1), space)
    budget = SearchBudget(max_nodes=config.max_nodes)
    details = {"reps_depth2": len(reps2), "reps_depth1": len(reps1)}

    stats = {"checked": 0, "proved": 0, "refuted": 0}
    failures = []

    def probe(gamma, delta):
        stats["checked"] += 1
        s = Sequent.of(gamma, delta)
        holds, witness = consequence_prop(s.ant, s.suc)
        result = prove_prop(s, budget)
        if holds:
            if not result.proved:
                failures.append((s, "oracle valid, search %s" % result.status))
                return
            stats["proved"] += 1
            good, v = check_derivation(result.proof)
            if not (good and is_proof(result.proof)
                    and result.proof.target == s):
                failures.append((s, "proof rejected: %s" % (v,)))
        else:
            if result.status != "refuted":
                failures.append((s, "oracle invalid, search %s" % result.status))
                return
            stats["refuted"] += 1
            cm = result.countermodel
            bad = (cm is None
                   or not all(designated(evaluate_prop(a, cm)) for a in s.ant)
                   or any(designated(evaluate_prop(a, cm)) for a in s.suc))
            if bad:
                failures.append((s, "countermodel does not check"))

    singles = [()] + [(a,) for a in reps2]
    for gamma in singles:
        for delta in singles:
            probe(gamma, delta)
    details["single_pairs"] = len(singles) ** 2

    small = [()] + [(a,) for a in reps1] + [
        pair for pair in itertools.combinations(reps1, 2)]
    for gamma in small:
        for delta in small:
            probe(gamma, delta)
    details["pair_sides"] = len(small)

    rng = random.Random("%d:completeness" % config.seed)
    for _ in range(config.random_instances):
        probe(tuple(rng.sample(reps2, rng.randint(0, 2))),
              tuple(rng.sample(reps2, rng.randint(0, 2))))
    details.update(stats)
    details["disagreements"] = len(failures)
    if failures:
        s, why = failures[0]
        details["first_disagreement"] = "%s (%s)" % (print_sequent(s), why)
    note = ("universe reduced to truth-table representatives; "
            "the literal formula space is not enumerable in the budget")
    return ("pass" if not failures else "fail"), details, note


# ---------------------------------------------------------------------------
# criterion 12: partial structures (red: Den-R)

def _criterion_12(config: SuiteConfig):
    if config.rule_instances < 1000:
        return "skipped", {}, "bound"
    details = {}
    sig = Signature(functions=(("c", 0),))
    res = consequence_fo([], [Eq(_c, _c)], sig, max_domain=2, mode="partial")
    got_counter = (not res.holds and res.structure is not None
                   and res.structure.consts["c"] == res.structure.bottom)
    details["self_identity_countermodel"] = got_counter
    ok = got_counter

    den = _fo_space("den")
    den_repair = _fo_space("den-repair")
    n = config.rule_instances
    for rule, repair in (("Den-L", None), ("Den-R", den_repair)):
        rng = random.Random("%d:partial:%s" % (config.seed, rule))
        row = _soundness_run(rule, den, rng, n, _EQ_POOL, "den", repair)
        key = rule.replace("-", "_")
        details[key + "_nonvacuous"] = row["nonvacuous"]
        details[key + "_violations"] = row["violations"]
        if row["violations"]:
            ok = False
            details[key + "_example"] = row["example"]
        if repair is not None:
            details[key + "_repair_violations"] = row["repair_violations"]
    note = ""
    if not ok and details.get("Den_R_violations"):
        note = ("equality between distinct denoting elements may still "
                "take value n; forcing it to f repairs Den-R")
    return ("pass" if ok else "fail"), details, note


# ---------------------------------------------------------------------------
# the report

CRITERIA = (
    (1, "matrix-fidelity", lambda cfg: _criterion_1()),
    (2, "fifteen-laws", lambda cfg: _criterion_2()),
    (3, "classical-law-failures", lambda cfg: _criterion_3()),
    (4, "uniqueness-sweep", _criterion_4),
    (5, "regularity-and-witnesses", lambda cfg: _criterion_5()),
    (6, "extension-simulation", _criterion_6),
    (7, "definability", lambda cfg: _criterion_7()),
    (8, "expansion-synonymities", lambda cfg: _criterion_8()),
    (9, "kernel-corpus", lambda cfg: _criterion_9()),
    (10, "rule-soundness", _criterion_10),
    (11, "prover-completeness", _criterion_11),
    (12, "partial-structures", _criterion_12),
)


def run_criterion(number: int, config: SuiteConfig = SuiteConfig()):
    for num, name, fn in CRITERIA:
        if num == number:
            return _timed(num, name, fn, config)
    raise ValueError("no criterion %d" % number)


def report_all(config: SuiteConfig = SuiteConfig()):
    return tuple(_timed(num, name, fn, config)
                 for num, name, fn in CRITERIA)


def render_report(results, fmt: str = "human") -> str:
    if fmt == "lines":
        rows = []
        for r in results:
            rows.extend(r.lines())
            rows.append("")
        return "\n".join(rows).rstrip() + "\n"
    out = [r.line() for r in results]
    passed = sum(r.ok for r in results)
    skipped = sum(r.status == "skipped" for r in results)
    out.append("passed %d of %d (%d skipped)"
               % (passed, len(results), skipped))
    return "\n".join(out) + "\n"
