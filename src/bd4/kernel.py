"""Checking derivations against the sequent calculus.

A derivation is a numbered list of steps.  Each step names its rule,
cites earlier steps as premises, carries the instantiation data the rule
needs (principal formula, substituted term, eigenvariable), and states
its conclusion sequent.  The checker recomputes what the rule permits
from that data and compares; it never infers instantiations, so
failures point at exactly one field.

The calculus is written once, as data: ``RULES`` gives each of the 32
rules its pack, the step fields it needs, the pattern of its principal,
the formulas its conclusion and each premise add, and its side
conditions.  Patterns and additions are formulas over schematic
letters; the principal binds A, B and the bound variable, the step
gives t, t2 and y.  The checker reads a rule forwards, proof search
reads it backwards (``Rule.backward``), and the soundness sampler
builds instances with ``instance``.

The additions of a rule that needs the principal alone, Cut aside, are
computed once per principal: ``Rule.additions`` keeps the premises'
part on the principal (``syntax.kept``) and rebuilds the conclusion's,
the principal itself, on each call.  All three readers take them from
there: ``check_step``, ``Rule.backward`` (and so ``prove_prop``) and
the sampler of ``acceptance``.  The rules that need no step field,
F-L and notF-R, are filled once per rule (``Rule.constant``).  Every
other rule except Cut fills its letters from the step on every call
(``Rule.bind``, ``Rule.filled``).

Sequent sides are sets.  A rule's conclusion is its context plus the
formulas the rule introduces, and because sets absorb duplicates the
introduced formula may coincide with a context member.  The checker
therefore tries every way of retaining introduced formulas in the
context (at most four combinations; Cut gets the analogous choice on
the cut formula) and accepts if any candidate reading works.  Under
this reading the Table 2 rules absorb weakening and no separate
weakening rule exists.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .syntax import (
    And, Eq, Exists, Falsity, Forall, Formula, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, Var, free_vars, is_literal, kept, substitute,
)


class Code:
    """Violation codes, one per distinguishable failure kind."""

    UNKNOWN_RULE = "unknown-rule"
    PACK_DISABLED = "pack-disabled"
    BAD_PREMISE_INDEX = "bad-premise-index"
    PREMISE_MISMATCH = "premise-mismatch"
    CONCLUSION_MISMATCH = "conclusion-mismatch"
    LITERAL_REQUIRED = "literal-required"
    EIGENVARIABLE = "eigenvariable"
    MISSING_FIELD = "missing-field"
    PRINCIPAL_SHAPE = "principal-shape"
    HYPOTHESIS_NOT_DECLARED = "hypothesis-not-declared"
    TARGET_MISMATCH = "target-mismatch"
    EMPTY_DERIVATION = "empty-derivation"


@dataclass(frozen=True)
class DerivationStep:
    rule: str
    sequent: Sequent
    premises: tuple = ()
    principal: object = None
    t: object = None
    t2: object = None
    x: str | None = None
    y: str | None = None


@dataclass(frozen=True)
class Derivation:
    steps: tuple
    packs: frozenset = frozenset()
    hypotheses: tuple = ()

    @property
    def target(self):
        return self.steps[-1].sequent if self.steps else None


@dataclass(frozen=True)
class Violation:
    step: int
    code: str
    detail: str

    def __str__(self):
        return "step %d: %s (%s)" % (self.step, self.code, self.detail)


PACKS = ("notLR", "den")


# ---------------------------------------------------------------------------
# the rule table


@dataclass(frozen=True)
class _Letter:
    """A schematic letter: A or B (formulas), x (the variable a quantifier
    binds or eq-Repl replaces), or a step field (principal, t, t2, y).
    With ``term`` set it stands for A[x := term]."""

    name: str
    term: str | None = None


A, B, X = _Letter("A"), _Letter("B"), _Letter("x")
P, T, T2, Y = _Letter("principal"), _Letter("t"), _Letter("t2"), _Letter("y")
A_t, A_t2, A_y = _Letter("A", "t"), _Letter("A", "t2"), _Letter("A", "y")


def _match(pattern, a, env) -> bool:
    """Bind the letters of a pattern (each occurs once) to parts of a."""
    if isinstance(pattern, _Letter):
        env[pattern.name] = a
        return True
    if type(a) is not type(pattern):
        return False
    for f in pattern.__match_args__:
        if not _match(getattr(pattern, f), getattr(a, f), env):
            return False
    return True


def _compile(template):
    """The function from letter bindings to what the template stands for."""
    if not isinstance(template, _Letter):
        cls = type(template)
        parts = [_compile(getattr(template, f)) for f in cls.__match_args__]
        return lambda env: cls(*[part(env) for part in parts])
    name, term = template.name, template.term
    if term is None:
        return operator.itemgetter(name)
    return lambda env: substitute(env[name], env["x"], env[term])


def head(a):
    """Dispatch key of a formula or pattern: its constructor, and under
    a negation the negated formula's constructor as well."""
    return (Not, type(a.body)) if isinstance(a, Not) else type(a)


@dataclass(frozen=True)
class Rule:
    """One rule of the calculus: ``conclusion`` and each of ``premises``
    are the (antecedent, succedent) formulas added to the context."""

    name: str
    pattern: object
    conclusion: tuple
    premises: tuple = ()
    needs: tuple = ("principal",)
    pack: str | None = None
    literal: bool = False
    eigen: bool = False

    @functools.cached_property
    def side(self):
        """'ant' or 'suc' when the conclusion adds just the principal."""
        return {_L(P): "ant", _R(P): "suc"}.get(self.conclusion)

    @functools.cached_property
    def slots(self):
        """The formula letters of the pattern, left to right."""
        env = {}  # matched against itself, the pattern binds in order
        if self.pattern is not None:
            _match(self.pattern, self.pattern, env)
        return tuple(n for n in env if n in ("A", "B"))

    @functools.cached_property
    def principal_of(self):
        """The function from letter values to the pattern filled in."""
        return _compile(self.pattern) if self.pattern else lambda values: None

    def bind(self, step):
        """The step's letter bindings; None when its principal does not
        have the pattern."""
        env = {"principal": step.principal, "t": step.t, "t2": step.t2,
               "x": step.x, "y": None if step.y is None else Var(step.y)}
        if self.pattern is None or _match(self.pattern, step.principal, env):
            return env
        return None

    @functools.cached_property
    def _fills(self):
        return [(tuple(map(_compile, ant)), tuple(map(_compile, suc)))
                for ant, suc in (self.conclusion,) + self.premises]

    def filled(self, env):
        """The additions of the conclusion, then of each premise."""
        return [(tuple([f(env) for f in ant]), tuple([f(env) for f in suc]))
                for ant, suc in self._fills]

    @functools.cached_property
    def constant(self):
        """The additions of a rule that needs no step field (F-L and
        notF-R), filled once; None for every other rule."""
        return None if self.needs else self.filled({})

    @functools.cached_property
    def kept_as(self):
        """The attribute under which a principal keeps this rule's premise
        additions; None where the additions need a step field besides
        the principal, and for Cut, whose premises add the principal
        itself."""
        if self.needs != ("principal",) or self.name == "Cut":
            return None
        return "_premises_" + self.name.replace("-", "_")

    def _premise_additions(self, a):
        """The premises' additions when this rule introduces a, or None
        when a does not have the pattern."""
        env = {"principal": a}
        if not _match(self.pattern, a, env):
            return None
        return tuple(self.filled(env)[1:])

    def _kept_premise_additions(self, a):
        if self.kept_as and type(a) in _FORMULAS:
            return kept(a, self.kept_as, self._premise_additions)
        # a hand-built step may hold anything as its principal
        return self._premise_additions(a)

    def additions(self, a):
        """What ``filled(bind(step))`` gives for a step with principal a,
        for a rule with ``kept_as``: the conclusion's additions, then
        each premise's; None when a does not have the pattern."""
        premises = self._kept_premise_additions(a)
        if premises is None:
            return None
        ant, suc = self.conclusion  # the principal, on one side or both
        return [((a,) * len(ant), (a,) * len(suc)), *premises]

    def backward(self, s: Sequent, a):
        """The premises above s when this rule introduces a, which each
        premise drops; None when a does not have the pattern."""
        premises = self._kept_premise_additions(a)
        if premises is None:
            return None
        if self.side == "ant":
            gamma, delta = s.ant - {a}, s.suc
        else:
            gamma, delta = s.ant, s.suc - {a}
        return tuple(Sequent(gamma.union(pa), delta.union(ps))
                     for pa, ps in premises)


_FORMULAS = frozenset(Formula.__args__)


def instance(adds, gamma=frozenset(), delta=frozenset()):
    """(premises, conclusion) over the context gamma => delta, given a
    rule's additions (``Rule.filled`` or ``Rule.additions``)."""
    (ca, cs), *padds = adds
    return (tuple(Sequent(gamma | set(pa), delta | set(ps))
                  for pa, ps in padds),
            Sequent(gamma | set(ca), delta | set(cs)))


def _L(*formulas):
    return formulas, ()


def _R(*formulas):
    return (), formulas


_DEN = Or(Eq(T, T2), Not(Eq(T, T2)))
_TERM, _EIGEN = ("principal", "t"), ("principal", "y")

RULES = {r.name: r for r in (
    # name, principal pattern, conclusion adds, premises add, conditions
    Rule("Id", A, ((P,), (P,)), literal=True),
    Rule("Cut", A, ((), ()), (_R(A), _L(A))),
    Rule("F-L", None, _L(Falsity()), needs=()),
    Rule("notF-R", None, _R(Not(Falsity())), needs=()),
    Rule("and-L", And(A, B), _L(P), (_L(A, B),)),
    Rule("and-R", And(A, B), _R(P), (_R(A), _R(B))),
    Rule("or-L", Or(A, B), _L(P), (_L(A), _L(B))),
    Rule("or-R", Or(A, B), _R(P), (_R(A, B),)),
    Rule("imp-L", Imp(A, B), _L(P), (_R(A), _L(B))),
    Rule("imp-R", Imp(A, B), _R(P), (((A,), (B,)),)),
    Rule("forall-L", Forall(X, A), _L(P), (_L(A_t),), _TERM),
    Rule("forall-R", Forall(X, A), _R(P), (_R(A_y),), _EIGEN, eigen=True),
    Rule("exists-L", Exists(X, A), _L(P), (_L(A_y),), _EIGEN, eigen=True),
    Rule("exists-R", Exists(X, A), _R(P), (_R(A_t),), _TERM),
    Rule("notnot-L", Not(Not(A)), _L(P), (_L(A),)),
    Rule("notnot-R", Not(Not(A)), _R(P), (_R(A),)),
    Rule("notand-L", Not(And(A, B)), _L(P), (_L(Not(A)), _L(Not(B)))),
    Rule("notand-R", Not(And(A, B)), _R(P), (_R(Not(A), Not(B)),)),
    Rule("notor-L", Not(Or(A, B)), _L(P), (_L(Not(A), Not(B)),)),
    Rule("notor-R", Not(Or(A, B)), _R(P), (_R(Not(A)), _R(Not(B)))),
    Rule("notimp-L", Not(Imp(A, B)), _L(P), (_L(A, Not(B)),)),
    Rule("notimp-R", Not(Imp(A, B)), _R(P), (_R(A), _R(Not(B)))),
    Rule("notforall-L", Not(Forall(X, A)), _L(P), (_L(Not(A_y)),), _EIGEN,
         eigen=True),
    Rule("notforall-R", Not(Forall(X, A)), _R(P), (_R(Not(A_t)),), _TERM),
    Rule("notexists-L", Not(Exists(X, A)), _L(P), (_L(Not(A_t)),), _TERM),
    Rule("notexists-R", Not(Exists(X, A)), _R(P), (_R(Not(A_y)),), _EIGEN,
         eigen=True),
    Rule("eq-Refl", None, ((), ()), (_L(Eq(T, T)),), ("t",)),
    Rule("eq-Repl", A, _L(Eq(T, T2), A_t2), (_L(A_t),),
         ("principal", "x", "t", "t2"), literal=True),
    Rule("not-L", Not(A), _L(P), (_R(A),), pack="notLR"),
    Rule("not-R", Not(A), _R(P), (_L(A),), pack="notLR"),
    Rule("Den-L", None, _L(_DEN), (_L(Eq(T, T), Eq(T2, T2)),), ("t", "t2"),
         pack="den"),
    Rule("Den-R", None, _R(_DEN), (_R(Eq(T, T)), _R(Eq(T2, T2))),
         ("t", "t2"), pack="den"),
)}

BASE_RULES = tuple(r for r, row in RULES.items() if row.pack is None)
PACK_RULES = tuple(r for r, row in RULES.items() if row.pack is not None)


def _subsets(items):
    items = tuple(items)
    for k in range(len(items) + 1):
        for combo in itertools.combinations(items, k):
            yield frozenset(combo)


def _check_cut(i: int, step: DerivationStep, prem) -> Violation | None:
    a = step.principal
    p1, p2 = prem
    if a not in p1.suc:
        return Violation(i, Code.PREMISE_MISMATCH,
                         "cut formula %s not in first premise succedent" % a)
    if a not in p2.ant:
        return Violation(i, Code.PREMISE_MISMATCH,
                         "cut formula %s not in second premise antecedent" % a)
    cut = frozenset((a,))
    for r1 in (True, False):
        for r2 in (True, False):
            want = Sequent(
                p1.ant | (p2.ant - cut if r2 else p2.ant),
                (p1.suc - cut if r1 else p1.suc) | p2.suc,
            )
            if step.sequent == want:
                return None
    return Violation(i, Code.CONCLUSION_MISMATCH,
                     "conclusion is not the premises' cut combination")


def check_step(d: Derivation, i: int) -> Violation | None:
    step = d.steps[i]
    if step.rule == "hypothesis":
        if step.premises:
            return Violation(i, Code.BAD_PREMISE_INDEX,
                             "hypothesis steps cite no premises")
        if step.sequent not in d.hypotheses:
            return Violation(i, Code.HYPOTHESIS_NOT_DECLARED, str(step.sequent))
        return None
    rule = RULES.get(step.rule)
    if rule is None:
        return Violation(i, Code.UNKNOWN_RULE, step.rule)
    if rule.pack is not None and rule.pack not in d.packs:
        return Violation(i, Code.PACK_DISABLED,
                         "%s needs pack %s" % (step.rule, rule.pack))
    if len(step.premises) != len(rule.premises):
        return Violation(i, Code.BAD_PREMISE_INDEX,
                         "%s takes %d premises, got %d"
                         % (step.rule, len(rule.premises), len(step.premises)))
    if any(not isinstance(j, int) or not 0 <= j < i for j in step.premises):
        return Violation(i, Code.BAD_PREMISE_INDEX,
                         "premise indices must point at earlier steps")
    for field in rule.needs:
        if getattr(step, field) is None:
            return Violation(i, Code.MISSING_FIELD,
                             "%s requires %s" % (step.rule, field))
    if rule.literal and not is_literal(step.principal):
        return Violation(i, Code.LITERAL_REQUIRED, str(step.principal))

    prem = [d.steps[j].sequent for j in step.premises]
    if step.rule == "Cut":
        return _check_cut(i, step, prem)

    if rule.kept_as:
        env, adds = None, rule.additions(step.principal)
    elif rule.constant:
        env, adds = None, rule.constant
    else:
        env = rule.bind(step)
        adds = None if env is None else rule.filled(env)
    if adds is None:
        return Violation(i, Code.PRINCIPAL_SHAPE,
                         "%s cannot introduce %s" % (step.rule, step.principal))
    (ca, cs), *padds = adds

    concl = step.sequent
    for a in ca:
        if a not in concl.ant:
            return Violation(i, Code.CONCLUSION_MISMATCH,
                             "%s missing on the left" % a)
    for a in cs:
        if a not in concl.suc:
            return Violation(i, Code.CONCLUSION_MISMATCH,
                             "%s missing on the right" % a)

    y = step.y
    if rule.eigen and y != env["x"] and y in free_vars(env["A"]):
        return Violation(i, Code.EIGENVARIABLE,
                         "%s is free in the quantified formula" % y)

    base_ant = concl.ant - frozenset(ca)
    base_suc = concl.suc - frozenset(cs)
    eigen_blocked = False
    for keep_a in _subsets(ca):
        for keep_s in _subsets(cs):
            gamma = base_ant | keep_a
            delta = base_suc | keep_s
            if any(p != Sequent(gamma.union(pa), delta.union(ps))
                   for p, (pa, ps) in zip(prem, padds)):
                continue
            if rule.eigen and any(y in free_vars(f) for f in gamma | delta):
                eigen_blocked = True
                continue
            return None
    if eigen_blocked:
        return Violation(i, Code.EIGENVARIABLE,
                         "%s is free in the conclusion context" % y)
    pa, ps = padds[0] if padds else ((), ())
    want = Sequent(base_ant.union(pa), base_suc.union(ps))
    return Violation(i, Code.PREMISE_MISMATCH,
                     "expected first premise like %s, got %s"
                     % (want, prem[0] if prem else "none"))


def check_derivation(d: Derivation):
    """(True, None) if every step checks, else (False, first violation)."""
    if not d.steps:
        return False, Violation(0, Code.EMPTY_DERIVATION, "no steps")
    for pk in d.packs:
        if pk not in PACKS:
            return False, Violation(0, Code.PACK_DISABLED, "unknown pack %s" % pk)
    for i in range(len(d.steps)):
        v = check_step(d, i)
        if v is not None:
            return False, v
    return True, None


def is_proof(d: Derivation) -> bool:
    """A proof is a hypothesis-free derivation that checks."""
    return not d.hypotheses and check_derivation(d)[0]


def derives(gamma, delta, d: Derivation) -> bool:
    """Does the derivation establish that delta follows from gamma?

    True when d is a proof whose target antecedent is a subset of gamma
    and target succedent a subset of delta.
    """
    if not d.steps or not is_proof(d):
        return False
    target = d.target
    return target.ant <= frozenset(gamma) and target.suc <= frozenset(delta)


def equality_axioms(sig: Signature):
    """The equality axiom set for a signature: reflexivity, c = c per
    constant, p implies p per proposition, and one congruence formula
    per function and predicate symbol."""
    out = [Forall("x", Eq(Var("x"), Var("x")))]
    for name in sig.constants:
        out.append(Eq(Fun(name), Fun(name)))
    for name, arity in sig.functions:
        if arity == 0:
            continue
        xs = [Var("x%d" % (i + 1)) for i in range(arity)]
        ys = [Var("y%d" % (i + 1)) for i in range(arity)]
        ant = Eq(xs[0], ys[0])
        for i in range(1, arity):
            ant = And(ant, Eq(xs[i], ys[i]))
        body = Imp(ant, Eq(Fun(name, tuple(xs)), Fun(name, tuple(ys))))
        for i in reversed(range(arity)):
            body = Forall(xs[i].name, Forall(ys[i].name, body))
        out.append(body)
    for name in sig.propositions:
        out.append(Imp(Prop(name), Prop(name)))
    for name, arity in sig.predicates:
        if arity == 0:
            continue
        xs = [Var("x%d" % (i + 1)) for i in range(arity)]
        ys = [Var("y%d" % (i + 1)) for i in range(arity)]
        ant = Eq(xs[0], ys[0])
        for i in range(1, arity):
            ant = And(ant, Eq(xs[i], ys[i]))
        ant = And(ant, Pred(name, tuple(xs)))
        body = Imp(ant, Pred(name, tuple(ys)))
        for i in reversed(range(arity)):
            body = Forall(xs[i].name, Forall(ys[i].name, body))
        out.append(body)
    return tuple(out)
