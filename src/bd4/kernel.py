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
letters, which are hash-consed nodes (``syntax._node``) like the
formulas, so a pattern is one node tree; the principal binds A, B and
the bound variable, the step gives t, t2 and y.  The checker reads a
rule forwards, proof search reads it backwards (``Rule.backward``), and
the soundness sampler puts its additions over random contexts.

``Rule.additions(step)`` is the one forward reading of a rule, which
``check_step`` and the sampler of ``acceptance`` both ask.  A rule that
needs the principal alone, Cut aside, keeps its premises' additions on
the principal (``syntax.kept``, shared with ``Rule.backward`` and so
``prove_prop``) and rebuilds the conclusion's, the principal itself.
A quantifier rule keeps them there by its step's t or y.  F-L and
notF-R, needing no step field, are filled once (``Rule.constant``).
eq-Refl, eq-Repl, Den-L and Den-R, whose additions no node can keep,
bind their letters and fill them (``Rule.filled``) on every call.

Sequent sides are sets.  A rule's conclusion is its context plus the
formulas the rule introduces, and because sets absorb duplicates the
introduced formula may coincide with a context member.  The checker
accepts if any way of keeping introduced formulas in the context works,
comparing each premise's sides with a candidate's joined with the
premise's additions.  It tries first the context that keeps none, each
side less the introduced formulas, which nearly every prover step fits;
only when that one does not fit are the rest built, those sides joined
with each other choice of subsets of the introduced formulas (at most
four pairs of sides; Cut gets the analogous choice on the cut formula).
The verdict does not depend on the order of the candidates.  Under this
reading the Table 2 rules absorb weakening and no weakening rule exists.
"""

from __future__ import annotations

import functools
import operator

from .syntax import (
    And, Eq, Exists, Falsity, Forall, Formula, Fun, Imp, Not, Or, Sequent, Var,
    _node, _record, free_vars, is_literal, kept, substitute,
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


@_record
class DerivationStep:
    rule: str
    sequent: Sequent
    premises: tuple = ()
    principal: object = None
    t: object = None
    t2: object = None
    x: str | None = None
    y: str | None = None

    def __init__(self, rule, sequent, premises=(), principal=None, t=None,
                 t2=None, x=None, y=None):
        # written out: the interpreter binds the call and one store sets
        # every field, where ``_record``'s binds in Python, field by field
        object.__setattr__(self, "__dict__", {
            "rule": rule, "sequent": sequent, "premises": premises,
            "principal": principal, "t": t, "t2": t2, "x": x, "y": y})


@_record
class Derivation:
    steps: tuple
    packs: frozenset = frozenset()
    hypotheses: tuple = ()

    @property
    def target(self):
        return self.steps[-1].sequent if self.steps else None


@_record
class Violation:
    step: int
    code: str
    detail: str

    def __str__(self):
        return "step %d: %s (%s)" % (self.step, self.code, self.detail)


PACKS = ("notLR", "den")


# ---------------------------------------------------------------------------
# the rule table


@_node
class _Letter:
    """A schematic letter: A or B (formulas), x (the variable a quantifier
    binds or eq-Repl replaces), or a step field (principal, t, t2, y).
    With ``term`` set it stands for A[x := term]."""

    name: str
    term: str | None = None


A, B, X = _Letter("A"), _Letter("B"), _Letter("x")
P, T, T2 = _Letter("principal"), _Letter("t"), _Letter("t2")
A_t, A_t2, A_y = _Letter("A", "t"), _Letter("A", "t2"), _Letter("A", "y")


def _match(pattern, a, env) -> bool:
    """Bind the letters of a pattern (each occurs once) to parts of a."""
    if isinstance(pattern, _Letter):
        env[pattern.name] = a
        return True
    return type(a) is type(pattern) and all(
        _match(getattr(pattern, f), getattr(a, f), env)
        for f in pattern.__match_args__)


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


@_record
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

    def additions(self, step):
        """The additions of a step by this rule: the conclusion's, then
        each premise's; None when the step's principal does not have the
        pattern.  Kept on the principal for a rule with ``kept_as`` and,
        by t or y, for a quantifier rule, the ``constant`` for F-L and
        notF-R, else the letters bound from the step's fields, filled."""
        a = step.principal
        if self.kept_as:
            premises = self._kept_premise_additions(a)
        elif self.constant:
            return self.constant
        else:
            env = {"principal": a, "t": step.t, "t2": step.t2, "x": step.x,
                   "y": None if step.y is None else Var(step.y)}
            t = env[self.needs[-1]]  # a quantifier rule's t or y
            # kept by a variable or constant alone, which holds no formula
            if not (self.needs in (_TERM, _EIGEN) and type(a) in _FORMULAS
                    and type(t) in (Var, Fun) and type(t.name) is str
                    and not getattr(t, "args", ())):
                if self.pattern is None or _match(self.pattern, a, env):
                    return self.filled(env)
                return None
            per, key = kept(a, "_premises_by", lambda a: {}), (self.name, t)
            if key not in per:
                per[key] = (self.filled(env)[1:]
                            if _match(self.pattern, a, env) else None)
            premises = per[key]
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
        return tuple([Sequent(gamma.union(pa), delta.union(ps))
                      for pa, ps in premises])


_FORMULAS = frozenset(Formula.__args__)


def instance(adds, gamma=frozenset(), delta=frozenset()):
    """(premises, conclusion) over the context gamma => delta, given a
    rule's additions (``Rule.additions``)."""
    (ca, cs), *padds = adds
    return (tuple([Sequent(gamma.union(pa), delta.union(ps))
                   for pa, ps in padds]),
            Sequent(gamma.union(ca), delta.union(cs)))


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
    for j in step.premises:
        if not isinstance(j, int) or not 0 <= j < i:
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

    adds = rule.additions(step)
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
    if rule.eigen:
        q = step.principal  # the quantifier, or its negation
        q = q.body if type(q) is Not else q
        if y != q.var and y in free_vars(q.body):
            return Violation(i, Code.EIGENVARIABLE,
                             "%s is free in the quantified formula" % y)

    base_ant = concl.ant.difference(ca)
    base_suc = concl.suc.difference(cs)
    eigen_blocked = False
    contexts = [(base_ant, base_suc)]
    for gamma, delta in contexts:
        for p, (pa, ps) in zip(prem, padds):
            if p.ant != gamma.union(pa) or p.suc != delta.union(ps):
                break
        else:
            if not (rule.eigen and any(y in free_vars(f)
                                       for f in gamma | delta)):
                return None
            eigen_blocked = True
        if len(contexts) == 1:  # the one keeping none failed: add the rest
            gammas, deltas = [base_ant], [base_suc]
            for a in ca:
                gammas += [g | {a} for g in gammas]
            for a in cs:
                deltas += [g | {a} for g in deltas]
            contexts += [(g, d) for g in gammas for d in deltas][1:]
    if eigen_blocked:
        return Violation(i, Code.EIGENVARIABLE,
                         "%s is free in the conclusion context" % y)
    # only a rule with premises gets here: with none, a context fits
    want = instance(adds, base_ant, base_suc)[0][0]
    return Violation(i, Code.PREMISE_MISMATCH,
                     "expected first premise like %s, got %s"
                     % (want, prem[0]))


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
