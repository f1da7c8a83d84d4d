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
the bound variable, the step gives t, t2 and y.

Each row is compiled once, with closures (partial evaluation, Jones,
Gomard and Sestoft 1993): its pattern into class checks, ``Rule.match``
(``tests/support.py`` keeps the walk it replaced as its reference);
its templates into one constructor call per node, or themselves when
they hold no letter; the row into its step checker ``Rule.check`` (at
import), its forward reading ``Rule.additions``, which the soundness
sampler fills, and its backward reading ``Rule.backward``, which proof
search runs.
A row's premises' additions are had in exactly two ways.  A row that
needs the principal alone, or with a t or y, keeps them in one dict on
the principal, which ``Rule.keep`` reads and fills; the checker and
``backward`` read a principal-only row's entry in their own frame.  The
seven rows that need more, or nothing, fill them per call; Cut joins
its premises' contexts, so its checker defers to ``_check_cut``.

Sequent sides are sets.  A rule's conclusion is its context plus the
formulas the rule introduces, which, as sets absorb duplicates, may
coincide with context members.  The checker accepts if any way of
keeping introduced formulas in the context works: each premise's sides
are the candidate's joined with its additions.  It tries first the
context that keeps none, each side less the introduced formulas, which
fits nearly every prover step, and only then builds the other choices
of subsets (at most four pairs of sides; Cut gets the like choice on
the cut formula); the verdict does not depend on their order.  So the
Table 2 rules absorb weakening and no weakening rule exists.
"""

from __future__ import annotations

import functools
import operator
import types

from .syntax import (
    And, Eq, Exists, Falsity, Forall, Formula, Fun, Imp, Not, Or, Sequent, Var,
    _ABSENT, _node, _parts, _record, free_vars, is_literal, kept, substitute,
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


def _lettered(template) -> bool:
    """Whether a letter occurs in a template or a side's tuple of them."""
    return isinstance(template, _Letter) or any(map(_lettered, (
        template if type(template) is tuple else _parts(template))))


def _compile(template):
    """The function from letter bindings to what a template, or a side's
    tuple of them, stands for: itself when it holds no letter, else a
    letter's binding or one constructor call per node."""
    if not _lettered(template):
        return lambda env: template
    if type(template) is tuple:
        fills = tuple(map(_compile, template))
        return lambda env: tuple([f(env) for f in fills])
    if isinstance(template, _Letter):
        name, term = template.name, template.term
        if term is None:
            return operator.itemgetter(name)
        return lambda env: substitute(env[name], env["x"], env[term])
    cls = type(template)
    parts = [_compile(getattr(template, f)) for f in cls.__match_args__]
    if len(parts) == 2:
        left, right = parts
        return lambda env: cls(left(env), right(env))
    return lambda env: cls(parts[0](env))


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
    def match(self):
        """The pattern compiled: the function that binds in env its letters
        to the parts of a principal a, left to right, and says whether a
        has it (any a, when the row has none), checking each node's class,
        read by its attribute path, parent first."""
        tests, reads, todo = [], [], [(self.pattern, "")]
        while todo:  # depth first, left to right
            node, path = todo.pop()
            part = operator.attrgetter(path[1:]) if path else lambda a: a
            if isinstance(node, _Letter):
                reads.append((node.name, part))
            elif node is not None:
                tests.append((part, type(node)))
                todo += [(getattr(node, f), path + "." + f)
                         for f in reversed(node.__match_args__)]

        def match(a, env):
            for part, cls in tests:
                if type(part(a)) is not cls:
                    return False
            for name, part in reads:
                env[name] = part(a)
            return True
        return match

    @functools.cached_property
    def slots(self):
        """The formula letters of the pattern, left to right."""
        env = {}  # matched against itself, the pattern binds in order
        self.match(self.pattern, env)
        return tuple(n for n in env if n in ("A", "B"))

    @functools.cached_property
    def principal_of(self):
        """The function from letter values to the pattern filled in."""
        return _compile(self.pattern) if self.pattern else lambda values: None

    @functools.cached_property
    def filled(self):
        """The function from letter bindings to the additions of the
        conclusion, then of each premise."""
        fills = [tuple(map(_compile, adds))
                 for adds in (self.conclusion,) + self.premises]
        return lambda env: [(ant(env), suc(env)) for ant, suc in fills]

    @functools.cached_property
    def keep(self):
        """For a row that needs the principal alone (Cut aside) or with a t
        or y: the function from the principal a and the t or y (None for
        the rest) to the premises' additions, None when a lacks the pattern,
        read from and kept in a's ``_premises`` dict under (name, t or y)
        when a is a formula and t a variable or constant (y a name): no kept
        value holds a formula.  None for the seven rows filled per call."""
        if self.name == "Cut" or self.needs not in _KEEPS:
            return None
        match, filled, name, by = (
            self.match, self.filled, self.name, "".join(self.needs[1:]))

        def keep(a, t):
            u = Var(t) if by == "y" and t is not None else t
            key = (name, t) if type(a) in _FORMULAS and (
                not by or type(u) in (Var, Fun) and type(u.name) is str
                and not getattr(u, "args", 0)) else None  # None: not kept
            premises = getattr(a, "_premises", _NOT_KEPT).get(key, _ABSENT)
            if premises is _ABSENT:
                env = {"principal": a, "t": u, "y": u}  # the row reads one
                premises = tuple(filled(env)[1:]) if match(a, env) else None
                if key:
                    kept(a, "_premises", lambda a: {})[key] = premises
            return premises
        return keep

    @functools.cached_property
    def additions(self):
        """The forward reading: the function from a step by this rule to
        the additions of the conclusion, then of each premise; None when
        the step's principal does not have the pattern."""
        match, filled, keep, by = (
            self.match, self.filled, self.keep, "".join(self.needs[1:]))
        la, ls = map(len, self.conclusion)  # the principal, where it adds

        def additions(step):
            a = step.principal
            if keep is None:
                env = {"principal": a, "t": step.t, "t2": step.t2, "x": step.x,
                       "y": None if step.y is None else Var(step.y)}
                return filled(env) if match(a, env) else None
            premises = keep(a, getattr(step, by) if by else None)
            return (None if premises is None
                    else [((a,) * la, (a,) * ls), *premises])
        return additions

    @functools.cached_property
    def backward(self):
        """For the 17 rows that keep by the principal alone: the function
        from a sequent s and a formula a to the premises above s when this
        rule introduces a, each less a; None when a lacks the pattern."""
        if self.keep is None or self.needs != ("principal",):
            return None
        key, keep, left = (self.name, None), self.keep, self.side == "ant"

        def backward(s, a):
            premises = getattr(a, "_premises", _NOT_KEPT).get(key, _ABSENT)
            if premises is _ABSENT:
                premises = keep(a, None)
            if premises is None:
                return None
            ant, suc = (s.ant - {a}, s.suc) if left else (s.ant, s.suc - {a})
            return tuple([Sequent(ant.union(pa) if pa else ant,
                                  suc.union(ps) if ps else suc)
                          for pa, ps in premises])
        return backward

    @functools.cached_property
    def check(self):
        """The step checker: the function from a derivation d, an index i
        and d's step i, by this rule, to the step's first violation."""
        name, pack, needs, literal, eigen, keep, additions = (
            self.name, self.pack, self.needs, self.literal, self.eigen,
            self.keep, self.additions)
        arity, la, ls = len(self.premises), *map(len, self.conclusion)
        key, by = (name, None), "".join(self.needs[1:])
        leaf = not arity and not eigen  # a context fits once the sides do
        takes = "%s takes %d premises, got %%d" % (name, arity)

        def check(d, i, step):
            if pack is not None and pack not in d.packs:
                return Violation(i, Code.PACK_DISABLED,
                                 "%s needs pack %s" % (name, pack))
            cites = step.premises
            if len(cites) != arity:
                return Violation(i, Code.BAD_PREMISE_INDEX, takes % len(cites))
            for j in cites:
                if not isinstance(j, int) or not 0 <= j < i:
                    return Violation(
                        i, Code.BAD_PREMISE_INDEX,
                        "premise indices must point at earlier steps")
            for field in needs:
                if getattr(step, field) is None:
                    return Violation(i, Code.MISSING_FIELD,
                                     "%s requires %s" % (name, field))
            a, steps = step.principal, d.steps
            if literal and not is_literal(a):
                return Violation(i, Code.LITERAL_REQUIRED, str(a))
            if keep:  # a quantifier row's keep reads by its t or y
                padds = (keep(a, getattr(step, by)) if by else getattr(
                    a, "_premises", _NOT_KEPT).get(key, _ABSENT))
                if padds is _ABSENT:
                    padds = keep(a, None)
                ca, cs = (a,) * la, (a,) * ls
            elif name == "Cut":
                return _check_cut(i, step, [steps[j].sequent for j in cites])
            elif (padds := additions(step)) is not None:
                (ca, cs), *padds = padds
            if padds is None:
                return Violation(i, Code.PRINCIPAL_SHAPE,
                                 "%s cannot introduce %s" % (name, a))
            ant, suc = step.sequent.ant, step.sequent.suc
            if not (ant.issuperset(ca) and suc.issuperset(cs)):
                return Violation(i, Code.CONCLUSION_MISMATCH, next(
                    "%s missing on the %s" % (f, where) for fs, have, where
                    in ((ca, ant, "left"), (cs, suc, "right"))
                    for f in fs if f not in have))
            if leaf:
                return None
            if eigen:
                q, y = a.body if type(a) is Not else a, step.y  # quantifier
                if y != q.var and y in free_vars(q.body):
                    return Violation(i, Code.EIGENVARIABLE, "%s is free in "
                                     "the quantified formula" % y)
            base = (ant.difference(ca) if ca else ant,
                    suc.difference(cs) if cs else suc)
            contexts, blocked = [base], False
            for gamma, delta in contexts:
                for j, (pa, ps) in zip(cites, padds):
                    p = steps[j].sequent
                    if (p.ant != (gamma.union(pa) if pa else gamma)
                            or p.suc != (delta.union(ps) if ps else delta)):
                        break
                else:
                    if not (eigen and any(y in free_vars(f)
                                          for f in gamma | delta)):
                        return None
                    blocked = True
                if len(contexts) == 1:  # the one keeping none failed
                    gammas, deltas = [base[0]], [base[1]]
                    for f in ca:
                        gammas += [g | {f} for g in gammas]
                    for f in cs:
                        deltas += [g | {f} for g in deltas]
                    contexts += [(g, h) for g in gammas for h in deltas][1:]
            if blocked:
                return Violation(i, Code.EIGENVARIABLE,
                                 "%s is free in the conclusion context" % y)
            (pa, ps), p = padds[0], steps[cites[0]].sequent
            want = Sequent(base[0].union(pa), base[1].union(ps))
            return Violation(i, Code.PREMISE_MISMATCH, "expected first "
                             "premise like %s, got %s" % (want, p))
        return check


_FORMULAS = frozenset(Formula.__args__)
_NOT_KEPT = types.MappingProxyType({})  # the dict of a node that keeps none


def _L(*formulas):
    return formulas, ()


def _R(*formulas):
    return (), formulas


_DEN = Or(Eq(T, T2), Not(Eq(T, T2)))
_TERM, _EIGEN = ("principal", "t"), ("principal", "y")
_KEEPS = (("principal",), _TERM, _EIGEN)  # the needs of the rows that keep

RULES = {r.name: r for r in (
    # name, principal pattern, conclusion adds, premises add, conditions
    Rule("Id", A, ((P,), (P,)), literal=True),
    Rule("Cut", A, ((), ()), (_R(A), _L(A))),  # checked by _check_cut
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

PACKS = tuple(dict.fromkeys(row.pack for row in RULES.values() if row.pack))
_CHECKS = {name: row.check for name, row in RULES.items()}  # built at import


def _check_cut(i: int, step: DerivationStep, prem) -> Violation | None:
    a, (p1, p2) = step.principal, prem
    for side, which in ((p1.suc, "first premise succedent"),
                        (p2.ant, "second premise antecedent")):
        if a not in side:
            return Violation(i, Code.PREMISE_MISMATCH,
                             "cut formula %s not in %s" % (a, which))
    cut = frozenset((a,))
    if any(step.sequent == Sequent(p1.ant | (p2.ant - cut if r2 else p2.ant),
                                   (p1.suc - cut if r1 else p1.suc) | p2.suc)
           for r1 in (True, False) for r2 in (True, False)):
        return None
    return Violation(i, Code.CONCLUSION_MISMATCH,
                     "conclusion is not the premises' cut combination")


def _check_other(d: Derivation, i: int, step) -> Violation | None:
    """The violation of a hypothesis step, or of a step by no rule."""
    if step.rule != "hypothesis":
        return Violation(i, Code.UNKNOWN_RULE, step.rule)
    if step.premises:
        return Violation(i, Code.BAD_PREMISE_INDEX,
                         "hypothesis steps cite no premises")
    if step.sequent not in d.hypotheses:
        return Violation(i, Code.HYPOTHESIS_NOT_DECLARED, str(step.sequent))
    return None


def check_derivation(d: Derivation):
    """(True, None) if every step checks, else (False, first violation)."""
    if not d.steps:
        return False, Violation(0, Code.EMPTY_DERIVATION, "no steps")
    for pk in d.packs:
        if pk not in PACKS:
            return False, Violation(0, Code.PACK_DISABLED, "unknown pack %s" % pk)
    for i, step in enumerate(d.steps):
        v = _CHECKS.get(step.rule, _check_other)(d, i, step)
        if v is not None:
            return False, v
    return True, None


def is_proof(d: Derivation) -> bool:
    """A proof is a hypothesis-free derivation that checks."""
    return not d.hypotheses and check_derivation(d)[0]
