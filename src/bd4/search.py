"""Backward proof search for the propositional fragment.

The search decides first and searches second: ``consequence_prop``,
which evaluates the sequent over all valuations at once on the bit-pair
engine, settles whether it holds, and only the positive case goes to
backward search, so countermodels always come from that oracle and
never from a failed bounded search.  Past the oracle's scan cap the
search runs alone, and only a proof it finds is an answer.

The search reads the kernel's rule table backwards: the base rules that
need only a principal are the decompositions, each run by its compiled
``Rule.backward``, and a formula finds its one rule by its side and head
constructor.  All of them are invertible on the matrix (the premise set
holds exactly when the conclusion does, pointwise per valuation), which
makes the base search complete without Cut: decompose until only
literals remain, close by Id / F-L / notF-R, and a stuck literal-only
sequent is genuinely invalid.  The not-L / not-R pack rules are applied
only at stuck literal-only sequents, as backtracking choice points; each
application consumes one negated literal, so that phase terminates too.

A sequent closes by F-L, notF-R or Id on its least shared literal, or
else is decomposed at its least decomposable formula, the antecedent's
first; least is in the canonical order (``formula_key``), read from the
kept printed form.  A step is appended as each sequent is proved, so
the derivation comes out of the search itself, premises before
conclusions.  The memo maps a sequent to its step, so a sequent that
two branches share is one step that both cite.
"""

from __future__ import annotations

from .kernel import RULES, Derivation, DerivationStep
from .parser import _clip, _quote
from .semantics import EnumerationCapExceeded, SemanticsError, consequence_prop
from .syntax import (
    TRUTH, Falsity, Not, Sequent, _record, formula_key, is_literal,
)
from .values import MODE_VALUES

_MODE_PACK_RULES = {
    "base": (), "lp": ("not-R",), "k3": ("not-L",), "cl": ("not-L", "not-R"),
}
MODES = tuple(_MODE_PACK_RULES)


@_record
class SearchBudget:
    max_nodes: int = 100_000
    mode: str = "base"

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.mode not in MODES:
            raise ValueError("unknown mode %s" % _quote(str(self.mode)))


@_record
class SearchResult:
    status: str  # proved | refuted | exhausted
    proof: Derivation | None = None
    countermodel: dict | None = None
    bound: str | None = None  # "nodes" when the node budget ran out

    @property
    def proved(self) -> bool:
        return self.status == "proved"


class _Exhausted(Exception):
    """The node budget ran out; the argument names it."""


_FALSITY = Falsity()
_OPEN = object()  # not in the memo


# base rules that also need a term or an eigenvariable are first-order;
# keyed by constructor as a formula is, under a negation by both
_DECOMPOSE = tuple({(Not, type(r.pattern.body)) if type(r.pattern) is Not
                    else type(r.pattern): r for r in RULES.values()
                    if r.side == side and r.pack is None
                    and r.needs == ("principal",)} for side in ("ant", "suc"))

# each mode's pack rules, in the order its choice points try them
_PACK_RULES = {mode: tuple([RULES[r] for r in rules])
               for mode, rules in _MODE_PACK_RULES.items()}


def _choices(s: Sequent, pack_rules):
    """Choice points at a stuck literal-only sequent: (rule, principal,
    premise) in rule order, then canonical order."""
    for rule in pack_rules:
        for a in sorted(getattr(s, rule.side), key=formula_key):
            premises = rule.backward(s, a)
            if premises is not None:
                yield rule, a, premises[0]


class _Searcher:
    """Depth-first search with a memo.  Each sequent being searched is a
    frame on a list, so proof depth is not bounded by Python's recursion
    limit; a memo hit is answered at once and takes no frame."""

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.nodes = 0

    def solve(self, s: Sequent) -> Derivation | None:
        """The derivation of s, or None.  A frame is [sequent, rule,
        principal, goals, kids]: a decomposition's premises and the steps
        of those proved so far, or at a choice point the remaining
        (rule, principal, premise) choices and None; each is a counted
        node, so the node budget bounds the depth.  The memo maps a
        sequent's (ant, suc) pair to its step's index, or None if failed.

        A step is appended as its sequent is proved, with no undo log:
        below a choice point all sequents are literal-only, so a failed
        choice proved nothing, and a failed decomposition fails every
        frame down to the root.  So a proved root's steps are exactly
        its proof, in post-order, each shared step once.  The node count
        is a local, put back in ``nodes`` on every exit, ``_Exhausted``'s
        included."""
        memo, stack, nodes = {}, [], self.nodes
        max_nodes = self.budget.max_nodes
        steps, packs, pack_rules = [], set(), _PACK_RULES[self.budget.mode]
        while True:
            ant, suc = s.ant, s.suc
            done = memo.get((ant, suc), _OPEN)
            if done is _OPEN:
                nodes += 1
                if nodes > max_nodes:
                    self.nodes = nodes
                    raise _Exhausted("nodes")
                move = principal = None
                if _FALSITY in ant:
                    move = "F-L"
                elif TRUTH in suc:
                    move = "notF-R"
                else:  # Id on the least shared literal
                    for a in ant & suc:
                        if is_literal(a):
                            key = a._text or formula_key(a)
                            if move is None or key < least:
                                move, principal, least = "Id", a, key
                if move is not None:
                    done = len(steps)
                    steps.append(DerivationStep(move, s, (), principal))
                else:
                    # the least decomposable formula, antecedent first
                    for rules, side in zip(_DECOMPOSE, (ant, suc)):
                        for a in side:
                            cls = a.__class__  # as the rules are keyed
                            rule = rules.get(cls if cls is not Not
                                             else (Not, a.body.__class__))
                            if rule is not None:
                                key = a._text or formula_key(a)
                                if move is None or key < least:
                                    move, principal, least = rule, a, key
                        if move is not None:
                            break
                    if move is not None:
                        # all decompositions are invertible: commit to it
                        goals = move.backward(s, principal)
                        stack.append([s, move, principal, goals, []])
                        s = goals[0]
                        continue
                    # stuck on literals: pack rules are genuine choices
                    goals = _choices(s, pack_rules)
                    choice = next(goals, None)
                    if choice is not None:
                        stack.append([s, *choice[:2], goals, None])
                        s = choice[2]
                        continue
                    done = None
                memo[ant, suc] = done
            # hand the step down to the frames that wait for it
            while stack:
                frame = stack[-1]
                top, rule, principal, goals, kids = frame
                if kids is None and done is None:
                    choice = next(goals, None)
                    if choice is not None:
                        frame[1:3] = choice[:2]
                        s = choice[2]
                        break
                elif kids is None:
                    packs.add(rule.pack)
                    steps.append(DerivationStep(rule.name, top, (done,),
                                                principal))
                    done = len(steps) - 1
                elif done is not None:
                    kids.append(done)
                    if len(kids) < len(goals):
                        s = goals[len(kids)]
                        break
                    steps.append(DerivationStep(rule.name, top, tuple(kids),
                                                principal))
                    done = len(steps) - 1
                stack.pop()
                memo[top.ant, top.suc] = done
            else:
                self.nodes = nodes
                if done is None:
                    return None
                return Derivation(tuple(steps), frozenset(packs), ())


def prove_prop(s: Sequent, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """Prove, refute, or give up on a propositional sequent.

    The oracle runs first over the valuation set matching the budget's
    mode, so a refutation is always a genuine countervaluation.  On the
    positive side the backward search builds a derivation; its packs
    field names the notLR pack exactly when a pack rule was used.  When
    the oracle gives up at its scan cap, the search still runs: a proof
    it finds is the answer, and with none the oracle's error stands.
    """
    allowed = MODE_VALUES["bd" if budget.mode == "base" else budget.mode]
    try:
        holds, witness = consequence_prop(s.ant, s.suc, allowed)
    except EnumerationCapExceeded:
        try:
            proof = _Searcher(budget).solve(s)
        except _Exhausted:
            proof = None
        if proof is None:
            raise
        return SearchResult("proved", proof, None, None)
    if not holds:
        return SearchResult("refuted", None, witness, None)
    try:
        proof = _Searcher(budget).solve(s)
    except _Exhausted as exc:
        return SearchResult("exhausted", None, None, exc.args[0])
    if proof is None:
        # the oracle said valid and every decomposition is invertible, so
        # only an extra connective such as Des, which no rule takes apart,
        # can leave the search stuck
        raise SemanticsError("no sequent rule proves %s, though it holds"
                             % _clip(str(s), str))
    return SearchResult("proved", proof, None, None)
