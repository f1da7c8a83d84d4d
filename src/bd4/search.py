"""Backward proof search for the propositional fragment.

The search decides first and searches second: ``consequence_prop``,
which evaluates the sequent over all valuations at once on the bit-pair
engine, settles whether it holds, and only the positive case goes to
backward search, so countermodels always come from that oracle and
never from a failed bounded search.

The search reads the kernel's rule table backwards.  The base rules
that need only a principal are the decompositions; each formula finds
its one rule by the side and head constructor of the formula.  All of
them are invertible on the matrix (the premise set holds exactly when
the conclusion does, pointwise per valuation), which makes the base
search complete without Cut: decompose until only literals remain,
close by Id / F-L / notF-R, and a stuck literal-only sequent is
genuinely invalid.  The not-L / not-R pack rules are applied only at
stuck literal-only sequents, as backtracking choice points; each
application consumes one negated literal, so that phase terminates too.

Each decomposition takes the least decomposable formula in the
canonical order (``formula_key``), the antecedent before the succedent.
The memo shares nodes between branches, so a proof is a graph; its
derivation lists each node once, in post-order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import RULES, Derivation, DerivationStep, head
from .semantics import consequence_prop
from .syntax import TRUTH, Falsity, Sequent, formula_key, is_literal
from .values import MODE_VALUES

MODES = ("base", "lp", "k3", "cl")

_MODE_PACK_RULES = {
    "base": (), "lp": ("not-R",), "k3": ("not-L",), "cl": ("not-L", "not-R"),
}


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 200
    max_nodes: int = 100_000
    mode: str = "base"

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_nodes <= 0:
            raise ValueError("budget bounds must be positive")
        if self.mode not in MODES:
            raise ValueError("unknown mode %r" % (self.mode,))


@dataclass
class SearchResult:
    status: str  # proved | refuted | exhausted
    proof: Derivation | None = None
    countermodel: dict | None = None
    bound: str | None = None  # depth | nodes: the bound that ran out

    @property
    def proved(self) -> bool:
        return self.status == "proved"


class _Exhausted(Exception):
    """A search bound ran out; the argument names it."""


@dataclass
class _Node:
    rule: str
    sequent: Sequent
    children: tuple = ()
    principal: object = None


_FALSITY = Falsity()
_OPEN = object()  # not in the memo


def _closure(s: Sequent) -> _Node | None:
    if _FALSITY in s.ant:
        return _Node("F-L", s)
    if TRUTH in s.suc:
        return _Node("notF-R", s)
    shared = [a for a in s.ant if a in s.suc and is_literal(a)]
    if shared:
        return _Node("Id", s, principal=min(shared, key=formula_key))
    return None


# base rules that also need a term or an eigenvariable are first-order
_DECOMPOSE = tuple({head(r.pattern): r for r in RULES.values()
                    if r.side == side and r.pack is None
                    and r.needs == ("principal",)} for side in ("ant", "suc"))


def _first_move(s: Sequent):
    """The first decomposition in canonical order: (rule, principal).
    Of formulas with equal keys, the first in iteration order."""
    for rules, formulas in zip(_DECOMPOSE, (s.ant, s.suc)):
        best = None
        for a in formulas:
            rule = rules.get(head(a))
            if rule is not None:
                key = formula_key(a)
                if best is None or key < best_key:
                    best, move, best_key = a, rule, key
        if best is not None:
            return move, best
    return None


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
        self.pack_rules = [RULES[r] for r in _MODE_PACK_RULES[budget.mode]]
        self.nodes = 0
        self.memo: dict = {}

    def solve(self, s: Sequent) -> _Node | None:
        """The node of s, or None.  A frame is [sequent, depth, rule,
        principal, goals, kids]: a decomposition's premises and the
        nodes of those proved so far, or at a choice point the remaining
        (rule, principal, premise) choices and None."""
        memo, stack, depth = self.memo, [], 0
        max_depth, max_nodes = self.budget.max_depth, self.budget.max_nodes
        while True:
            node = memo.get(s, _OPEN)
            if node is _OPEN:
                if depth > max_depth:
                    raise _Exhausted("depth")
                self.nodes += 1
                if self.nodes > max_nodes:
                    raise _Exhausted("nodes")
                node = _closure(s)
                if node is None:
                    move = _first_move(s)
                    if move is not None:
                        # all decompositions are invertible: commit to it
                        goals = move[0].backward(s, move[1])
                        stack.append([s, depth, *move, goals, []])
                        s, depth = goals[0], depth + 1
                        continue
                    # stuck on literals: pack rules are genuine choices
                    goals = _choices(s, self.pack_rules)
                    choice = next(goals, None)
                    if choice is not None:
                        stack.append([s, depth, *choice[:2], goals, None])
                        s, depth = choice[2], depth + 1
                        continue
                memo[s] = node
            # hand the node down to the frames that wait for it
            while stack:
                frame = stack[-1]
                top, at, rule, principal, goals, kids = frame
                if kids is None and node is None:
                    choice = next(goals, None)
                    if choice is not None:
                        frame[2:4] = choice[:2]
                        s, depth = choice[2], at + 1
                        break
                elif kids is None:
                    node = _Node(rule.name, top, (node,), principal)
                elif node is not None:
                    kids.append(node)
                    if len(kids) < len(goals):
                        s, depth = goals[len(kids)], at + 1
                        break
                    node = _Node(rule.name, top, tuple(kids), principal)
                stack.pop()
                memo[top] = node
            else:
                return node


def _linearize(root: _Node) -> Derivation:
    """Steps in post-order, premises in order, each node once.  A node
    popped unexpanded goes back expanded, under its children; popped
    expanded it becomes a step, and once a step it is skipped."""
    steps = []
    index_of: dict = {}
    used_packs = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in index_of:
            continue
        if not expanded:
            stack.append((node, True))
            stack.extend((k, False) for k in reversed(node.children))
            continue
        pack = RULES[node.rule].pack
        if pack is not None:
            used_packs.add(pack)
        index_of[id(node)] = len(steps)
        steps.append(DerivationStep(
            node.rule, node.sequent,
            tuple([index_of[id(k)] for k in node.children]), node.principal))
    return Derivation(tuple(steps), packs=frozenset(used_packs))


def prove_prop(s: Sequent, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """Prove, refute, or give up on a propositional sequent.

    The oracle runs first over the valuation set matching the budget's
    mode, so a refutation is always a genuine countervaluation.  On the
    positive side the backward search builds a derivation; its packs
    field names the notLR pack exactly when a pack rule was used.
    """
    allowed = MODE_VALUES["bd" if budget.mode == "base" else budget.mode]
    holds, witness = consequence_prop(s.ant, s.suc, allowed)
    if not holds:
        return SearchResult("refuted", countermodel=witness)
    searcher = _Searcher(budget)
    try:
        root = searcher.solve(s)
    except _Exhausted as exc:
        return SearchResult("exhausted", bound=exc.args[0])
    if root is None:
        # the oracle said valid but the search failed; with invertible
        # decompositions this cannot happen, so surface it loudly
        raise RuntimeError("search disagrees with oracle on %s" % (s,))
    return SearchResult("proved", proof=_linearize(root))
