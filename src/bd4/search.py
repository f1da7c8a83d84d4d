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
_DECOMPOSE = {(r.side, head(r.pattern)): r for r in RULES.values()
              if r.pack is None and r.side and r.needs == ("principal",)}


def _first_move(s: Sequent):
    """The first decomposition in canonical order: (rule, principal)."""
    for side, formulas in (("ant", s.ant), ("suc", s.suc)):
        for a in sorted(formulas, key=formula_key):
            rule = _DECOMPOSE.get((side, head(a)))
            if rule is not None:
                return rule, a
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
    """Depth-first search with a memo.  Each sequent is one generator
    frame on an explicit stack, so proof depth is not bounded by
    Python's recursion limit."""

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.pack_rules = [RULES[r] for r in _MODE_PACK_RULES[budget.mode]]
        self.nodes = 0
        self.memo: dict = {}

    def solve(self, s: Sequent) -> _Node | None:
        stack, result = [self._solve(s, 0)], None
        while stack:
            try:
                stack.append(self._solve(*stack[-1].send(result)))
                result = None
            except StopIteration as done:
                stack.pop()
                result = done.value
        return result

    def _solve(self, s: Sequent, depth: int):
        """Yields (premise, depth) for each subgoal and is sent back its
        node or None; returns the node of ``s`` or None."""
        if s in self.memo:
            return self.memo[s]
        if depth > self.budget.max_depth:
            raise _Exhausted("depth")
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise _Exhausted("nodes")

        node = _closure(s)
        move = _first_move(s) if node is None else None
        if move is not None:
            # all decompositions are invertible, so commit to the first
            rule, principal = move
            kids = []
            for p in rule.backward(s, principal):
                kid = yield p, depth + 1
                if kid is None:
                    break
                kids.append(kid)
            else:
                node = _Node(rule.name, s, tuple(kids), principal)
        elif node is None:
            # stuck on literals: pack rules are genuine choice points
            for rule, principal, premise in _choices(s, self.pack_rules):
                kid = yield premise, depth + 1
                if kid is not None:
                    node = _Node(rule.name, s, (kid,), principal)
                    break
        self.memo[s] = node
        return node


def _linearize(root: _Node) -> Derivation:
    """Steps in post-order, premises in order, each node once."""
    steps = []
    index_of: dict = {}
    used_packs = set()
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in index_of:
            stack.pop()
            continue
        todo = [k for k in node.children if id(k) not in index_of]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        pack = RULES[node.rule].pack
        if pack is not None:
            used_packs.add(pack)
        steps.append(DerivationStep(
            node.rule, node.sequent,
            premises=tuple(index_of[id(k)] for k in node.children),
            principal=node.principal,
        ))
        index_of[id(node)] = len(steps) - 1
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
