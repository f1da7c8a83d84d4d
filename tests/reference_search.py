"""The proof search as it was before it ran as one loop: each sequent is
a generator frame that yields its subgoals, memo hits included, and the
moves are found with ``head`` and ``formula_key`` per formula.  A
proof is a tree of nodes, shared through the memo, that a second walk
turns into a derivation.  Kept as the reference that ``bd4.search`` must
agree with, result for result."""

from __future__ import annotations

from dataclasses import dataclass

from bd4.kernel import RULES, Derivation, DerivationStep
from bd4.search import (
    _MODE_PACK_RULES, SearchBudget, SearchResult, _Exhausted,
)
from bd4.semantics import consequence_prop
from bd4.syntax import TRUTH, Falsity, Not, Sequent, formula_key, is_literal
from bd4.values import MODE_VALUES

_FALSITY = Falsity()


def head(a):
    """Dispatch key of a formula or pattern: its constructor, and under
    a negation the negated formula's constructor as well."""
    return (Not, type(a.body)) if isinstance(a, Not) else type(a)


@dataclass
class _Node:
    rule: str
    sequent: Sequent
    children: tuple = ()
    principal: object = None


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


def _closure(s: Sequent) -> _Node | None:
    if _FALSITY in s.ant:
        return _Node("F-L", s)
    if TRUTH in s.suc:
        return _Node("notF-R", s)
    shared = [a for a in s.ant if a in s.suc and is_literal(a)]
    if shared:
        return _Node("Id", s, principal=min(shared, key=formula_key))
    return None


_DECOMPOSE = {(r.side, head(r.pattern)): r for r in RULES.values()
              if r.pack is None and r.side and r.needs == ("principal",)}


def _first_move(s: Sequent):
    for side, formulas in (("ant", s.ant), ("suc", s.suc)):
        best = None
        for a in formulas:
            rule = _DECOMPOSE.get((side, head(a)))
            if rule is not None and (
                    best is None or formula_key(a) < formula_key(best)):
                best, move = a, rule
        if best is not None:
            return move, best
    return None


def _choices(s: Sequent, pack_rules):
    for rule in pack_rules:
        for a in sorted(getattr(s, rule.side), key=formula_key):
            premises = rule.backward(s, a)
            if premises is not None:
                yield rule, a, premises[0]


class _Searcher:
    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.pack_rules = [RULES[r] for r in _MODE_PACK_RULES[budget.mode]]
        self.nodes = 0
        self.memo: dict = {}

    def solve(self, s: Sequent) -> _Node | None:
        stack, result = [self._solve(s)], None
        while stack:
            try:
                stack.append(self._solve(stack[-1].send(result)))
                result = None
            except StopIteration as done:
                stack.pop()
                result = done.value
        return result

    def _solve(self, s: Sequent):
        if s in self.memo:
            return self.memo[s]
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise _Exhausted("nodes")

        node = _closure(s)
        move = _first_move(s) if node is None else None
        if move is not None:
            rule, principal = move
            kids = []
            for p in rule.backward(s, principal):
                kid = yield p
                if kid is None:
                    break
                kids.append(kid)
            else:
                node = _Node(rule.name, s, tuple(kids), principal)
        elif node is None:
            for rule, principal, premise in _choices(s, self.pack_rules):
                kid = yield premise
                if kid is not None:
                    node = _Node(rule.name, s, (kid,), principal)
                    break
        self.memo[s] = node
        return node


def reference_prove_prop(s: Sequent, budget: SearchBudget) -> SearchResult:
    """``prove_prop`` with this searcher."""
    allowed = MODE_VALUES["bd" if budget.mode == "base" else budget.mode]
    holds, witness = consequence_prop(s.ant, s.suc, allowed)
    if not holds:
        return SearchResult("refuted", countermodel=witness)
    try:
        root = _Searcher(budget).solve(s)
    except _Exhausted as exc:
        return SearchResult("exhausted", bound=exc.args[0])
    assert root is not None
    return SearchResult("proved", proof=_linearize(root))
