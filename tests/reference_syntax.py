"""Slow references for ``bd4.syntax``.

``node_repr`` is the repr of nodes and records as it was written before
it kept its own stack: the dataclass text, each field's value written by
a recursive call, so one Python frame or more per nesting level.  The
tuples, lists, sets, frozensets and dicts that hold field values are
written out here as Python writes them, so the reference never calls the
package's repr on a nested node.

``substitute_term`` and ``substitute`` are the recursive forms as they
were written before terms and then formulas were rebuilt on their own
stacks; this ``substitute`` calls this ``substitute_term``.

``print_formula`` is the printer as it was written before the printed
form was filled from one table on its own stack: the 13 node classes'
``__str__`` bodies, each part printed by a recursive call (``str(a)``
and ``"%s" % a`` there are ``print_formula(a)`` here), so two frames or
more per nesting level.  It keeps nothing on the nodes.
"""

from __future__ import annotations

from bd4 import syntax
from bd4.syntax import (
    _LEVEL, And, Eq, Exists, ExtApp, Falsity, Forall, Formula, Fun, Imp, Not,
    Or, Pred, Prop, Term, Var, free_vars, fresh_var,
)


def node_repr(value) -> str:
    cls = value.__class__
    if cls.__repr__ is syntax._repr:
        return "%s(%s)" % (cls.__qualname__, ", ".join(
            "%s=%s" % (n, node_repr(getattr(value, n)))
            for n in cls.__match_args__))
    if not value or cls not in (tuple, list, set, frozenset, dict):
        return repr(value)
    if cls is dict:
        return "{%s}" % ", ".join("%s: %s" % (node_repr(k), node_repr(v))
                                  for k, v in value.items())
    items = ", ".join(map(node_repr, value))
    if cls is tuple:
        return "(%s,)" % items if len(value) == 1 else "(%s)" % items
    if cls is list:
        return "[%s]" % items
    return ("{%s}" if cls is set else "frozenset({%s})") % items


def substitute_term(t: Term, x: str, s: Term) -> Term:
    match t:
        case Var(name):
            return s if name == x else t
        case Fun(name, args):
            return Fun(name, tuple(substitute_term(a, x, s) for a in args))
    raise TypeError("not a term: %r" % (t,))


def substitute(a: Formula, x: str, t: Term) -> Formula:
    """Replace free occurrences of x in a by t, renaming bound variables
    when a free variable of t would be captured."""
    match a:
        case Falsity() | Prop(_):
            return a
        case Pred(name, args):
            return Pred(name, tuple(substitute_term(u, x, t) for u in args))
        case Eq(l, r):
            return Eq(substitute_term(l, x, t), substitute_term(r, x, t))
        case ExtApp(conn, args):
            return ExtApp(conn, tuple(substitute(u, x, t) for u in args))
        case Not(b):
            return Not(substitute(b, x, t))
        case And(l, r) | Or(l, r) | Imp(l, r):
            return type(a)(substitute(l, x, t), substitute(r, x, t))
        case Forall(y, b) | Exists(y, b):
            cls = type(a)
            if y == x:
                return a
            if x not in free_vars(b):
                return a
            if y in free_vars(t):
                z = fresh_var(y, free_vars(b) | free_vars(t) | {x})
                b = substitute(b, y, Var(z))
                return cls(z, substitute(b, x, t))
            return cls(y, substitute(b, x, t))
    raise TypeError("not a formula: %r" % (a,))


def print_formula(a) -> str:
    """The printed form of a term or formula, by its class's body."""
    return _STR[a.__class__](a)


def _wrap(a: "Formula", need: int) -> str:
    lvl = 5 if a.__class__ is ExtApp and not a.args else _LEVEL[type(a)]
    return "(%s)" % print_formula(a) if lvl < need else print_formula(a)


def _var(self) -> str:
    return self.name


def _fun(self) -> str:
    if not self.args:
        return self.name
    return "%s(%s)" % (self.name, ", ".join(print_formula(a)
                                            for a in self.args))


def _falsity(self) -> str:
    return "F"


def _prop(self) -> str:
    return self.name


def _pred(self) -> str:
    return "%s(%s)" % (self.name, ", ".join(print_formula(a)
                                            for a in self.args))


def _eq(self) -> str:
    return "%s = %s" % (print_formula(self.left), print_formula(self.right))


def _not(self) -> str:
    return "~" + _wrap(self.body, 4)


def _and(self) -> str:
    return "%s & %s" % (_wrap(self.left, 3), _wrap(self.right, 4))


def _or(self) -> str:
    return "%s | %s" % (_wrap(self.left, 2), _wrap(self.right, 3))


def _imp(self) -> str:
    # right-associative: the right child keeps the same level
    return "%s -> %s" % (_wrap(self.left, 2), _wrap(self.right, 1))


def _forall(self) -> str:
    return "forall %s. %s" % (self.var, print_formula(self.body))


def _exists(self) -> str:
    return "exists %s. %s" % (self.var, print_formula(self.body))


def _extapp(self) -> str:
    if not self.args:
        return self.conn
    return "%s %s" % (self.conn, _wrap(self.args[0], 4))


_STR = {Var: _var, Fun: _fun, Falsity: _falsity, Prop: _prop, Pred: _pred,
        Eq: _eq, Not: _not, And: _and, Or: _or, Imp: _imp, Forall: _forall,
        Exists: _exists, ExtApp: _extapp}
