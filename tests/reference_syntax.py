"""Slow references for ``bd4.syntax``.

``node_repr`` is the repr of nodes and records as it was written before
it kept its own stack: the dataclass text, each field's value written by
a recursive call, so one Python frame or more per nesting level.  The
tuples, lists, sets, frozensets and dicts that hold field values are
written out here as Python writes them, so the reference never calls the
package's repr on a nested node.

``substitute_term`` and ``substitute`` are the recursive forms as they
were written before terms were rebuilt on their own stack; this
``substitute`` calls this ``substitute_term``.
"""

from __future__ import annotations

from bd4 import syntax
from bd4.syntax import (
    And, Eq, Exists, ExtApp, Falsity, Forall, Formula, Fun, Imp, Not, Or,
    Pred, Prop, Term, Var, free_vars, fresh_var,
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
