"""Propositional evaluation as it was written before it dispatched on the
node's class: ``match`` class patterns, an ``And | Or | Imp`` case
trying each class in turn.  Kept as the reference that the package's
``evaluate_prop`` must agree with, value for value and error for
error."""

from __future__ import annotations

from bd4.semantics import SemanticsError
from bd4.syntax import And, ExtApp, Falsity, Imp, Not, Or, Prop
from bd4.values import EXTRA_CONNECTIVES, F, imp, join, meet, neg

_BINARY = {And: meet, Or: join, Imp: imp}


def evaluate_prop(a, valuation: dict):
    """Value of a propositional formula under a valuation."""
    match a:
        case Prop(name):
            try:
                return valuation[name]
            except KeyError:
                raise SemanticsError("no value for proposition %s" % name) from None
        case Falsity():
            return F
        case Not(b):
            return neg(evaluate_prop(b, valuation))
        case And(l, r) | Or(l, r) | Imp(l, r):
            return _BINARY[a.__class__](evaluate_prop(l, valuation),
                                        evaluate_prop(r, valuation))
        case ExtApp(conn, args):
            table = EXTRA_CONNECTIVES[conn][1]
            return table[evaluate_prop(args[0], valuation) if args else 0]
    raise SemanticsError("not a propositional formula: %s" % (a,))
