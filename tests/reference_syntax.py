"""Slow references for ``bd4.syntax``.

``node_repr`` is the repr of nodes and records as it was written before
it kept its own stack: the dataclass text, each field's value written by
a recursive call, so one Python frame or more per nesting level.  The
tuples, lists, sets, frozensets and dicts that hold field values are
written out here as Python writes them, so the reference never calls the
package's repr on a nested node.
"""

from __future__ import annotations

from bd4 import syntax


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
