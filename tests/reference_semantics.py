"""Slow references for ``bd4.semantics``.

``evaluate_prop`` is propositional evaluation as it was written before
it dispatched on the node's class: ``match`` class patterns, an
``And | Or | Imp`` case trying each class in turn.  The package's
``evaluate_prop`` must agree with it, value for value and error for
error.

``enumerate_structures`` is the structure enumeration as it was written
before it read the sweep: nested loops over the constants, function
tables, propositions, predicate tables and equality tables.  The
package's ``enumerate_structures``, the sweep's columns and
``FOSpace``'s decoded columns are compared with it.

``consequence_fo`` is the first-order consequence check as it was
written before its pre-scan was cached per query shape and before its
quantifiers were evaluated in place: every call builds the signature of
the symbols that occur, tests the arities for a size far past the cap,
and sums the laid-out structures of each size before it takes the
sweeps; the grounding bound counts the code the package runs
(``compiled`` with a quantifier whose body does not use its variable
compiled to its body), but each size's code (``compiled``, every
quantifier whole) is grounded (``_ground``), the pairs of its ground
atoms filled per block (``fill``), kept by ``_shape`` as the package
keeps them, and the flat code run by ``_run``.  The package's ``consequence_fo`` must agree with
it, result for result and refusal for refusal.
"""

from __future__ import annotations

import itertools
import math

from bd4 import semantics
from bd4.semantics import (
    EnumerationCapExceeded, FOResult, SemanticsError, Structure,
)
from bd4.syntax import (
    And, Eq, Exists, ExtApp, Falsity, Forall, Imp, Not, Or, Pred, Prop,
    Signature, Var, _rebind, free_vars,
)
from bd4.values import (
    ALL_VALUES, B, EXTRA_CONNECTIVES, F, T, VALUES, imp, join, meet, neg,
)

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


def enumerate_structures(sig: Signature, size: int, mode: str = "total",
                         allowed=ALL_VALUES, need_eq: bool = True,
                         eq_distinct=None):
    """All structures with the given domain size, in a fixed order.

    In partial mode the first domain element is the bottom and ``size``
    counts it, so size 2 means bottom plus one ordinary element.  The
    ``allowed`` restriction draws every predicate and equality value
    from that set (used for the LP/K3/CL submatrix spot checks).

    By default the equality table on distinct element pairs ranges over
    every allowed value, which is all the structure definition asks
    for.  ``eq_distinct`` narrows that range; it exists so soundness
    diagnostics can re-run a sweep over the subclass where designated
    equality implies element identity.  A size below 1, or below 2 in
    partial mode, gives none.
    """
    if size < (2 if mode == "partial" else 1):
        return
    if mode == "partial":
        if allowed is not ALL_VALUES:
            raise SemanticsError("partial mode does not combine with restrictions")
        domain = ("u",) + tuple("d%d" % i for i in range(1, size))
        bottom = "u"
        real = domain[1:]
    else:
        domain = tuple("d%d" % i for i in range(1, size + 1))
        bottom = None
        real = domain
    vals = tuple(v for v in VALUES if v in allowed)
    des_vals = tuple(v for v in (T, B) if v in allowed)

    const_names = [n for n, a in sig.functions if a == 0]
    func_syms = [(n, a) for n, a in sig.functions if a > 0]
    prop_names = [n for n, a in sig.predicates if a == 0]
    pred_syms = [(n, a) for n, a in sig.predicates if a > 0]

    const_choices = list(itertools.product(domain, repeat=len(const_names)))
    func_tables = []
    for name, a in func_syms:
        keys = list(itertools.product(domain, repeat=a))
        func_tables.append(
            (name, keys, list(itertools.product(domain, repeat=len(keys))))
        )
    prop_choices = list(itertools.product(vals, repeat=len(prop_names)))
    pred_tables = []
    for name, a in pred_syms:
        keys = list(itertools.product(domain, repeat=a))
        pred_tables.append(
            (name, keys, list(itertools.product(vals, repeat=len(keys))))
        )
    dist_vals = vals if eq_distinct is None else tuple(eq_distinct)
    if need_eq:
        eq_eq_keys = [(d, d) for d in real]
        eq_ne_keys = [
            (d1, d2) for d1 in real for d2 in real if d1 != d2
        ]
        eq_choices = [
            (dict(zip(eq_eq_keys, eqs)) | dict(zip(eq_ne_keys, nes)))
            for eqs in itertools.product(des_vals, repeat=len(eq_eq_keys))
            for nes in itertools.product(dist_vals, repeat=len(eq_ne_keys))
        ]
    else:
        eq_choices = [{}]

    for consts in const_choices:
        cmap = dict(zip(const_names, consts))
        for fchoice in itertools.product(*(t[2] for t in func_tables)):
            fmap = {
                name: dict(zip(keys, out))
                for (name, keys, _), out in zip(func_tables, fchoice)
            }
            for props in prop_choices:
                pmap = dict(zip(prop_names, props))
                for pchoice in itertools.product(*(t[2] for t in pred_tables)):
                    prmap = {
                        name: dict(zip(keys, out))
                        for (name, keys, _), out in zip(pred_tables, pchoice)
                    }
                    for eqt in eq_choices:
                        yield Structure(
                            domain=domain, consts=dict(cmap), funcs=fmap,
                            props=dict(pmap), preds=prmap, eq=dict(eqt),
                            bottom=bottom,
                        )


def consequence_fo(gamma, delta, sig: Signature, max_domain: int = 3,
                   mode: str = "total", cap: int = 10**7,
                   allowed=ALL_VALUES, eq_distinct=None) -> FOResult:
    """Bounded countermodel search with its pre-scan inline."""
    S = semantics
    gamma, delta = list(gamma), list(delta)
    code, funcs, preds, has_eq, fv = S._compile(gamma + delta, sig)
    run = [op for a in gamma + delta for op in compiled(a, False)]
    code = [op for a in gamma + delta for op in compiled(a)]
    small = Signature(tuple(sorted(funcs)), tuple(sorted(preds)), sig.extras)
    least = 2 if mode == "partial" else 1
    if max_domain < least:
        raise SemanticsError(
            "domain bound %d admits no structure; the least %sdomain size "
            "is %d" % (max_domain, "partial " if least == 2 else "", least))

    elements, items = S._grounding(run, least, max_domain, cap)
    if elements > cap or items > cap:
        raise EnumerationCapExceeded(
            "would lay out %s domain elements and ground at least %s "
            "formula items (cap %d)" % (S._count(elements), S._count(items),
                                        cap))

    limit = cap.bit_length() + 64
    shape = (mode, frozenset(allowed), has_eq,
             None if eq_distinct is None else tuple(eq_distinct))
    far = S._structure_bits(small, max_domain, *shape) > limit
    total = 0
    for size in range(least, max_domain + 1):
        bits = S._structure_bits(small, size, *shape) if far else 0
        if bits > limit:
            k = bits * math.log10(2)
            raise EnumerationCapExceeded(
                "would enumerate at least %s structures (cap %d)"
                % ("about 10^%d" % k if k < 1e15 else "10^(10^15)", cap))
        total += S._layout(small, size, *shape, fv)[-1] // size ** len(fv)
        if total > cap:
            raise EnumerationCapExceeded(
                "would enumerate at least %d structures (cap %d)"
                % (total, cap))
    if total == 0:
        raise SemanticsError(
            "value set {%s} admits no structure of these symbols up to "
            "domain %d" % (", ".join(str(v) for v in VALUES if v in allowed),
                           max_domain))

    sweeps = (S._fo_sweep(small, size, *shape, fv, S._BLOCK_COLUMNS)
              for size in range(least, max_domain + 1))
    hit = S._first(((s, _ground(code, s.domain, {})) for s in sweeps),
                   _counter(len(gamma)), fill)
    if hit is None:
        return FOResult(True)
    sweep, digits = hit
    return FOResult(False, *sweep.decode(digits))


def compiled(a, whole=True) -> list:
    """Postfix code by a recursive walk, as ``_compile`` describes it, each
    atom its node and a proposition its name: a quantifier is the list
    [class, variable, code of the body], or with ``whole`` false, when its
    variable is not free in its body, its body's code alone, as
    ``_compile`` writes it."""
    match a:
        case Prop(name):
            return [name]
        case Falsity():
            return [Falsity]
        case Pred(_, _) | Eq(_, _):
            return [a]
        case Not(b):
            return compiled(b, whole) + [Not]
        case And(l, r) | Or(l, r) | Imp(l, r):
            return compiled(r, whole) + compiled(l, whole) + [a.__class__]
        case ExtApp(conn, args):
            table = EXTRA_CONNECTIVES[conn][1]
            return (compiled(args[0], whole) if args else []) + [table]
        case Forall(x, b) | Exists(x, b):
            body = compiled(b, whole)
            return ([[a.__class__, x, body]] if whole or x in free_vars(b)
                    else body)
    raise TypeError(a)


def node_code(code) -> list:
    """First-order code as ``_compile`` wrote it before atoms were
    templates: each atom its node, a proposition its name."""
    out = []
    for op in code:
        if op.__class__ is list:
            op = [op[0], op[1], node_code(op[2])]
        elif op.__class__ is semantics._Atom:
            op = op.node.name if op.node.__class__ is Prop else op.node
        out.append(op)
    return out


def _ground(code, domain, binding: dict) -> list:
    """The code with every quantifier expanded over the domain: the body
    once per element, its variable bound to the element's name, the
    copies joined by And for forall and by Or for exists.  The ops still
    to ground wait on a stack, so quantifiers may nest to any depth."""
    out, stack = [], [(iter(code), binding)]
    while stack:
        ops, binding = stack.pop()
        for op in ops:
            cls = op.__class__
            if cls is list:  # the rest of ops waits under the copies
                q, var, body = op
                join = (And if q is Forall else Or,)
                stack.append((ops, binding))
                for i in range(len(domain) - 1, -1, -1):
                    if i:
                        stack.append((iter(join), binding))
                    stack.append((iter(body), {**binding, var: domain[i]}))
                break
            if binding and cls is Pred:
                out.append(Pred(op.name, tuple([_rebind(t, binding)
                                                for t in op.args])))
            elif binding and cls is Eq:
                out.append(Eq(_rebind(op.left, binding),
                              _rebind(op.right, binding)))
            else:
                out.append(op)
    return out


def _shape(x) -> tuple:
    """A ground atom or term as a flat tuple in prefix order: a domain
    element is its name, anything else its class, its name (an equation
    has none) and its arguments' shapes.  So a constant or variable named
    like an element stays apart from it, and since a sweep fixes each
    symbol's arity the tuple reads back one way."""
    out, stack = [], [x]
    while stack:
        y = stack.pop()
        cls = y.__class__
        if cls is str:
            out.append(y)
        elif cls is Var:
            out += (Var, y.name)
        elif cls is Eq:
            out.append(Eq)
            stack += (y.right, y.left)
        else:
            out += (cls, y.name)
            stack += reversed(y.args)
    return tuple(out)


def fill(self, code, outer, env=None) -> dict:
    """``env``, or a new env, given the (t, f) pair over the block
    given by the outer digits' values of each atom of ``code`` it
    lacks: the kept pair when the sweep keeps one, else one built,
    and kept when the sweep keeps pairs."""
    env = {} if env is None else env
    kept, memo = self.kept, {}  # memo: this call's term selectors
    for op in code:
        cls = op.__class__
        if (cls is str or cls is Pred or cls is Eq) and op not in env:
            shape = kept is not None and _shape(op)
            out = shape and kept.get(shape)
            if not out:
                out = (self._denote(op, outer, memo) if cls is not str
                       else self.pair(self.where[("pred", op, ())], outer))
                if shape:
                    kept[shape] = out
                    semantics._count_kept(self, 2, len(shape))
            env[op] = out
    return env


def _run(code, env: dict, full: int) -> list:
    """The (t, f) pair of each formula of grounded code, given the pairs
    of its atoms, by name or ground node: the evaluator as it was before
    it ran quantifiers in place."""
    stack = []
    push, pop = stack.append, stack.pop
    for op in code:
        if op.__class__ is str:
            push(env[op])
        elif op is Not:
            t, f = pop()
            push((f, t))
        elif op is Falsity:
            push((0, full))
        elif op.__class__ is tuple:
            push(semantics._apply(
                op, [pop() for _ in range(semantics._ARITY[len(op)])], full))
        elif op is And or op is Or or op is Imp:
            t1, f1 = pop()
            t2, f2 = pop()
            if op is And:
                push((t1 & t2, f1 | f2))
            elif op is Or:
                push((t1 | t2, f1 & f2))
            else:
                push(((full ^ t1) | t2, t1 & f2))
        else:
            push(env[op])
    return stack


def _counter(n: int):
    """``semantics._counter`` over grounded code."""

    def marked(code, env, full):
        ts = [t for t, _ in _run(code, env, full)]
        return semantics.counter_bits(ts[:n], ts[n:])

    return marked
