"""Evaluation and brute-force consequence for the four-valued logic.

Both consequence relations run on one bit-pair engine.  A formula
becomes a (told-true, told-false) pair of ints over many valuations or
structures at once, the connectives become bitwise operations, and the
lowest set bit of a mask marks the first valuation or structure in
enumeration order.

Propositionally the bits are the valuations of the atoms, in
``valuations`` order: ``consequence_prop``, ``equivalent_prop``,
``truth_table`` and ``PropSpace`` run on it.  First-order, the bits are
the (structure, assignment) columns of one domain size, in
``enumerate_structures`` order with the assignments innermost: ground
atoms, equality cells and constants are digits of the column index, a
term becomes one selector mask per element, and a quantifier is
grounded into the And (forall) or Or (exists) of its instances, since
the quantifiers are the infimum and supremum of the truth order.
``consequence_fo`` scans those columns in blocks and ``FOSpace`` keeps
a formula's mask over a whole class.

``evaluate_prop`` (one valuation) and ``evaluate`` over
``enumerate_structures`` (one structure) are kept as the references the
engine is tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from .syntax import (
    And, Eq, Exists, ExtApp, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, Var, kept,
)
from .values import (
    ALL_VALUES, B, CL_VALUES, DESIGNATED, EXTRA_CONNECTIVES, F, K3_VALUES,
    LP_VALUES, N, T, TruthValue, VALUES, designated, imp, inf, join, meet,
    neg, sup,
)


class SemanticsError(Exception):
    pass


class EnumerationCapExceeded(SemanticsError):
    """The requested structure sweep would exceed the configured cap."""


# ---------------------------------------------------------------------------
# propositional evaluation


def evaluate_prop(a, valuation: dict) -> TruthValue:
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
        case And(l, r):
            return meet(evaluate_prop(l, valuation), evaluate_prop(r, valuation))
        case Or(l, r):
            return join(evaluate_prop(l, valuation), evaluate_prop(r, valuation))
        case Imp(l, r):
            return imp(evaluate_prop(l, valuation), evaluate_prop(r, valuation))
        case ExtApp(conn, args):
            arity, table = EXTRA_CONNECTIVES[conn]
            if arity == 0:
                return table
            return table[evaluate_prop(args[0], valuation)]
    raise SemanticsError("not a propositional formula: %s" % (a,))


def _check_allowed(allowed: frozenset):
    if allowed not in (ALL_VALUES, LP_VALUES, K3_VALUES, CL_VALUES):
        raise SemanticsError(
            "allowed value set must be one of the four closed restrictions"
        )


def valuations(atoms, allowed=ALL_VALUES):
    """All valuations of the given atoms into the allowed set, in a fixed
    deterministic order (t, b, n, f per coordinate)."""
    _check_allowed(allowed)
    vals = tuple(v for v in VALUES if v in allowed)

    def generate():
        for combo in itertools.product(vals, repeat=len(atoms)):
            yield dict(zip(atoms, combo))

    return generate()


# ---------------------------------------------------------------------------
# the bit-pair engine

# Over a block of valuations a formula's values are a pair of ints
# (t, f): bit i of t (of f) is set when the i-th valuation makes the
# formula told-true (told-false), after Belnap 1977 and Dunn 1976.  So t,
# b, n, f are (1, 0), (1, 1), (0, 0), (0, 1), and t is the designation
# mask.  Bits follow ``valuations`` order, so the lowest set bit of a
# mask is the first valuation it marks.  A block holds the 4^6
# valuations of the last six atoms, the atoms before them fixed, which
# bounds memory and keeps the early exit of a scan.
_BLOCK_ATOMS = 6
_BY_BITS = (N, F, T, B)  # the value with bits (t, f), at index 2t + f


def onehot(t: int, f: int, full: int) -> tuple:
    """Per value, in t, b, n, f order, the positions holding it."""
    return (t & ~f, t & f, full ^ (t | f), f & ~t)


def _pair(v: TruthValue, full: int) -> tuple:
    return (full if v in DESIGNATED else 0, full if v in (B, F) else 0)


def _digit_masks(radix: int, step: int, full: int) -> list:
    """Per value of a digit that holds each of its ``radix`` values for
    ``step`` positions in turn, the positions where it holds that value;
    ``full`` spans a whole number of the digit's periods."""
    ones = (1 << step) - 1
    repeat = full // ((1 << radix * step) - 1)
    return [(ones << v * step) * repeat for v in range(radix)]


class _Grid:
    """The 4^k valuations of k atoms as bit positions."""

    def __init__(self, k: int):
        self.k = k
        self.full = (1 << 4 ** k) - 1
        self.pairs = []
        for j in range(k):
            hot = _digit_masks(4, 4 ** (k - 1 - j), self.full)
            self.pairs.append((hot[0] | hot[1], hot[1] | hot[3]))
        self._modes = {}

    def mode(self, allowed: frozenset) -> int:
        """The positions whose valuation uses only allowed values."""
        if allowed not in self._modes:
            out = self.full
            for t, f in self.pairs:
                out &= sum(onehot(t, f, self.full)[v] for v in allowed)
            self._modes[allowed] = out
        return self._modes[allowed]

    def valuation_at(self, i: int) -> tuple:
        return tuple(VALUES[i >> 2 * (self.k - 1 - j) & 3]
                     for j in range(self.k))

    def values(self, t: int, f: int) -> tuple:
        return tuple(_BY_BITS[(t >> i & 1) << 1 | f >> i & 1]
                     for i in range(self.full.bit_length()))


@functools.lru_cache(maxsize=None)
def _grid(k: int) -> _Grid:
    return _Grid(k)


def _arity(name: str, arity, args) -> tuple:
    if arity is None:
        raise SemanticsError("symbol not in signature")
    if arity != len(args):
        raise SemanticsError("%s takes %d arguments" % (name, arity))
    return name, arity


def _compile(formulas, sig: Signature) -> tuple:
    """Postfix code for the formulas, and the symbols they use, in one walk.

    A connective follows its operands, the left one on top of the
    stack.  An item is a proposition's name, one of the classes Not,
    And, Or, Imp and Falsity, an ExtApp node, a Pred or Eq atom as
    written, or for a quantifier the tuple (Forall or Exists, variable,
    code of the body).  Returns the code, the functions and predicates
    that occur as (name, arity) pairs (a proposition has arity 0),
    whether equality occurs, and the free variables, sorted.  Every
    symbol must be declared in the signature with its arity.
    """
    code, funcs, preds, free = [], set(), set(), set()
    has_eq = False
    for a in formulas:
        stack = [(a, frozenset())]
        while stack:
            x, bound = stack.pop()
            cls = x.__class__
            if bound is None:  # an operator whose operands are done
                if cls is tuple:
                    q, var, start = x
                    x = (q, var, code[start:])
                    del code[start:]
                code.append(x)
            elif cls is Prop:
                preds.add(_arity(x.name, sig.predicate_arity(x.name), ()))
                code.append(x.name)
            elif cls is Not:
                stack += ((Not, None), (x.body, bound))
            elif cls is And or cls is Or or cls is Imp:
                stack += ((cls, None), (x.left, bound), (x.right, bound))
            elif cls is Falsity:
                code.append(Falsity)
            elif cls is ExtApp:
                if x.args:
                    stack += ((x, None), (x.args[0], bound))
                else:
                    code.append(x)
            elif cls is Pred or cls is Eq:
                if cls is Pred:
                    preds.add(_arity(x.name, sig.predicate_arity(x.name),
                                     x.args))
                    terms = list(x.args)
                else:
                    has_eq = True
                    terms = [x.left, x.right]
                while terms:
                    t = terms.pop()
                    if t.__class__ is Var:
                        if t.name not in bound:
                            free.add(t.name)
                    elif t.__class__ is Fun:
                        funcs.add(_arity(t.name, sig.function_arity(t.name),
                                         t.args))
                        terms.extend(t.args)
                    else:
                        raise SemanticsError("not a term: %r" % (t,))
                code.append(x)
            elif cls is Forall or cls is Exists:
                stack += (((cls, x.var, len(code)), None),
                          (x.body, bound | {x.var}))
            else:
                raise SemanticsError("not a formula: %r" % (x,))
    return code, funcs, preds, has_eq, tuple(sorted(free))


def _prop_code(a) -> tuple:
    """A propositional formula's code, as ``_compile`` writes it, and the
    names of its propositions, in one walk."""
    code, names, stack = [], set(), [a]
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is Prop:
            names.add(x.name)
            code.append(x.name)
        elif cls is tuple:  # a connective whose operands are done
            code.append(x[0])
        elif cls is And or cls is Or or cls is Imp:
            stack += ((cls,), x.left, x.right)
        elif cls is Not:
            stack += ((Not,), x.body)
        elif cls is Falsity:
            code.append(Falsity)
        elif cls is ExtApp:
            if x.args:
                stack += ((x,), x.args[0])
            else:
                code.append(x)
        else:
            raise SemanticsError("not propositional: %s" % (a,))
    return tuple(code), frozenset(names)


def _compile_prop(formulas, atoms=None) -> tuple:
    """Code for propositional formulas, and their atoms: sorted, or as
    given when every one occurring is among them.  A formula's code
    depends on the formula alone, so it is compiled once and kept."""
    code, names = [], set()
    for a in formulas:
        more, used = kept(a, "_prop_code", _prop_code)
        code += more
        names |= used
    if atoms is None:
        return code, tuple(sorted(names))
    if not names <= set(atoms):
        raise SemanticsError("no value for proposition %s"
                             % min(names - set(atoms)))
    return code, tuple(atoms)


def _run(code, env: dict, full: int) -> list:
    """The (t, f) pair of each compiled formula, given the pairs of its
    atoms: proposition names, and the ground Pred and Eq atoms of the
    first-order sweep."""
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
        elif op.__class__ is ExtApp:
            arity, table = EXTRA_CONNECTIVES[op.conn]
            if arity == 0:
                push(_pair(table, full))
            else:
                hot = onehot(*pop(), full)
                push((sum(hot[v] for v in VALUES if table[v] in (T, B)),
                      sum(hot[v] for v in VALUES if table[v] in (B, F))))
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


# A scan that has passed this many valuations, or first-order columns,
# without an answer gives up: past it each further atom multiplies the
# time by four, and each further free variable by the domain size.
_SCAN_CAP = 4 ** 13


def scan_valuations(formulas, marked, allowed=ALL_VALUES):
    """The first valuation into ``allowed``, in ``valuations`` order,
    that ``marked`` picks, or None.

    The formulas are compiled once.  Per block, ``marked(code, env,
    grid)`` gets them with the pair of each atom over the block and
    returns the mask of picks; the atoms before the last six are fixed
    per block, their values taken in ``valuations`` order.  Raises
    EnumerationCapExceeded once the blocks scanned without a pick hold
    more than ``_SCAN_CAP`` valuations.
    """
    code, atoms = _compile_prop(formulas)
    low = min(len(atoms), _BLOCK_ATOMS)
    grid = _grid(low)
    env = dict(zip(atoms[len(atoms) - low:], grid.pairs))
    vals = tuple(v for v in VALUES if v in allowed)
    scanned = 0
    for fixed in itertools.product(vals, repeat=len(atoms) - low):
        env.update(zip(atoms, (_pair(v, grid.full) for v in fixed)))
        bits = marked(code, env, grid) & grid.mode(allowed)
        if bits:
            rest = grid.valuation_at((bits & -bits).bit_length() - 1)
            return dict(zip(atoms, fixed + rest))
        scanned += grid.full.bit_length()
        if scanned > _SCAN_CAP:
            raise EnumerationCapExceeded(
                "no answer after %d valuations of %d atoms (cap %d)"
                % (scanned, len(atoms), _SCAN_CAP))
    return None


def counter_bits(gamma_masks, delta_masks) -> int:
    """Positions in every gamma mask and in no delta mask."""
    bits = -1
    for m in gamma_masks:
        bits &= m
    for m in delta_masks:
        bits &= ~m
    return bits


def consequence_prop(gamma, delta, allowed=ALL_VALUES):
    """Propositional consequence over every valuation into ``allowed``.

    Returns (True, None) when every valuation into ``allowed`` that
    designates all of gamma designates some member of delta, else
    (False, the first countervaluation in ``valuations`` order).
    """
    _check_allowed(allowed)
    gamma, delta = list(gamma), list(delta)

    def counter(code, env, grid):
        ts = [t for t, _ in _run(code, env, grid.full)]
        return counter_bits(ts[:len(gamma)], ts[len(gamma):])

    witness = scan_valuations(gamma + delta, counter, allowed)
    return witness is None, witness


def equivalent_prop(a, b):
    """Identical truth value under every valuation of the shared atoms."""

    def differ(code, env, grid):
        (t1, f1), (t2, f2) = _run(code, env, grid.full)
        return (t1 ^ t2) | (f1 ^ f2)

    witness = scan_valuations([a, b], differ)
    return witness is None, witness


def truth_table(a, atoms) -> tuple:
    """The values of a formula over ``valuations(atoms)``, in order; the
    table is as large as one grid over all the atoms, so no blocks."""
    code, atoms = _compile_prop([a], atoms)
    grid = _grid(len(atoms))
    env = dict(zip(atoms, grid.pairs))
    return grid.values(*_run(code, env, grid.full)[0])


def synonymous_prop(a, b) -> bool:
    """Synonymity decided through the four consequence checks.

    On this matrix the result coincides with logical equivalence; the
    test suite checks that coincidence rather than assuming it here.
    """
    for x, y in ((a, b), (b, a), (Not(a), Not(b)), (Not(b), Not(a))):
        ok, _ = consequence_prop([x], [y])
        if not ok:
            return False
    return True


class PropSpace:
    """Bulk propositional work over a fixed tuple of at most six atoms:
    formulas become cached bit pairs over ``valuations(atoms)``, and
    consequence is checked in the modes bd, lp, k3 and cl."""

    MODES = {"bd": ALL_VALUES, "lp": LP_VALUES, "k3": K3_VALUES,
             "cl": CL_VALUES}

    def __init__(self, atoms: tuple):
        self.atoms = tuple(atoms)
        if len(self.atoms) > _BLOCK_ATOMS:
            raise SemanticsError("a PropSpace holds at most %d atoms"
                                 % _BLOCK_ATOMS)
        self._grid = _grid(len(self.atoms))
        self._env = dict(zip(self.atoms, self._grid.pairs))
        self._pairs: dict = {}

    def vector(self, a) -> tuple:
        """The formula's (t, f) pair; equal pairs mean equal tables."""
        out = self._pairs.get(a)
        if out is None:
            code, _ = _compile_prop([a], self.atoms)
            out = self._pairs[a] = _run(code, self._env, self._grid.full)[0]
        return out

    def mask(self, a) -> int:
        """Bit i set iff the i-th valuation designates the formula."""
        return self.vector(a)[0]

    def holds(self, gamma_masks, delta_masks, mode="bd") -> int | None:
        """Consequence over the mode's valuations; None when it holds,
        else the index of the first countervaluation."""
        bits = counter_bits(gamma_masks, delta_masks)
        bits &= self._grid.mode(self.MODES[mode])
        return (bits & -bits).bit_length() - 1 if bits else None

    def countermodel(self, s: Sequent, mode="bd") -> dict | None:
        i = self.holds([self.mask(a) for a in s.ant],
                       [self.mask(a) for a in s.suc], mode)
        return (None if i is None
                else dict(zip(self.atoms, self._grid.valuation_at(i))))

    def valid(self, s: Sequent, mode="bd") -> bool:
        return self.countermodel(s, mode) is None


# ---------------------------------------------------------------------------
# structures


@dataclass
class Structure:
    """A finite interpretation.

    ``eq`` maps ordered element pairs to values; it must designate equal
    pairs (of non-bottom elements) and, in partial mode, give n whenever
    either element is the bottom.  Pairs left out of ``eq`` default to
    t on equal and f on distinct pairs.
    """

    domain: tuple
    consts: dict = field(default_factory=dict)
    funcs: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)
    preds: dict = field(default_factory=dict)
    eq: dict = field(default_factory=dict)
    bottom: object = None

    def __post_init__(self):
        if not self.domain:
            raise SemanticsError("domain must be nonempty")
        if self.bottom is not None:
            if self.bottom not in self.domain:
                raise SemanticsError("bottom element not in domain")
            if len(self.domain) < 2:
                raise SemanticsError("partial mode needs a non-bottom element")
        full = {}
        for d1 in self.domain:
            for d2 in self.domain:
                v = self.eq.get((d1, d2))
                if self.bottom is not None and (d1 == self.bottom or d2 == self.bottom):
                    if v is not None and v is not N:
                        raise SemanticsError("equality at bottom must be N")
                    v = N
                elif d1 == d2:
                    if v is None:
                        v = T
                    elif not designated(v):
                        raise SemanticsError("equality on equal elements must be designated")
                elif v is None:
                    v = F
                full[(d1, d2)] = v
        self.eq = full

    def eval_term(self, t, assignment: dict):
        match t:
            case Var(name):
                try:
                    return assignment[name]
                except KeyError:
                    raise SemanticsError("unbound variable %s" % name) from None
            case Fun(name, args):
                if not args:
                    try:
                        return self.consts[name]
                    except KeyError:
                        raise SemanticsError("no interpretation for constant %s" % name) from None
                table = self.funcs.get(name)
                if table is None:
                    raise SemanticsError("no interpretation for function %s" % name)
                return table[tuple(self.eval_term(a, assignment) for a in args)]
        raise SemanticsError("not a term: %r" % (t,))


def evaluate(a, structure: Structure, assignment: dict | None = None) -> TruthValue:
    """Value of a formula in a structure under an assignment."""
    if assignment is None:
        assignment = {}
    return _eval(a, structure, dict(assignment))


def _eval(a, m: Structure, alpha: dict) -> TruthValue:
    match a:
        case Falsity():
            return F
        case Prop(name):
            try:
                return m.props[name]
            except KeyError:
                raise SemanticsError("no interpretation for proposition %s" % name) from None
        case Pred(name, args):
            table = m.preds.get(name)
            if table is None:
                raise SemanticsError("no interpretation for predicate %s" % name)
            return table[tuple(m.eval_term(t, alpha) for t in args)]
        case Eq(l, r):
            return m.eq[(m.eval_term(l, alpha), m.eval_term(r, alpha))]
        case Not(b):
            return neg(_eval(b, m, alpha))
        case And(l, r):
            return meet(_eval(l, m, alpha), _eval(r, m, alpha))
        case Or(l, r):
            return join(_eval(l, m, alpha), _eval(r, m, alpha))
        case Imp(l, r):
            return imp(_eval(l, m, alpha), _eval(r, m, alpha))
        case Forall(x, b):
            old, had = alpha.get(x), x in alpha
            vals = set()
            for d in m.domain:
                alpha[x] = d
                vals.add(_eval(b, m, alpha))
            if had:
                alpha[x] = old
            else:
                del alpha[x]
            return inf(vals)
        case Exists(x, b):
            old, had = alpha.get(x), x in alpha
            vals = set()
            for d in m.domain:
                alpha[x] = d
                vals.add(_eval(b, m, alpha))
            if had:
                alpha[x] = old
            else:
                del alpha[x]
            return sup(vals)
        case ExtApp(conn, args):
            arity, table = EXTRA_CONNECTIVES[conn]
            if arity == 0:
                return table
            return table[_eval(args[0], m, alpha)]
    raise SemanticsError("not a formula: %r" % (a,))


# ---------------------------------------------------------------------------
# structure enumeration and bounded first-order consequence


def count_structures(sig: Signature, size: int, mode: str = "total",
                     allowed=ALL_VALUES, need_eq: bool = True,
                     eq_distinct=None) -> int:
    nvals = len(allowed)
    ndist = nvals if eq_distinct is None else len(eq_distinct)
    k = size
    count = 1
    for _, a in sig.functions:
        count *= k ** (k ** a) if a else k
    for _, a in sig.predicates:
        count *= nvals ** (k ** a) if a else nvals
    if need_eq:
        if mode == "partial":
            real = k - 1
            count *= len(DESIGNATED & allowed) ** real
            count *= ndist ** (real * real - real)
        else:
            count *= len(DESIGNATED & allowed) ** k
            count *= ndist ** (k * k - k)
    return count


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
    equality implies element identity.
    """
    if mode == "partial":
        if size < 2:
            return
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


# ---------------------------------------------------------------------------
# the grounded sweep

# The columns of one domain size are its (structure, assignment) pairs
# in ``enumerate_structures`` order, with the assignments of the free
# variables innermost.  Column i is the number i in a mixed radix whose
# digits are, most significant first: the constants, the function cells
# key by key, the propositions, the predicate cells, the equality cells
# (the diagonal over the designated values, then the distinct pairs)
# and the free variables.  A digit's value masks are periodic and are
# built as a _Grid's are.  A term is one selector mask per element, an
# atom is the OR over element tuples of the selectors' AND with the
# cell's (t, f) pair (in partial mode an equality cell at the bottom is
# n, the pair (0, 0)), and a quantifier is grounded: its body is copied
# once per element, the copies joined by And for forall (the infimum)
# and by Or for exists (the supremum).  This is MACE-style grounding
# (McCune's Mace4; Claessen and Sorensson 2003).  A scan takes blocks of
# at most _BLOCK_COLUMNS columns, the outer digits fixed per block, in
# column order, which bounds memory and keeps the early exit.
_BLOCK_COLUMNS = 1 << 16


def _ground(code, domain, binding: dict) -> list:
    """The code with every quantifier expanded over the domain: the body
    once per element, its variable bound to the element's name, the
    copies joined by And for forall and by Or for exists."""
    out = []
    for op in code:
        cls = op.__class__
        if cls is tuple:
            q, var, body = op
            for i, d in enumerate(domain):
                out += _ground(body, domain, {**binding, var: d})
                if i:
                    out.append(And if q is Forall else Or)
        elif binding and cls is Pred:
            out.append(Pred(op.name, tuple(_ground_term(t, binding)
                                           for t in op.args)))
        elif binding and cls is Eq:
            out.append(Eq(_ground_term(op.left, binding),
                          _ground_term(op.right, binding)))
        else:
            out.append(op)
    return out


def _ground_term(t, binding: dict):
    if t.__class__ is Var:
        return binding.get(t.name, t)
    if t.args:
        return Fun(t.name, tuple(_ground_term(u, binding) for u in t.args))
    return t


class _Sweep:
    """The (structure, assignment) columns of one domain size as digits.

    The arguments are ``enumerate_structures``' and the variables to
    assign.  A block is at most ``block`` consecutive columns, the
    whole size with None.  ``fill`` puts the pairs of ground atoms over
    a block into an env for ``_run``; ``decode`` builds one column.
    """

    def __init__(self, sig: Signature, size: int, mode, allowed, need_eq,
                 eq_distinct, variables, block=None):
        if mode == "partial":
            if allowed is not ALL_VALUES:
                raise SemanticsError(
                    "partial mode does not combine with restrictions")
            self.domain = ("u",) + tuple("d%d" % i for i in range(1, size))
            self.bottom = "u"
        else:
            self.domain = tuple("d%d" % i for i in range(1, size + 1))
            self.bottom = None
        self.need_eq = need_eq
        real = [d for d in self.domain if d != self.bottom]
        vals = tuple(v for v in VALUES if v in allowed)
        self.roles, self.values, self.where = [], [], {}

        def digit(role, values):
            self.where[role] = len(self.roles)
            self.roles.append(role)
            self.values.append(values)

        for kind, symbols, values in (("fun", sig.functions, self.domain),
                                      ("pred", sig.predicates, vals)):
            # the constants and propositions first, as in the enumeration
            for name, a in sorted(symbols, key=lambda s: s[1] > 0):
                for key in itertools.product(self.domain, repeat=a):
                    digit((kind, name, key), values)
        if need_eq:
            for d in real:
                digit(("eq", d, d), tuple(v for v in (T, B) if v in allowed))
            dist = vals if eq_distinct is None else tuple(eq_distinct)
            for d1, d2 in itertools.product(real, repeat=2):
                if d1 != d2:
                    digit(("eq", d1, d2), dist)
        for x in variables:
            digit(("var", x), self.domain)

        radices = [len(v) for v in self.values]
        self.columns = math.prod(radices)
        self._steps = [1] * len(radices)  # columns per step of a digit
        split, inner = len(radices), 1
        while split and (block is None or inner * radices[split - 1] <= block):
            split -= 1
            self._steps[split] = inner
            inner *= radices[split]
        self.outer = radices[:split]
        self.full = (1 << inner) - 1
        self._hot = {}

    def blocks(self):
        """The outer digits' values of each block, in column order."""
        if not self.columns:
            return ()
        return itertools.product(*map(range, self.outer))

    def _masks(self, j: int, outer) -> list:
        """Per value of digit j, the block positions holding it."""
        if j < len(outer):
            v = outer[j]
            return [self.full if w == v else 0
                    for w in range(len(self.values[j]))]
        out = self._hot.get(j)
        if out is None:
            out = self._hot[j] = _digit_masks(len(self.values[j]),
                                              self._steps[j], self.full)
        return out

    def fill(self, env: dict, code, outer) -> None:
        """Put into ``env`` the (t, f) pair over the block given by the
        outer digits' values of each atom of ``code`` it lacks."""
        full, domain, where = self.full, self.domain, self.where
        cells, selectors = {}, {}

        def cell(role) -> tuple:
            out = cells.get(role)
            if out is None:
                j = where[role]
                hot = tuple(zip(self._masks(j, outer), self.values[j]))
                out = cells[role] = (
                    sum(m for m, v in hot if v is T or v is B),
                    sum(m for m, v in hot if v is B or v is F))
            return out

        def eq_cell(key) -> tuple:
            if self.bottom in key:
                return (0, 0)
            if self.need_eq:
                return cell(("eq",) + key)
            return (full, 0) if key[0] == key[1] else (0, full)

        def apply(terms, table, width: int) -> list:
            """The OR over element tuples of the AND of the terms'
            selectors with the tuple's ``width`` masks in ``table``."""
            out = [0] * width
            hot = [[(domain[i], m) for i, m in enumerate(selector(t)) if m]
                   for t in terms]
            for combo in itertools.product(*hot):
                both = full
                for _, m in combo:
                    both &= m
                if both:
                    key = tuple(e for e, _ in combo)
                    for k, m in enumerate(table(key)):
                        out[k] |= both & m
            return out

        def selector(t) -> list:
            """Per element, the positions where the term denotes it."""
            out = selectors.get(t)
            if out is None:
                if t.__class__ is str:
                    out = [full if d == t else 0 for d in domain]
                elif t.__class__ is Var:
                    out = self._masks(where[("var", t.name)], outer)
                else:
                    out = apply(t.args, lambda key: self._masks(
                        where[("fun", t.name, key)], outer), len(domain))
                selectors[t] = out
            return out

        for op in code:
            cls = op.__class__
            if (cls is str or cls is Pred or cls is Eq) and op not in env:
                if cls is str:
                    env[op] = cell(("pred", op, ()))
                elif cls is Pred:
                    env[op] = tuple(apply(op.args, lambda key: cell(
                        ("pred", op.name, key)), 2))
                else:
                    env[op] = tuple(apply((op.left, op.right), eq_cell, 2))

    def decode(self, outer, i: int) -> tuple:
        """The (structure, assignment) of column i of the block given by
        the outer digits' values."""
        digits = []
        for values in reversed(self.values[len(outer):]):
            i, v = divmod(i, len(values))
            digits.append(v)
        digits = list(outer) + digits[::-1]
        consts, funcs, props, preds, eq, alpha = {}, {}, {}, {}, {}, {}
        for role, values, v in zip(self.roles, self.values, digits):
            kind, x = role[0], values[v]
            if kind == "eq":
                eq[role[1:]] = x
            elif kind == "var":
                alpha[role[1]] = x
            elif role[2]:
                table = funcs if kind == "fun" else preds
                table.setdefault(role[1], {})[role[2]] = x
            else:
                (consts if kind == "fun" else props)[role[1]] = x
        return (Structure(self.domain, consts, funcs, props, preds, eq,
                          self.bottom), alpha)


@dataclass
class FOResult:
    holds: bool
    structure: Structure | None = None
    assignment: dict | None = None

    def __bool__(self) -> bool:
        return self.holds


def consequence_fo(gamma, delta, sig: Signature, max_domain: int = 3,
                   mode: str = "total", cap: int = 10**7,
                   allowed=ALL_VALUES, eq_distinct=None) -> FOResult:
    """Search for a countermodel over all structures up to the domain bound.

    A True result means no countermodel up to the bound, not a decision.
    Only symbols that occur in the formulas are interpreted, which keeps
    the sweep small without changing the answer.  Each domain size is
    one grounded sweep over its (structure, assignment) columns, scanned
    block by block; the countermodel is the first column, in
    ``enumerate_structures`` order with the assignments innermost, that
    designates all of gamma and nothing in delta, and it is the only
    Structure built.  Raises SemanticsError when the bound admits no
    structure, and EnumerationCapExceeded, before any sweep, when the
    structures up to the bound number more than ``cap``, and during the
    sweep once the blocks scanned without a countermodel hold more than
    ``_SCAN_CAP`` (structure, assignment) columns.
    """
    gamma, delta = list(gamma), list(delta)
    code, funcs, preds, has_eq, fv = _compile(gamma + delta, sig)
    small = Signature(
        functions=tuple(sorted(funcs)), predicates=tuple(sorted(preds)),
        extras=sig.extras,
    )
    least = 2 if mode == "partial" else 1
    if max_domain < least:
        raise SemanticsError(
            "domain bound %d admits no structure; the least %sdomain size "
            "is %d" % (max_domain, "partial " if least == 2 else "", least))

    sizes = range(least, max_domain + 1)
    total = 0
    for size in sizes:
        total += count_structures(small, size, mode, allowed, has_eq, eq_distinct)
    if total > cap:
        raise EnumerationCapExceeded(
            "would enumerate %d structures (cap %d)" % (total, cap)
        )

    scanned = 0
    for size in sizes:
        sweep = _Sweep(small, size, mode, allowed, has_eq, eq_distinct, fv,
                       _BLOCK_COLUMNS)
        ground = _ground(code, sweep.domain, {})
        for outer in sweep.blocks():
            env = {}
            sweep.fill(env, ground, outer)
            ts = [t for t, _ in _run(ground, env, sweep.full)]
            bits = counter_bits(ts[:len(gamma)], ts[len(gamma):]) & sweep.full
            if bits:
                return FOResult(False, *sweep.decode(
                    outer, (bits & -bits).bit_length() - 1))
            scanned += sweep.full.bit_length()
            if scanned > _SCAN_CAP:
                raise EnumerationCapExceeded(
                    "no answer after %d columns of %d free variables (cap %d)"
                    % (scanned, len(fv), _SCAN_CAP))
    return FOResult(True)


class FOSpace:
    """Validity oracle over every column of a finite class: each
    structure ``enumerate_structures`` gives for a size in ``sizes``,
    with each assignment of ``variables``.

    A formula's designation mask over the columns is the told-true mask
    of its grounded sweep, size after size, and a sequent is valid on
    the class exactly when no column designates the whole antecedent
    while designating nothing in the succedent.  ``columns`` is the
    sequence of (structure, assignment) pairs, decoded on access.
    """

    def __init__(self, sig, sizes, mode="total", need_eq=True,
                 eq_distinct=None, variables=()):
        self.sig = sig
        self.variables = tuple(variables)
        self._sweeps = tuple(
            _Sweep(sig, size, mode, ALL_VALUES, need_eq, eq_distinct,
                   self.variables) for size in sizes)
        self._envs = tuple({} for _ in self._sweeps)  # atom pairs per size
        self.columns = _Columns(self._sweeps)
        self._masks = {}

    def mask(self, a) -> int:
        """Bit i set iff column i designates the formula."""
        out = self._masks.get(a)
        if out is None:
            code, _, _, _, fv = _compile([a], self.sig)
            if unbound := set(fv) - set(self.variables):
                raise SemanticsError("unbound variable %s" % min(unbound))
            out = shift = 0
            for sweep, env in zip(self._sweeps, self._envs):
                if sweep.columns:
                    ground = _ground(code, sweep.domain, {})
                    sweep.fill(env, ground, ())
                    out |= _run(ground, env, sweep.full)[0][0] << shift
                shift += sweep.columns
            self._masks[a] = out
        return out

    def counter_mask(self, s: Sequent) -> int:
        bits = counter_bits(map(self.mask, s.ant), map(self.mask, s.suc))
        return bits & ((1 << len(self.columns)) - 1)

    def valid(self, s: Sequent) -> bool:
        return self.counter_mask(s) == 0

    def countermodel(self, s: Sequent):
        """The first counter column's (structure, assignment), or None."""
        cm = self.counter_mask(s)
        return self.columns[(cm & -cm).bit_length() - 1] if cm else None


class _Columns:
    """The columns of consecutive sweeps, decoded on access."""

    def __init__(self, sweeps):
        self._sweeps = sweeps

    def __len__(self) -> int:
        return sum(s.columns for s in self._sweeps)

    def __getitem__(self, i: int) -> tuple:
        if i < 0:
            i += len(self)
        for s in self._sweeps:
            if 0 <= i < s.columns:
                return s.decode((), i)
            i -= s.columns
        raise IndexError("column index out of range")


# ---------------------------------------------------------------------------
# normality probe


_NORMALITY_CONNS = ("not", "and", "or", "imp")


def _random_formula(rng: random.Random, atoms, budget: int):
    if budget <= 0 or rng.random() < 0.3:
        return Prop(rng.choice(atoms)) if rng.random() < 0.9 else Falsity()
    kind = rng.choice(_NORMALITY_CONNS)
    if kind == "not":
        return Not(_random_formula(rng, atoms, budget - 1))
    l = _random_formula(rng, atoms, budget - 1)
    r = _random_formula(rng, atoms, budget - 1)
    return {"and": And, "or": Or, "imp": Imp}[kind](l, r)


def normality_probe(seed: int = 0, samples: int = 200) -> dict:
    """Property-check the normality biconditionals on random instances.

    Covers the atomic noninclusion checks, the three propositional
    splits (conjunction right, disjunction left, the deduction theorem)
    and the two quantifier conditions on domain-bounded structures.
    Returns a report dict with a list of failures (empty on success).
    """
    rng = random.Random(seed)
    atoms = ("p", "q", "r")
    failures = []
    checked = 0

    p = Prop("p")
    for a, b in ((p, Not(p)), (Not(p), p)):
        ok, _ = consequence_prop([a], [b])
        if ok:
            failures.append(("atomic-noninclusion", a, b))
        checked += 1

    for _ in range(samples):
        g = [_random_formula(rng, atoms, 2) for _ in range(rng.randrange(3))]
        d = [_random_formula(rng, atoms, 2) for _ in range(rng.randrange(3))]
        a1 = _random_formula(rng, atoms, 2)
        a2 = _random_formula(rng, atoms, 2)

        lhs, _ = consequence_prop(g, d + [And(a1, a2)])
        rhs = consequence_prop(g, d + [a1])[0] and consequence_prop(g, d + [a2])[0]
        if lhs != rhs:
            failures.append(("conjunction-right", g, d, a1, a2))

        lhs, _ = consequence_prop([Or(a1, a2)] + g, d)
        rhs = consequence_prop([a1] + g, d)[0] and consequence_prop([a2] + g, d)[0]
        if lhs != rhs:
            failures.append(("disjunction-left", g, d, a1, a2))

        lhs, _ = consequence_prop(g, d + [Imp(a1, a2)])
        rhs, _ = consequence_prop([a1] + g, d + [a2])
        if lhs != rhs:
            failures.append(("deduction", g, d, a1, a2))
        checked += 3

    sig = Signature(functions=(("c", 0),), predicates=(("P", 1), ("Q", 1)))
    x = Var("x")
    open_pool = [
        Pred("P", (x,)), Not(Pred("P", (x,))), Or(Pred("P", (x,)), Pred("Q", (x,))),
        And(Pred("P", (x,)), Pred("Q", (Fun("c"),))),
        Imp(Pred("P", (x,)), Pred("Q", (x,))),
    ]
    closed_pool = [
        Pred("P", (Fun("c"),)), Pred("Q", (Fun("c"),)),
        Exists("x", Pred("P", (Var("x"),))), Forall("x", Pred("Q", (Var("x"),))),
        Not(Pred("P", (Fun("c"),))),
    ]
    fo_samples = max(10, samples // 10)
    for _ in range(fo_samples):
        a1 = rng.choice(open_pool)
        g = rng.sample(closed_pool, rng.randrange(3))
        d = rng.sample(closed_pool, rng.randrange(3))

        lhs = consequence_fo(g, d + [Forall("x", a1)], sig, max_domain=2).holds
        rhs = consequence_fo(g, d + [a1], sig, max_domain=2).holds
        if lhs != rhs:
            failures.append(("forall-right", g, d, a1))

        lhs = consequence_fo([Exists("x", a1)] + g, d, sig, max_domain=2).holds
        rhs = consequence_fo([a1] + g, d, sig, max_domain=2).holds
        if lhs != rhs:
            failures.append(("exists-left", g, d, a1))
        checked += 2

    return {"checked": checked, "failures": failures}
