"""Evaluation and brute-force consequence for the four-valued logic.

One evaluator serves everything: ``_run`` takes a formula's compiled
code to a (told-true, told-false) pair of ints over many columns at
once.  The base connectives are bitwise operations on the pairs, and
any other connective is a table applied through one-hot masks: an
extra connective compiles to its table, and ``matrixlab.consequence_in``
runs a candidate matrix's tables in place of the base ones.  The lowest
set bit of a mask marks the first column in enumeration order.

The columns of one domain size are its (structure, assignment) pairs,
in ``enumerate_structures`` order with the assignments innermost:
ground atoms, equality cells and constants are digits of the column
index, a term becomes one selector mask per element, and a quantifier
is grounded into the And (forall) or Or (exists) of its instances,
since the quantifiers are the infimum and supremum of the truth order.
A propositional formula is a first-order one over nullary predicates,
so its valuations are the columns of domain size 1, one digit per
atom, in ``valuations`` order.  One block-by-block scan serves
``consequence_prop``, ``equivalent_prop``, ``matrixlab.consequence_in``
and ``consequence_fo``.  One space class, ``FOSpace``, keeps formulas'
pairs over whole sweeps and checks sequents on them, per mode;
``PropSpace`` is the ``FOSpace`` of domain size 1 over a tuple of
atoms.  ``truth_table`` reads one sweep whole.

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
    ALL_VALUES, B, DESIGNATED, EXTRA_CONNECTIVES, F, MODE_VALUES, N, T,
    TruthValue, VALUES, designated, imp, inf, join, meet, neg, sup,
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
            table = EXTRA_CONNECTIVES[conn][1]
            return table[evaluate_prop(args[0], valuation) if args else 0]
    raise SemanticsError("not a propositional formula: %s" % (a,))


def _check_allowed(allowed: frozenset):
    if allowed not in MODE_VALUES.values():
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

# Over a block of columns a formula's values are a pair of ints (t, f):
# bit i of t (of f) is set when the i-th column makes the formula
# told-true (told-false), after Belnap 1977 and Dunn 1976.  So t, b, n,
# f are (1, 0), (1, 1), (0, 0), (0, 1), and t is the designation mask.
# Bits follow column order, so the lowest set bit of a mask is the first
# column it marks.
_BY_BITS = (N, F, T, B)  # the value with bits (t, f), at index 2t + f


def _pair(v: TruthValue, full: int) -> tuple:
    return (full if v in DESIGNATED else 0, full if v in (B, F) else 0)


# A connective is also given by its table: the value for each tuple of
# argument values, at index a1 * 4 + a2 for a binary one, in t, b, n, f
# order, and for a constant a 1-tuple of its value.  ``_run`` applies
# the extra connectives' tables, and ``matrixlab.consequence_in`` a
# candidate matrix's tables in place of the base connectives.
_ARITY = {1: 0, 4: 1, 16: 2}  # a table's arity by its length


def _apply(table: tuple, args, full: int) -> tuple:
    """The (t, f) pair of a connective given by its table, on the pairs
    of its arguments, the left one first: the cells' one-hot position
    masks joined by the value each cell holds."""
    cells = [full]
    for t, f in args:
        hot = (t & ~f, t & f, full ^ (t | f), f & ~t)  # t, b, n, f
        cells = [c & h for c in cells for h in hot]
    t = f = 0
    for m, v in zip(cells, table):
        if v is T or v is B:
            t |= m
        if v is B or v is F:
            f |= m
    return t, f


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
    And, Or, Imp and Falsity, an extra connective's table, a Pred or Eq
    atom as written, or for a quantifier the list [Forall or Exists,
    variable, code of the body].  Returns the code, the functions and
    predicates that occur as (name, arity) pairs (a proposition has
    arity 0),
    whether equality occurs, and the free variables, sorted.  Every
    symbol must be declared in the signature with its arity; with no
    signature the formulas must be propositional, and the predicates
    returned are the names of their atoms.
    """
    code, funcs, preds, free = [], set(), set(), set()
    has_eq = False
    for a in formulas:
        stack, bound = [a], frozenset()
        while stack:
            x = stack.pop()
            cls = x.__class__
            if cls is Prop:
                preds.add(_arity(x.name, sig.predicate_arity(x.name), ())
                          if sig else x.name)
                code.append(x.name)
            elif cls is tuple:  # an operator whose operands are done
                if len(x) == 1:
                    code.append(x[0])
                else:  # a quantifier: its body's code ends its scope
                    q, var, start, bound = x
                    code[start:] = [[q, var, code[start:]]]
            elif cls is And or cls is Or or cls is Imp:
                stack += ((cls,), x.left, x.right)
            elif cls is Not:
                stack += ((Not,), x.body)
            elif cls is Falsity:
                code.append(Falsity)
            elif cls is ExtApp:
                table = EXTRA_CONNECTIVES[x.conn][1]
                if x.args:
                    stack += ((table,), x.args[0])
                else:
                    code.append(table)
            elif (cls is Pred or cls is Eq) and sig:
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
            elif (cls is Forall or cls is Exists) and sig:
                stack += ((cls, x.var, len(code), bound), x.body)
                bound = bound | {x.var}
            else:
                raise SemanticsError("not a %sformula: %r"
                                     % ("" if sig else "propositional ", x))
    return code, funcs, preds, has_eq, tuple(sorted(free))


def _prop_code(a) -> tuple:
    """A propositional formula's code and the names of its atoms."""
    code, _, names, _, _ = _compile([a], None)
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
    first-order sweep.  The base connectives are bitwise operations on
    the pairs; a table goes through ``_apply``."""
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
            push(_apply(op, [pop() for _ in range(_ARITY[len(op)])], full))
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


# ---------------------------------------------------------------------------
# the sweep

# The columns of one domain size are its (structure, assignment) pairs
# in ``enumerate_structures`` order, with the assignments of the free
# variables innermost.  Column i is the number i in a mixed radix whose
# digits are, most significant first: the constants, the function cells
# key by key, the propositions, the predicate cells, the equality cells
# (the diagonal over the designated values, then the distinct pairs)
# and the free variables.  A digit's value masks are periodic.  A term
# is one selector mask per element, an atom is the OR over element
# tuples of the selectors' AND with the cell's (t, f) pair (in partial
# mode an equality cell at the bottom is n, the pair (0, 0)), and a
# quantifier is grounded: its body is copied once per element, the
# copies joined by And for forall (the infimum) and by Or for exists
# (the supremum).  This is MACE-style grounding (McCune's Mace4;
# Claessen and Sorensson 2003).  The valuations of k atoms are the
# columns of domain size 1 over k propositions.  A scan takes blocks of
# at most _BLOCK_COLUMNS columns, the outer digits fixed per block, in
# column order, which bounds memory and keeps the early exit.
_BLOCK_COLUMNS = 1 << 16

# A scan that has passed this many columns without an answer gives up:
# past it each further atom multiplies the time by up to four, and each
# further free variable by the domain size.
_SCAN_CAP = 4 ** 13


def _ground(code, domain, binding: dict) -> list:
    """The code with every quantifier expanded over the domain: the body
    once per element, its variable bound to the element's name, the
    copies joined by And for forall and by Or for exists."""
    out = []
    for op in code:
        cls = op.__class__
        if cls is list:
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


@functools.lru_cache(maxsize=256)
def _layout(sig: Signature, size: int, mode, allowed, need_eq, eq_distinct,
            variables) -> tuple:
    """The domain and bottom of a sweep, its digits' roles, value tuples
    and positions, and its column count, which is 0 for a size with no
    structure."""
    if mode == "partial":
        if allowed != ALL_VALUES:
            raise SemanticsError(
                "partial mode does not combine with restrictions")
        domain = ("u",) + tuple("d%d" % i for i in range(1, size))
        bottom = "u"
    else:
        domain, bottom = tuple("d%d" % i for i in range(1, size + 1)), None
    real = [d for d in domain if d != bottom]
    vals = tuple(v for v in VALUES if v in allowed)
    digits = []  # (role, values) pairs
    for kind, symbols, values in (("fun", sig.functions, domain),
                                  ("pred", sig.predicates, vals)):
        # the constants and propositions first, as in the enumeration
        for name, a in sorted(symbols, key=lambda s: s[1] > 0):
            digits += [((kind, name, key), values)
                       for key in itertools.product(domain, repeat=a)]
    if need_eq:
        des = tuple(v for v in (T, B) if v in allowed)
        dist = vals if eq_distinct is None else tuple(eq_distinct)
        digits += [(("eq", d, d), des) for d in real]
        digits += [(("eq", d1, d2), dist) for d1, d2 in
                   itertools.product(real, repeat=2) if d1 != d2]
    digits += [(("var", x), domain) for x in variables]
    roles = tuple(role for role, _ in digits)
    values = tuple(v for _, v in digits)
    # a structure needs an element besides the bottom
    columns = math.prod(map(len, values)) if real else 0
    return (domain, bottom, roles, values,
            {role: j for j, role in enumerate(roles)}, columns)


class _Sweep:
    """The (structure, assignment) columns of one domain size as digits.

    The arguments are ``enumerate_structures``' and the variables to
    assign; a size with no structure has no columns.  A block is at
    most ``block`` consecutive columns, the whole size with None.
    ``fill`` gives the pairs of ground atoms over a block in an env for
    ``_run``; ``digits`` reads the digit values of one column and
    ``decode`` builds its structure and assignment.
    """

    def __init__(self, sig: Signature, size: int, mode, allowed, need_eq,
                 eq_distinct, variables, block=None):
        (self.domain, self.bottom, self.roles, self.values, self.where,
         self.columns) = _layout(
            sig, size, mode, frozenset(allowed), need_eq,
            None if eq_distinct is None else tuple(eq_distinct),
            tuple(variables))
        self.need_eq = need_eq
        radices = [len(v) for v in self.values]
        self._steps = [1] * len(radices)  # columns per step of a digit
        split, inner = len(radices), 1
        while split and (block is None or inner * radices[split - 1] <= block):
            split -= 1
            self._steps[split] = inner
            inner *= radices[split]
        self.outer = radices[:split]
        self.full = (1 << inner) - 1
        self._hot, self._pairs = {}, {}  # per inner digit, once built

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
            # the digit holds each value for ``step`` columns in turn,
            # and the block spans a whole number of its periods
            radix, step = len(self.values[j]), self._steps[j]
            repeat = self.full // ((1 << radix * step) - 1)
            out = self._hot[j] = [(((1 << step) - 1) << v * step) * repeat
                                  for v in range(radix)]
        return out

    def pair(self, j: int, outer) -> tuple:
        """The (t, f) pair over the block of digit j, whose values are
        truth values."""
        if j < len(outer):
            return _pair(self.values[j][outer[j]], self.full)
        out = self._pairs.get(j)
        if out is None:
            hot = tuple(zip(self._masks(j, outer), self.values[j]))
            out = self._pairs[j] = (
                sum(m for m, v in hot if v is T or v is B),
                sum(m for m, v in hot if v is B or v is F))
        return out

    def pairs(self, outer) -> list:
        """Every digit's pair over the block, when every digit is a
        proposition's."""
        return [self.pair(j, outer) for j in range(len(self.values))]

    def fill(self, code, outer, env=None) -> dict:
        """``env``, or a new env, given the (t, f) pair over the block
        given by the outer digits' values of each atom of ``code`` it
        lacks."""
        env = {} if env is None else env
        full, domain, where = self.full, self.domain, self.where
        selectors = {}

        def cell(role) -> tuple:
            return self.pair(where[role], outer)

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
        return env

    def digits(self, outer, i: int) -> list:
        """The digit values of column i of the block given by the outer
        digits' values, most significant first."""
        inner = []
        for values in reversed(self.values[len(outer):]):
            i, v = divmod(i, len(values))
            inner.append(values[v])
        fixed = [values[v] for values, v in zip(self.values, outer)]
        return fixed + inner[::-1]

    def decode(self, digits) -> tuple:
        """The (structure, assignment) of the column with these digit
        values."""
        consts, funcs, props, preds, eq, alpha = {}, {}, {}, {}, {}, {}
        for role, x in zip(self.roles, digits):
            kind = role[0]
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


def _first(scans, marked, env):
    """The first column that ``marked`` picks, as its sweep and digit
    values, or None.

    ``scans`` gives (sweep, code) pairs, taken in turn.  Each sweep is
    scanned block by block in column order: ``env(sweep, code, outer)``
    gives the pairs of the atoms of ``code`` over the block named by its
    outer digits' values, and ``marked(code, env, full)`` the mask of
    picks.  Raises EnumerationCapExceeded once the blocks scanned
    without a pick hold more than ``_SCAN_CAP`` columns.
    """
    scanned = 0
    for sweep, code in scans:
        for outer in sweep.blocks():
            bits = marked(code, env(sweep, code, outer), sweep.full)
            bits &= sweep.full
            if bits:
                return sweep, sweep.digits(
                    outer, (bits & -bits).bit_length() - 1)
            scanned += sweep.full.bit_length()
            if scanned > _SCAN_CAP:
                raise EnumerationCapExceeded(
                    "no answer after %d columns (cap %d)"
                    % (scanned, _SCAN_CAP))
    return None


def counter_bits(gamma_masks, delta_masks) -> int:
    """Positions in every gamma mask and in no delta mask."""
    bits = -1
    for m in gamma_masks:
        bits &= m
    for m in delta_masks:
        bits &= ~m
    return bits


def _counter(n: int):
    """``marked`` for a sequent compiled with its n antecedent formulas
    first: the columns designating all of those and none of the rest."""

    def marked(code, env, full):
        ts = [t for t, _ in _run(code, env, full)]
        return counter_bits(ts[:n], ts[n:])

    return marked


# ---------------------------------------------------------------------------
# propositional consequence


@functools.lru_cache(maxsize=64)
def _prop_sweep(k: int, allowed: frozenset, block) -> _Sweep:
    """The valuations of k atoms into ``allowed``, in ``valuations``
    order: the columns of domain size 1 over k propositions, one digit
    per atom position, whatever the atoms' names."""
    sig = Signature(predicates=tuple(("p%d" % j, 0) for j in range(k)))
    return _Sweep(sig, 1, "total", allowed, False, None, (), block)


def scan_valuations(formulas, marked, allowed=ALL_VALUES):
    """The first valuation into ``allowed``, in ``valuations`` order,
    that ``marked`` picks, or None: ``_first`` over the sweep of the
    formulas' atoms, their names zipped onto its digits' pairs."""
    code, atoms = _compile_prop(formulas)
    sweep = _prop_sweep(len(atoms), allowed, _BLOCK_COLUMNS)
    hit = _first([(sweep, code)], marked, lambda sweep, code, outer: dict(
        zip(atoms, sweep.pairs(outer))))
    return None if hit is None else dict(zip(atoms, hit[1]))


def consequence_prop(gamma, delta, allowed=ALL_VALUES):
    """Propositional consequence over every valuation into ``allowed``.

    Returns (True, None) when every valuation into ``allowed`` that
    designates all of gamma designates some member of delta, else
    (False, the first countervaluation in ``valuations`` order).
    """
    _check_allowed(allowed)
    gamma, delta = list(gamma), list(delta)
    witness = scan_valuations(gamma + delta, _counter(len(gamma)), allowed)
    return witness is None, witness


def equivalent_prop(a, b):
    """Identical truth value under every valuation of the shared atoms."""

    def differ(code, env, full):
        (t1, f1), (t2, f2) = _run(code, env, full)
        return (t1 ^ t2) | (f1 ^ f2)

    witness = scan_valuations([a, b], differ)
    return witness is None, witness


def truth_table(a, atoms) -> tuple:
    """The values of a formula over ``valuations(atoms)``, in order; the
    table is as large as one sweep over all the atoms, so no blocks."""
    code, atoms = _compile_prop([a], atoms)
    sweep = _prop_sweep(len(atoms), ALL_VALUES, None)
    (t, f), = _run(code, dict(zip(atoms, sweep.pairs(()))), sweep.full)
    return tuple(_BY_BITS[(t >> i & 1) << 1 | f >> i & 1]
                 for i in range(sweep.columns))


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
    m, alpha = structure, assignment or {}
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
            return neg(evaluate(b, m, alpha))
        case And(l, r):
            return meet(evaluate(l, m, alpha), evaluate(r, m, alpha))
        case Or(l, r):
            return join(evaluate(l, m, alpha), evaluate(r, m, alpha))
        case Imp(l, r):
            return imp(evaluate(l, m, alpha), evaluate(r, m, alpha))
        case Forall(x, b) | Exists(x, b):
            vals = {evaluate(b, m, {**alpha, x: d}) for d in m.domain}
            return (inf if a.__class__ is Forall else sup)(vals)
        case ExtApp(conn, args):
            table = EXTRA_CONNECTIVES[conn][1]
            return table[evaluate(args[0], m, alpha) if args else 0]
    raise SemanticsError("not a formula: %r" % (a,))


# ---------------------------------------------------------------------------
# structure enumeration and bounded first-order consequence


def count_structures(sig: Signature, size: int, mode: str = "total",
                     allowed=ALL_VALUES, need_eq: bool = True,
                     eq_distinct=None) -> int:
    """How many structures ``enumerate_structures`` gives: the column
    count of their sweep, built blocked so that no mask spans them."""
    return _Sweep(sig, size, mode, allowed, need_eq, eq_distinct, (),
                  _BLOCK_COLUMNS).columns


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
    block by block as ``consequence_prop``'s are; the countermodel is
    the first column, in ``enumerate_structures`` order with the
    assignments innermost, that designates all of gamma and nothing in
    delta, and it is the only Structure built.  Raises SemanticsError
    when the bound admits no structure, and EnumerationCapExceeded
    before any scan once the structures of the sizes counted so far,
    smallest first, number more than ``cap``, and during the scan once
    the blocks scanned without a countermodel hold more than
    ``_SCAN_CAP`` columns.
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

    sweeps, total = [], 0
    for size in range(least, max_domain + 1):
        sweeps.append(_Sweep(small, size, mode, allowed, has_eq, eq_distinct,
                             fv, _BLOCK_COLUMNS))
        # a size's columns are its structures times the assignments
        total += sweeps[-1].columns // size ** len(fv)
        if total > cap:
            raise EnumerationCapExceeded(
                "would enumerate at least %d structures (cap %d)"
                % (total, cap))

    hit = _first(((s, _ground(code, s.domain, {})) for s in sweeps),
                 _counter(len(gamma)), _Sweep.fill)
    if hit is None:
        return FOResult(True)
    sweep, digits = hit
    return FOResult(False, *sweep.decode(digits))


class FOSpace:
    """Validity oracle over every column of a finite class: each
    structure ``enumerate_structures`` gives for a size in ``sizes``,
    with each assignment of ``variables``.

    A formula's (t, f) pair over the columns is the pair of its grounded
    sweep, size after size, and a sequent is valid on the class exactly
    when no column designates the whole antecedent while designating
    nothing in the succedent.  ``columns`` is the sequence of
    (structure, assignment) pairs, decoded on access.  A size that
    admits no structure is refused.  The checks take a ``mode`` that
    names the columns they range over; here "bd" is every column.
    """

    def __init__(self, sig, sizes, mode="total", need_eq=True,
                 eq_distinct=None, variables=()):
        self.sig = sig
        self.variables = tuple(variables)
        self._sweeps = tuple(
            _Sweep(sig, size, mode, ALL_VALUES, need_eq, eq_distinct,
                   self.variables) for size in sizes)
        if not all(s.columns for s in self._sweeps):
            raise SemanticsError("a domain size in %s admits no structure"
                                 % (tuple(sizes),))
        self._envs = tuple({} for _ in self._sweeps)  # atom pairs per size
        self.columns = _Columns(self._sweeps)
        self._modes = {"bd": (1 << len(self.columns)) - 1}
        self._vectors = {}

    def vector(self, a) -> tuple:
        """The formula's (t, f) pair; equal pairs mean equal values in
        every column."""
        out = self._vectors.get(a)
        if out is None:
            code, _, _, _, fv = _compile([a], self.sig)
            if unbound := set(fv) - set(self.variables):
                raise SemanticsError("unbound variable %s" % min(unbound))
            t = f = shift = 0
            for sweep, env in zip(self._sweeps, self._envs):
                ground = _ground(code, sweep.domain, {})
                sweep.fill(ground, (), env)
                (st, sf), = _run(ground, env, sweep.full)
                t |= st << shift
                f |= sf << shift
                shift += sweep.columns
            out = self._vectors[a] = (t, f)
        return out

    def mask(self, a) -> int:
        """Bit i set iff column i designates the formula."""
        return self.vector(a)[0]

    def holds(self, gamma_masks, delta_masks, mode="bd") -> int | None:
        """Consequence over the mode's columns; None when it holds, else
        the index of the first counter column."""
        bits = counter_bits(gamma_masks, delta_masks) & self._modes[mode]
        return (bits & -bits).bit_length() - 1 if bits else None

    def counter_mask(self, s: Sequent, mode="bd") -> int:
        return (counter_bits(map(self.mask, s.ant), map(self.mask, s.suc))
                & self._modes[mode])

    def valid(self, s: Sequent, mode="bd") -> bool:
        return self.counter_mask(s, mode) == 0

    def countermodel(self, s: Sequent, mode="bd"):
        """The first counter column's (structure, assignment), or None."""
        cm = self.counter_mask(s, mode)
        return self.columns[(cm & -cm).bit_length() - 1] if cm else None


class PropSpace(FOSpace):
    """Bulk propositional work over a fixed tuple of at most eight atoms:
    the ``FOSpace`` of domain size 1 over the atoms as propositions,
    whose columns are ``valuations(atoms)``, one block of them.  Its
    modes are bd, lp, k3 and cl, each the columns whose every atom takes
    a value the mode allows, and a countermodel is a valuation."""

    # entries of its own, so that a tracer that rebinds a class's
    # methods (bench/layertrace.py) tells the two spaces apart
    vector, mask, holds = FOSpace.vector, FOSpace.mask, FOSpace.holds

    def __init__(self, atoms: tuple):
        self.atoms = tuple(atoms)
        if 4 ** len(self.atoms) > _BLOCK_COLUMNS:
            raise SemanticsError("a PropSpace holds at most %d valuations"
                                 % _BLOCK_COLUMNS)
        super().__init__(Signature(predicates=tuple(
            (a, 0) for a in self.atoms)), (1,), need_eq=False)
        sweep, = self._sweeps
        for mode, allowed in MODE_VALUES.items():
            out = sweep.full
            for j, values in enumerate(sweep.values):
                out &= sum(m for m, v in zip(sweep._masks(j, ()), values)
                           if v in allowed)
            self._modes[mode] = out

    def countermodel(self, s: Sequent, mode="bd") -> dict | None:
        column = super().countermodel(s, mode)
        return None if column is None else column[0].props


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
                return s.decode(s.digits((), i))
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

        for name, lhs, rhs in (
                ("conjunction-right", (g, d + [And(a1, a2)]),
                 ((g, d + [a1]), (g, d + [a2]))),
                ("disjunction-left", ([Or(a1, a2)] + g, d),
                 (([a1] + g, d), ([a2] + g, d))),
                ("deduction", (g, d + [Imp(a1, a2)]),
                 (([a1] + g, d + [a2]),))):
            if (consequence_prop(*lhs)[0]
                    != all(consequence_prop(*x)[0] for x in rhs)):
                failures.append((name, g, d, a1, a2))
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

        for name, lhs, rhs in (
                ("forall-right", (g, d + [Forall("x", a1)]), (g, d + [a1])),
                ("exists-left", ([Exists("x", a1)] + g, d), ([a1] + g, d))):
            if (consequence_fo(*lhs, sig, max_domain=2).holds
                    != consequence_fo(*rhs, sig, max_domain=2).holds):
                failures.append((name, g, d, a1))
        checked += 2

    return {"checked": checked, "failures": failures}
