"""Evaluation and brute-force consequence for the four-valued logic.

One evaluator serves everything: ``_run`` takes a formula's compiled
code to a (told-true, told-false) pair of ints over many columns at
once.  The base connectives are bitwise operations on the pairs, and
any other connective is a table applied through one-hot masks: an
extra connective compiles to its table, and a quantifier's body runs
once per domain element.  The lowest set bit of a mask marks the first
column in enumeration order.

The columns of a sweep are (structure, assignment) pairs, laid out as
"the sweep" below says; a propositional formula is a first-order one
over nullary predicates, so its valuations are the columns of domain
size 1.  One block-by-block scan serves ``consequence_prop``,
``equivalent_prop`` and ``consequence_fo``.  One space class,
``FOSpace``, keeps formulas' pairs over whole sweeps and checks sequents
on them; ``PropSpace`` is the ``FOSpace`` of domain size 1 over a tuple
of atoms, with a column mask per value set.  A mode is a sweep's, total
or partial (``_least_size``).  ``truth_table`` reads one sweep whole.

``evaluate_prop`` (one valuation) and ``evaluate`` (one structure) are
the references the engine is tested against; like ``_run``, ``evaluate``
reads a quantifier whose body does not use its variable once, so one
count, ``_grounding``, bounds both.  ``enumerate_structures`` decodes a
sweep's columns; its nested-loop form is the tests' reference.
"""

from __future__ import annotations

import functools
import itertools
import math

from .parser import _quote
from .syntax import (
    And, Eq, Exists, ExtApp, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, Var, _bottom_up, _rebind, _record, free_vars, kept,
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


_BINARY = {And: meet, Or: join, Imp: imp}
_CANONICAL = {v: v for v in MODE_VALUES.values()}  # see _check_allowed


def evaluate_prop(a, valuation: dict) -> TruthValue:
    """Value of a propositional formula under a valuation: the reference
    for the bit-pair engine, a walk over the ``values`` functions."""
    cls = a.__class__
    if cls is Prop:
        try:
            return valuation[a.name]
        except KeyError:
            raise SemanticsError("no value for proposition %s" % a.name) from None
    if cls is Not:
        return neg(evaluate_prop(a.body, valuation))
    if cls in _BINARY:
        return _BINARY[cls](evaluate_prop(a.left, valuation),
                            evaluate_prop(a.right, valuation))
    if cls is Falsity:
        return F
    if cls is ExtApp:
        table = EXTRA_CONNECTIVES[a.conn][1]
        return table[evaluate_prop(a.args[0], valuation) if a.args else 0]
    raise SemanticsError("not a propositional formula: %s" % (a,))


def _check_allowed(allowed) -> frozenset:
    if allowed not in MODE_VALUES.values():
        raise SemanticsError("allowed value set must be one of the four "
                             "closed restrictions")
    return frozenset(allowed)


def valuations(atoms, allowed=ALL_VALUES):
    """All valuations of the given atoms into the allowed set, in a fixed
    deterministic order (t, b, n, f per coordinate)."""
    _check_allowed(allowed)
    vals = tuple(v for v in VALUES if v in allowed)
    return (dict(zip(atoms, combo))
            for combo in itertools.product(vals, repeat=len(atoms)))


# ---------------------------------------------------------------------------
# the bit-pair engine

# Over a block of columns a formula's values are a pair of ints (t, f):
# bit i of t (of f) is set when the i-th column makes the formula
# told-true (told-false), after Belnap 1977 and Dunn 1976.  So t, b, n,
# f are (1, 0), (1, 1), (0, 0), (0, 1), and t is the designation mask.
_BY_BITS = (N, F, T, B)  # the value with bits (t, f), at index 2t + f


# A connective is also given by its table: the value for each tuple of
# argument values, at index a1 * 4 + a2 for a binary one, in t, b, n, f
# order, and for a constant a 1-tuple of its value.
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


class _Atom:
    """An atom in first-order code: its node, and its ground shape (see
    "the sweep") with a slot, None, per variable bound around it."""

    __slots__ = ("node", "shape", "slots")

    def __init__(self, node, shape: tuple, slots):
        self.node, self.shape, self.slots = node, shape, slots


def _compile(formulas, sig: Signature) -> tuple:
    """Postfix code for the formulas, and what they use, in one walk.

    A connective follows its operands, the left one on top of the
    stack.  An item is an atom (a proposition's name in propositional
    code, else an ``_Atom``), one of the classes Not, And, Or, Imp and
    Falsity, an extra connective's table, or for a quantifier the list
    [Forall or Exists, variable, code of the body], just the body's code
    when the body does not use the variable.  Returns the code, the
    functions and predicates that occur as (name, arity) pairs (a
    proposition has arity 0), whether equality occurs, and the free
    variables, sorted.  Every symbol must be declared in the signature
    with its arity; with no signature the formulas must be
    propositional, and the predicates returned are the names of their
    atoms.
    """
    code, funcs, preds, free, has_eq = [], set(), set(), set(), False
    for a in formulas:
        stack, bound = [a], {}  # variable -> whether each binder uses it
        while stack:
            x = stack.pop()
            cls = x.__class__
            if cls is Prop:
                preds.add(_arity(x.name, sig.predicate_arity(x.name), ())
                          if sig else x.name)
                code.append(_Atom(x, (x.name,), None) if sig else x.name)
            elif (cls is Pred or cls is Eq) and sig:
                if cls is Pred:
                    preds.add(_arity(x.name, sig.predicate_arity(x.name),
                                     x.args))
                    shape, terms = [Pred, x.name], list(x.args[::-1])
                else:
                    has_eq = True
                    shape, terms = [Eq], [x.right, x.left]
                slots, fault = [], None
                while terms:  # the terms in prefix order
                    t = terms.pop()
                    if t.__class__ is Var:
                        if bound.get(t.name):
                            bound[t.name][-1] = True
                            slots.append((len(shape), t.name))
                            shape.append(None)
                        else:
                            free.add(t.name)
                            shape += (Var, t.name)
                    elif t.__class__ is Fun:
                        try:
                            funcs.add(_arity(t.name, sig.function_arity(
                                t.name), t.args))
                            shape += (Fun, t.name)
                            terms += t.args[::-1]
                        except SemanticsError as e:
                            fault = e
                    else:
                        fault = SemanticsError("not a term: %r" % (t,))
                if fault:  # the right-most, as a right-to-left walk finds
                    raise fault
                code.append(_Atom(x, tuple(shape), slots))
            elif cls is tuple:  # an operator whose operands are done
                if len(x) == 1:
                    code.append(x[0])
                else:  # a quantifier: its body's code ends its scope
                    q, var, start = x
                    if bound[var].pop():  # else the one copy's code serves
                        code[start:] = [[q, var, code[start:]]]
            elif cls is And or cls is Or or cls is Imp:
                stack += ((cls,), x.left, x.right)
            elif cls is Not:
                stack += ((Not,), x.body)
            elif cls is Falsity:
                stack.append((Falsity,))
            elif cls is ExtApp:
                stack += ((EXTRA_CONNECTIVES[x.conn][1],), *x.args)
            elif (cls is Forall or cls is Exists) and sig:
                stack += ((cls, x.var, len(code)), x.body)
                bound.setdefault(x.var, []).append(False)
            else:
                raise SemanticsError("not a %sformula: %s"
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
    """The (t, f) pair of each compiled formula, given its atoms' pairs
    in ``env``: by name, or for first-order code a ``_Block``'s by ground
    shape.  The base connectives are bitwise operations on the pairs; a
    table goes through ``_apply``.  A quantifier's body runs once per
    element, the pairs joined by And for forall and by Or for exists;
    the code still to run waits on a stack, so they nest to any depth."""
    stack, waiting, ops, binding = [], [], iter(code), {}
    push, pop = stack.append, stack.pop
    while True:
        for op in ops:
            cls = op.__class__
            if cls is str:
                push(env[op])
            elif op is Not:
                t, f = pop()
                push((f, t))
            elif op is Falsity:
                push((0, full))
            elif cls is tuple:
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
            elif cls is _Atom:
                key = op.shape
                if op.slots:
                    key = list(key)
                    for i, var in op.slots:
                        key[i] = binding[var]
                    key = tuple(key)
                push(env.get(key) or env.miss(op, key, binding))
            else:  # a quantifier: the rest of ops waits under the body
                q, var, body = op
                join = (And if q is Forall else Or,)
                waiting.append((ops, binding))
                for d in env.domain[:0:-1]:  # each copy but the first, joined
                    waiting += ((iter(join), binding),
                                (iter(body), {**binding, var: d}))
                ops, binding = iter(body), {**binding, var: env.domain[0]}
                break
        else:
            if not waiting:
                return stack
            ops, binding = waiting.pop()


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
# quantifier is the infimum (forall) or supremum (exists) of its body's
# pairs with its variable bound to each element in turn: MACE-style
# grounding (McCune's Mace4; Claessen and Sorensson 2003), run in place.
# A ground atom's shape is a flat prefix tuple: an element is its name,
# anything else its class, its name (none for an equation, only it for
# a proposition) and its arguments' shapes.  The valuations of k atoms
# are the columns of domain size 1 over k propositions.  A scan takes
# blocks of at most _BLOCK_COLUMNS columns, the outer digits fixed per
# block, in column order, which bounds memory and keeps the early exit.
_BLOCK_COLUMNS = 1 << 16

# ``consequence_fo`` reads two caches.  ``_plan`` keeps 256 query
# shapes, what the symbols that occur and the bounds decide: their
# signature, the sweeps' shape and the refusal; a plan holds names,
# values and numbers only, never a node, a sweep or a mask.  The sweeps
# come from ``_fo_sweep`` alone, 256 of them on ``_layout``'s key and
# the block size, so each builds its digit masks once.  A cached sweep
# that is a single block also keeps the (t, f) pair of each ground atom
# it meets, keyed by the atom's ground shape, never by its node, so no
# kept pair holds a formula alive.  The cached sweeps hold at most this
# many bits between them, their digit masks and pairs counted as each
# sweep is made and each kept pair with its key as it is kept
# (``_count_kept``); past it the cache starts afresh.  ``FOSpace`` and
# ``enumerate_structures`` build sweeps of their own, which keep
# nothing and share nothing with it.
_KEPT_BITS = 1 << 25
_kept_bits = 0  # bits counted since the cache last started afresh

# A scan that has passed this many columns without an answer gives up:
# past it each further atom multiplies the time by up to four, and each
# further free variable by the domain size.
_SCAN_CAP = 4 ** 13


def _least_size(mode) -> int:
    """A sweep mode's least domain size: 1 total, 2 partial (the bottom
    and one more).  Each public entry asks here, before any cache, so
    here any other mode is refused."""
    if mode != "total" and mode != "partial":
        raise SemanticsError("unknown mode %s; a sweep is total or partial"
                             % _quote(str(mode)))
    return 2 if mode == "partial" else 1


@functools.lru_cache(maxsize=256)
def _layout(sig: Signature, size: int, mode, allowed, need_eq, eq_distinct,
            variables) -> tuple:
    """The domain and bottom of a sweep, its digits' roles, value tuples
    and positions, and its column count, which is 0 for a size with no
    structure, for a mode that ``_least_size`` let through."""
    if mode == "partial":
        if allowed != ALL_VALUES:
            raise SemanticsError(
                "partial mode does not combine with restrictions")
        domain, bottom = ("u",) + tuple("d%d" % i for i in range(1, size)), "u"
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
        self.kept = None  # atom pairs by ground shape, if cached as one block

    def blocks(self):
        """The outer digits' values of each block, in column order."""
        return (itertools.product(*map(range, self.outer)) if self.columns
                else ())

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
            v, full = self.values[j][outer[j]], self.full
            return (full if v in DESIGNATED else 0, full if v in (B, F) else 0)
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

    def _denote(self, op, outer, memo: dict) -> tuple:
        """For a Pred or Eq atom its (t, f) pair, for a Fun term its
        selector: the OR over element tuples of the AND of the argument
        terms' selectors with the masks ``_cells`` gives for the tuple."""
        full, domain = self.full, self.domain
        terms = (op.left, op.right) if op.__class__ is Eq else op.args
        out = [0] * (len(domain) if op.__class__ is Fun else 2)
        hot = [[(domain[i], m) for i, m in enumerate(_bottom_up(
            t, memo, self._selector, outer, memo)) if m] for t in terms]
        for combo in itertools.product(*hot):
            both = full
            for _, m in combo:
                both &= m
            if both:
                key = tuple(e for e, _ in combo)
                for k, m in enumerate(self._cells(op, key, outer)):
                    out[k] |= both & m
        return tuple(out)

    def _cells(self, op, key: tuple, outer):
        """The value masks of function ``op`` at the element tuple
        ``key``, or the (t, f) pair of the predicate or equality."""
        cls = op.__class__
        if cls is Fun:
            return self._masks(self.where[("fun", op.name, key)], outer)
        if cls is Pred:
            return self.pair(self.where[("pred", op.name, key)], outer)
        if self.bottom in key:
            return (0, 0)
        if self.need_eq:
            return self.pair(self.where[("eq",) + key], outer)
        return (self.full, 0) if key[0] == key[1] else (0, self.full)

    def _selector(self, t, outer, memo: dict):
        """Per element, the block positions where the ground term t
        denotes it, its arguments' selectors in ``memo``."""
        if t.__class__ is str:
            return [self.full if d == t else 0 for d in self.domain]
        if t.__class__ is Var:
            return self._masks(self.where[("var", t.name)], outer)
        return self._denote(t, outer, memo)

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


class _Block:
    """The atoms' pairs over a block of a sweep by ground shape, its kept
    ones if it keeps pairs: ``get`` reads one, ``miss`` adds one."""

    __slots__ = ("sweep", "outer", "domain", "memo", "pairs", "get")

    def __init__(self, sweep: _Sweep, outer):
        self.sweep, self.outer, self.domain = sweep, outer, sweep.domain
        self.pairs = {} if sweep.kept is None else sweep.kept
        self.get, self.memo = self.pairs.get, {}  # memo: term selectors

    def miss(self, atom: _Atom, key: tuple, binding: dict) -> tuple:
        """The atom's pair under the binding, built and kept by ``key``."""
        sweep, outer, a = self.sweep, self.outer, atom.node
        if atom.slots and a.__class__ is Pred:
            a = Pred(a.name, tuple([_rebind(t, binding) for t in a.args]))
        elif atom.slots:
            a = Eq(_rebind(a.left, binding), _rebind(a.right, binding))
        out = (sweep.pair(sweep.where[("pred", a.name, ())], outer)
               if a.__class__ is Prop else sweep._denote(a, outer, self.memo))
        self.pairs[key] = out
        if sweep.kept is not None:
            _count_kept(sweep, 2, len(key))
        return out


@functools.lru_cache(maxsize=256)
def _fo_sweep(sig: Signature, size: int, mode, allowed, need_eq, eq_distinct,
              variables, block) -> _Sweep:
    """``consequence_fo``'s sweep, cached as told above ``_KEPT_BITS``."""
    sweep = _Sweep(sig, size, mode, allowed, need_eq, eq_distinct, variables,
                   block)
    if not sweep.outer:
        sweep.kept = {}
    # each inner digit's value masks and its pair
    inner = sweep.values[len(sweep.outer):]
    _count_kept(sweep, sum(len(v) + 2 for v in inner), 0)
    return sweep


def _count_kept(sweep: _Sweep, masks: int, items: int):
    """Count that many more masks over the sweep's block and items of
    kept keys: a mask as its columns plus 1,024 bits for the int and the
    slots that hold it, an item as 64 bits.  Past ``_KEPT_BITS`` first
    drop every cached sweep, and with them every pair they keep."""
    global _kept_bits
    bits = masks * (sweep.full.bit_length() + 1024) + 64 * items
    if not _fo_sweep.cache_info().currsize:  # cleared since last counted
        _kept_bits = 0
    if _kept_bits + bits > _KEPT_BITS:
        _fo_sweep.cache_clear()
        _kept_bits = 0
    _kept_bits += bits


def _first(scans, marked, env):
    """The first column that ``marked`` picks, as its sweep and digit
    values, or None.  ``scans`` gives (sweep, code) pairs, taken in turn.
    Each sweep is scanned block by block in column order:
    ``env(sweep, code, outer)`` gives the pairs of the atoms of ``code``
    over the block named by its outer digits' values, and
    ``marked(code, env, full)`` the mask of picks.  Raises
    EnumerationCapExceeded once the blocks scanned without a pick hold
    more than ``_SCAN_CAP`` columns."""
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
    allowed = _check_allowed(allowed)
    code, atoms = _compile_prop(formulas)
    sweep = _prop_sweep(len(atoms), allowed, _BLOCK_COLUMNS)
    hit = _first([(sweep, code)], marked, lambda sweep, code, outer: dict(
        zip(atoms, sweep.pairs(outer))))
    return None if hit is None else dict(zip(atoms, hit[1]))


def consequence_prop(gamma, delta, allowed=ALL_VALUES):
    """Propositional consequence over every valuation into ``allowed``.

    Returns (True, None) when every valuation into ``allowed`` that
    designates all of gamma designates some member of delta, else
    (False, the first countervaluation in ``valuations`` order).  Over a
    single-block sweep each formula's designation mask is read from, or
    left in, the ``_mask`` slot of its node (see ``syntax``), keyed by
    the atoms and value set; a larger sweep is scanned by ``_first``.
    """
    try:
        allowed = _CANONICAL[allowed]
    except (KeyError, TypeError):  # a set equal to one, or no value set
        allowed = _check_allowed(allowed)
    formulas = list(gamma)
    n = len(formulas)
    formulas += delta
    names = set()
    for a in formulas:
        names |= (getattr(a, "_prop_code", None)
                  or kept(a, "_prop_code", _prop_code))[1]
    atoms = tuple(sorted(names))
    sweep = _prop_sweep(len(atoms), allowed, _BLOCK_COLUMNS)
    if sweep.outer:
        witness = scan_valuations(formulas, _counter(n), allowed)
        return witness is None, witness
    key, ts, env = (atoms, allowed), [], None
    for a in formulas:
        slot = a._mask
        if slot[0] != key:
            env = env or dict(zip(atoms, sweep.pairs(())))
            slot = key, _run(a._prop_code[0], env, sweep.full)[0][0]
            object.__setattr__(a, "_mask", slot)
        ts.append(slot[1])
    bits = counter_bits(ts[:n], ts[n:]) & sweep.full
    if not bits:
        return True, None
    first = (bits & -bits).bit_length() - 1  # the lowest set bit, as _first
    return False, dict(zip(atoms, sweep.digits((), first)))


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


# ---------------------------------------------------------------------------
# structures


@_record
class Structure:
    """A finite interpretation.

    ``eq`` maps ordered element pairs to values; it must designate equal
    pairs (of non-bottom elements) and, in partial mode, give n whenever
    either element is the bottom.  Pairs left out of ``eq`` default to
    t on equal and f on distinct pairs.
    """

    domain: tuple
    consts: dict = {}
    funcs: dict = {}
    props: dict = {}
    preds: dict = {}
    eq: dict = {}
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
        for d1, d2 in itertools.product(self.domain, repeat=2):
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
        object.__setattr__(self, "eq", full)  # the one field set late

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
    """Value of a formula in a structure under an assignment.  A
    quantifier whose variable is not free in its body has its body's
    value, read once, as ``_run`` reads it: the inf or sup of one value."""
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
        case And(l, r) | Or(l, r) | Imp(l, r):
            return _BINARY[a.__class__](evaluate(l, m, alpha),
                                        evaluate(r, m, alpha))
        case Forall(x, b) | Exists(x, b):
            if x not in free_vars(b):
                return evaluate(b, m, alpha)
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
    count of their sweep's layout, read without building the sweep."""
    _least_size(mode)
    return _layout(sig, size, mode, frozenset(allowed), need_eq,
                   None if eq_distinct is None else tuple(eq_distinct),
                   ())[-1]


def enumerate_structures(sig: Signature, size: int, mode: str = "total",
                         allowed=ALL_VALUES, need_eq: bool = True,
                         eq_distinct=None):
    """All structures with the given domain size: the columns of their
    sweep, decoded in order.  In partial mode the first domain element is
    the bottom and ``size`` counts it.  ``allowed`` draws every predicate
    and equality value from that set, and ``eq_distinct``, when given,
    the equality values of distinct elements.  A size below 1, or below
    2 in partial mode, gives none, before anything is laid out."""
    if size < _least_size(mode):
        return
    sweep = _Sweep(sig, size, mode, allowed, need_eq, eq_distinct, (),
                   _BLOCK_COLUMNS)
    for outer in sweep.blocks():
        for i in range(sweep.full.bit_length()):
            yield sweep.decode(sweep.digits(outer, i))[0]


def _structure_bits(sig: Signature, size: int, mode, allowed, need_eq,
                    eq_distinct) -> float:
    """log2 of the count of structures ``_layout`` lays out at one size,
    read off the arities alone: each digit adds log2 of its radix.  A
    symbol with more than 2^1000 digits makes it infinite."""
    def cells(symbols) -> float:
        return sum(size ** a if a * math.log2(size) < 1000 else math.inf
                   for _, a in symbols)

    vals = [v for v in VALUES if v in allowed]
    digits = [(size, cells(sig.functions)), (len(vals), cells(sig.predicates))]
    if need_eq:
        real = size + 1 - _least_size(mode)
        dist = vals if eq_distinct is None else list(eq_distinct)
        digits += [(len([v for v in (T, B) if v in allowed]), real),
                   (len(dist), real * (real - 1))]
    return sum(n * math.log2(radix) for radix, n in digits if radix > 1)


def _grounding(code, least: int, most: int, cap: int):
    """(domain elements, code items ``_run`` runs) of ``_compile``'s code
    over the sizes least..most.

    At size k an item at quantifier depth j runs k^j times, and an item
    [q, var, body] adds k^j (k - 1) joins and its body one level down:
    it weighs -1 at j and +1 at j + 1, and a quantifier compiled to its
    body weighs nothing.  So both counts are sums of powers of the sizes,
    in closed form: the count and the sum of the sizes, and for j > 1
    the telescoping sum of (k + 1)^(j + 1) - k^(j + 1).  The sums grow
    with j and the items are at least the deepest one's, so the items
    stop at a lower bound once a sum passes the cap."""
    weights, todo = [0], [(code, 0)]  # the weight at each depth
    while todo:
        ops, depth = todo.pop()
        for op in ops:
            if op.__class__ is list:
                weights += [0] * (depth + 2 - len(weights))
                weights[depth] -= 1
                weights[depth + 1] += 1
                todo.append((op[2], depth + 1))
            else:
                weights[depth] += 1
    if most == 1:  # one element: every power is 1
        return 1, sum(weights)
    depth = len(weights) - 1
    n = most + 1 - least
    sums = [n, n * (least + most) // 2]  # the sums of k^j over the sizes
    for j in range(2, depth + 1):
        if sums[-1] > cap:
            break
        rest = sum([math.comb(j + 1, i) * s for i, s in enumerate(sums)])
        sums.append(((most + 1) ** (j + 1) - least ** (j + 1) - rest)
                    // (j + 1))
    if depth and sums[-1] > cap:
        return sums[1], sums[-1]
    return sums[1], sum([w * s for w, s in zip(weights, sums)])


@functools.lru_cache(maxsize=256)
def _plan(funcs, preds, extras, mode, allowed, has_eq, eq_distinct,
          max_domain: int, cap: int) -> tuple:
    """What a ``consequence_fo`` query's symbols and bounds decide: their
    signature, the sweeps' shape (``_layout``'s key but the signature,
    size and variables), and the refusal's class and text, or None: once
    the structures (``count_structures``) of the sizes so far, smallest
    first, pass the cap, or when all the sizes hold none.  A size with
    over 2^64 times the cap structures is refused from the arities
    alone, before its layout is built."""
    small = Signature(tuple(sorted(funcs)), tuple(sorted(preds)), extras)
    shape, limit = (mode, allowed, has_eq, eq_distinct), cap.bit_length() + 64
    total = 0
    for size in range(_least_size(mode), max_domain + 1):
        if (bits := _structure_bits(small, size, *shape)) > limit:
            k = bits * math.log10(2)
            total = "about 10^%d" % k if k < 1e15 else "10^(10^15)"
            break
        total += count_structures(small, size, *shape)
        if total > cap:
            break
    else:
        return small, shape, None if total else (
            SemanticsError, "value set {%s} admits no structure of these "
            "symbols up to domain %d" % (", ".join(
                [str(v) for v in VALUES if v in allowed]), max_domain))
    return small, shape, (EnumerationCapExceeded, "would enumerate at least "
                          "%s structures (cap %d)" % (total, cap))


def _count(n: int) -> str:
    """A count in full, or about 10^k when it is too long to read."""
    return "%d" % n if n < 10**15 else "about 10^%d" % math.log10(n)


@_record
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
    one sweep, scanned block by block, each quantifier's body run in
    place per element; the countermodel is the first column, in
    ``enumerate_structures`` order with the assignments innermost, that
    designates all of gamma and nothing in delta, and it is the only
    Structure built.  What its symbols and bounds decide comes from
    ``_plan``'s cache, which holds names, values and numbers, never
    a node, sweep or mask; the sweeps come from ``_fo_sweep``'s (see
    ``_KEPT_BITS``).  Raises SemanticsError when the bound or the value
    set admits no structure, and EnumerationCapExceeded before any sweep
    is built once the domain elements or the code items ``_run`` runs
    (``_grounding``) of all the sizes, or the structures of the sizes
    counted so far, number more than ``cap``, and during the scan once
    the blocks scanned without a countermodel hold more than
    ``_SCAN_CAP`` columns.  A mode but total or partial is refused first.
    """
    least = _least_size(mode)
    gamma, delta = list(gamma), list(delta)
    code, funcs, preds, has_eq, fv = _compile(gamma + delta, sig)
    if max_domain < least:
        raise SemanticsError(
            "domain bound %d admits no structure; the least %sdomain size "
            "is %d" % (max_domain, "partial " if least == 2 else "", least))

    elements, items = _grounding(code, least, max_domain, cap)
    if elements > cap or items > cap:
        raise EnumerationCapExceeded(
            "would lay out %s domain elements and ground at least %s "
            "formula items (cap %d)" % (_count(elements), _count(items), cap))
    small, shape, refusal = _plan(
        frozenset(funcs), frozenset(preds), sig.extras, mode,
        frozenset(allowed), has_eq,
        None if eq_distinct is None else tuple(eq_distinct), max_domain, cap)
    if refusal:
        raise refusal[0](refusal[1])

    # a size is taken from the cache only when the scan reaches it
    hit = _first(((_fo_sweep(small, size, *shape, fv, _BLOCK_COLUMNS), code)
                  for size in range(least, max_domain + 1)),
                 _counter(len(gamma)), lambda s, code, outer: _Block(s, outer))
    return FOResult(True) if hit is None else FOResult(
        False, *hit[0].decode(hit[1]))


class FOSpace:
    """Validity oracle over every column of a finite class: each
    structure ``enumerate_structures`` gives for a size in ``sizes``,
    with each assignment of ``variables``.

    A formula's (t, f) pair over the columns is its code's over each
    size's sweep, run as one block; a sequent is valid on the class
    exactly when no column designates the whole antecedent while
    designating nothing in the succedent.  ``columns`` is the sequence
    of (structure, assignment) pairs, decoded on access, and ``full``
    their mask.  No size, or a size that admits no structure, is
    refused: every sequent is valid on an empty class.  The checks range
    over every column; a mask of fewer is one more antecedent mask.
    """

    def __init__(self, sig, sizes, mode="total", need_eq=True,
                 eq_distinct=None, variables=()):
        _least_size(mode)
        self.sig, self.variables, sizes = sig, tuple(variables), tuple(sizes)
        self._sweeps = tuple(
            _Sweep(sig, size, mode, ALL_VALUES, need_eq, eq_distinct,
                   self.variables) for size in sizes)
        if not sizes or not all(s.columns for s in self._sweeps):
            raise SemanticsError("a domain size in %s admits no structure"
                                 % (sizes,))
        self._envs = tuple(_Block(s, ()) for s in self._sweeps)
        self.columns = _Columns(self._sweeps)
        self.full = (1 << len(self.columns)) - 1
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
                (st, sf), = _run(code, env, sweep.full)
                t |= st << shift
                f |= sf << shift
                shift += sweep.columns
            out = self._vectors[a] = (t, f)
        return out

    def mask(self, a) -> int:
        """Bit i set iff column i designates the formula: the kept pair
        is read here, and ``vector`` runs only on a miss to fill it."""
        return (self._vectors.get(a) or self.vector(a))[0]

    def holds(self, gamma_masks, delta_masks) -> int | None:
        """Consequence over the columns given the formulas' masks: None
        when it holds, else the first counter column's index."""
        bits = counter_bits(gamma_masks, delta_masks) & self.full
        return (bits & -bits).bit_length() - 1 if bits else None

    def counter_mask(self, s: Sequent) -> int:
        """``holds``'s bits, each formula's mask read through ``mask``."""
        bits, mask = self.full, self.mask
        for a in s.ant:
            bits &= mask(a)
        for a in s.suc:
            bits &= ~mask(a)
        return bits

    def valid(self, s: Sequent) -> bool:
        return self.counter_mask(s) == 0

    def countermodel(self, s: Sequent):
        """The first counter column's (structure, assignment), or None."""
        cm = self.counter_mask(s)
        return self.columns[(cm & -cm).bit_length() - 1] if cm else None


class PropSpace(FOSpace):
    """Bulk propositional work over a fixed tuple of at most eight atoms:
    the ``FOSpace`` of domain size 1 over the atoms as propositions,
    whose columns are ``valuations(atoms)``, one block of them.  Its
    ``modes`` map bd, lp, k3 and cl to the mask of the columns whose every
    atom takes a value the mode allows; a countermodel is a valuation."""

    # entries of its own, so that a tracer that rebinds a class's
    # methods (bench/layertrace.py) tells the two spaces apart
    vector, mask, holds = FOSpace.vector, FOSpace.mask, FOSpace.holds
    counter_mask, valid = FOSpace.counter_mask, FOSpace.valid

    def __init__(self, atoms: tuple):
        self.atoms = tuple(atoms)
        if 4 ** len(self.atoms) > _BLOCK_COLUMNS:
            raise SemanticsError("a PropSpace holds at most %d valuations"
                                 % _BLOCK_COLUMNS)
        super().__init__(Signature(predicates=tuple(
            (a, 0) for a in self.atoms)), (1,), need_eq=False)
        sweep, self.modes = self._sweeps[0], {}
        for mode, allowed in MODE_VALUES.items():
            out = sweep.full
            for j, values in enumerate(sweep.values):
                out &= sum(m for m, v in zip(sweep._masks(j, ()), values)
                           if v in allowed)
            self.modes[mode] = out

    def countermodel(self, s: Sequent) -> dict | None:
        column = super().countermodel(s)
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
