"""Truth functions over the four values, and what the base can define.

A connective is identified with its table, so definability questions
become questions about which tables live in the clone generated by the
base functions.  Non-definability is only ever certified through the
preservation criterion or an exhaustive clone closure; the bounded
formula synthesis in find_definition is a convenience and its failure
proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .semantics import truth_table
from .syntax import (
    And, ExtApp, Falsity, Formula, Imp, Not, Or, Prop, print_formula,
    prop_atoms,
)
from .values import (
    B, DESIGNATED, EXTRA_CONNECTIVES, F, N, T, TruthValue, VALUES,
    designated, imp, join, meet, neg,
)


class DefinabilityError(Exception):
    pass


class CloneCapExceeded(DefinabilityError):
    pass


@dataclass(frozen=True)
class TruthFunction:
    """An n-ary function on the four values as a flat table.

    The table is indexed big-endian in the fixed t, b, n, f value order:
    entry for (a1, ..., an) sits at a1*4^(n-1) + ... + an.  The name is
    cosmetic and ignored by equality, so tables deduplicate cleanly.
    """

    arity: int
    table: tuple
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.arity < 0 or len(self.table) != 4 ** self.arity:
            raise DefinabilityError(
                "table length %d does not fit arity %d"
                % (len(self.table), self.arity))

    def apply(self, *args) -> TruthValue:
        if len(args) != self.arity:
            raise DefinabilityError("arity mismatch")
        idx = 0
        for a in args:
            idx = idx * 4 + int(a)
        return self.table[idx]

    def packed(self) -> int:
        code = 0
        for v in self.table:
            code = code * 4 + int(v)
        return code

    @classmethod
    def from_callable(cls, arity: int, fn, name: str | None = None):
        table = tuple(fn(*args) for args in product(VALUES, repeat=arity))
        return cls(arity, table, name)


def projection(arity: int, i: int) -> TruthFunction:
    if not 0 <= i < arity:
        raise DefinabilityError("projection index out of range")
    return TruthFunction.from_callable(
        arity, lambda *args: args[i], "proj%d" % (i + 1))


FALSUM_FN = TruthFunction(0, (F,), "F")
NEG_FN = TruthFunction.from_callable(1, neg, "not")
CONJ_FN = TruthFunction.from_callable(2, meet, "and")
DISJ_FN = TruthFunction.from_callable(2, join, "or")
IMPL_FN = TruthFunction.from_callable(2, imp, "imp")

BD_BASE = (FALSUM_FN, NEG_FN, CONJ_FN, DISJ_FN, IMPL_FN)


def extra_function(name: str) -> TruthFunction:
    """The table of a named optional connective (Des, Norm, Confl, ...)."""
    try:
        arity, table = EXTRA_CONNECTIVES[name]
    except KeyError:
        raise DefinabilityError("unknown connective %r" % name) from None
    return TruthFunction(arity, table, name)


CONFLATION = extra_function("Confl")


def truth_function_of(a: Formula, order=None) -> TruthFunction:
    """The truth function a propositional formula induces.

    `order` fixes which proposition symbol feeds which argument slot;
    by default the symbols are taken in sorted order.  Symbols listed
    in `order` but absent from the formula are fine (vacuous slots).
    """
    names = prop_atoms(a)
    if order is None:
        order = tuple(sorted(names))
    else:
        order = tuple(order)
        missing = names - set(order)
        if missing:
            raise DefinabilityError(
                "formula mentions %s outside the argument order"
                % ", ".join(sorted(missing)))
    return TruthFunction(len(order), truth_table(a, order))


_PRESERVED = (frozenset({T, F, B}), frozenset({T, F, N}))


def is_definable_criterion(g: TruthFunction) -> bool:
    """Preservation test: g keeps both {t,f,b} and {t,f,n} closed."""
    for sub in _PRESERVED:
        for args in product(sorted(sub), repeat=g.arity):
            if g.apply(*args) not in sub:
                return False
    return True


# The work a closure may do, in table cells: 4^arity for each projection
# and for each argument combination it examines.  The unary closure of
# the base takes 33,372; at arity 2 the table cap alone would let the
# work grow with the square of up to 200,000 tables.
MAX_CELLS = 400_000


def clone_closure(base, arity: int, cap: int = 200_000) -> tuple:
    """All arity-`arity` functions composable from base and projections.

    Returns the closure sorted by packed table code.  Nullary base
    members enter as constant functions of the requested arity.  The
    cap bounds the closure size and raises CloneCapExceeded as soon as
    it would be passed, and so does work past ``MAX_CELLS`` table cells.
    Saturation runs on a frontier worklist: a composition is only
    recomputed when at least one argument is new, so each combination is
    examined once.
    """
    base = tuple(base)
    seen: dict[int, TruthFunction] = {}
    # the projections' cells; 4^16 alone passes the bound, so a larger
    # arity is not raised to its power
    work = arity * 4 ** min(arity, 16)

    def spend():
        if work > MAX_CELLS:
            raise CloneCapExceeded("clone closure at arity %d needs more "
                                   "than %d table cells of work"
                                   % (arity, MAX_CELLS))

    def register(table, name=None):
        code = 0
        for v in table:
            code = (code << 2) | int(v)
        if code in seen:
            return None
        if len(seen) >= cap:
            raise CloneCapExceeded("clone closure exceeded %d tables" % cap)
        seen[code] = TruthFunction(arity, tuple(table), name)
        return code

    spend()
    size = 4 ** arity
    for i in range(arity):
        register(projection(arity, i).table, "proj%d" % (i + 1))
    for g in base:
        if g.arity == 0:
            register(g.table * size, g.name)

    fresh = set(seen)
    while fresh:
        snapshot = tuple(seen.items())
        next_fresh = set()
        for g in base:
            if g.arity == 0:
                continue
            for combo in product(snapshot, repeat=g.arity):
                work += size
                spend()
                if not any(code in fresh for code, _ in combo):
                    continue
                tables = [tf.table for _, tf in combo]
                table = tuple(
                    g.apply(*(tab[i] for tab in tables)) for i in range(size))
                code = register(table)
                if code is not None:
                    next_fresh.add(code)
        fresh = next_fresh
    return tuple(sorted(seen.values(), key=TruthFunction.packed))


@dataclass(frozen=True)
class ConnectiveDef:
    """A defining formula for a connective, over symbols p1..pn."""

    name: str
    arity: int
    formula: Formula

    def __post_init__(self):
        allowed = {"p%d" % (i + 1) for i in range(self.arity)}
        stray = prop_atoms(self.formula) - allowed
        if stray:
            raise DefinabilityError(
                "definition of %s uses stray symbols %s"
                % (self.name, ", ".join(sorted(stray))))

    @property
    def argument_order(self):
        return tuple("p%d" % (i + 1) for i in range(self.arity))


def verify_definition(d: ConnectiveDef, target: TruthFunction) -> bool:
    if d.arity != target.arity:
        raise DefinabilityError(
            "definition arity %d vs target arity %d" % (d.arity, target.arity))
    return truth_function_of(d.formula, d.argument_order).table == target.table


_P1 = Prop("p1")

DEFINITIONS = {
    "Des": ConnectiveDef("Des", 1, Not(Imp(_P1, Falsity()))),
    "Cons": ConnectiveDef("Cons", 1, Imp(And(_P1, Not(_P1)), Falsity())),
    "Det": ConnectiveDef("Det", 1, Not(Imp(Or(_P1, Not(_P1)), Falsity()))),
    "Norm": ConnectiveDef(
        "Norm", 1,
        And(Imp(And(_P1, Not(_P1)), Falsity()),
            Not(Imp(Or(_P1, Not(_P1)), Falsity())))),
}


@dataclass(frozen=True)
class EquivalenceCheck:
    label: str
    lhs: Formula
    rhs: Formula
    order: tuple
    ok: bool


def check_expansion_equivalences() -> tuple:
    """Table-check every displayed synonymity of the expanded signature.

    Table equality is the right test here: equal tables give mutual
    consequence for the formulas and for their negations at once.
    """
    p1, p2 = Prop("p1"), Prop("p2")
    des = lambda a: ExtApp("Des", (a,))
    cons = lambda a: ExtApp("Cons", (a,))
    pairs = [
        ("impl from Des", Imp(p1, p2), Or(Not(des(p1)), p2), ("p1", "p2")),
        ("falsum from Des", Falsity(), And(des(p1), Not(des(p1))), ("p1",)),
        ("Cons from Des", cons(p1), Not(des(And(p1, Not(p1)))), ("p1",)),
        ("Det from Des", ExtApp("Det", (p1,)), des(Or(p1, Not(p1))), ("p1",)),
        ("Des from Cons and Det",
         des(p1), And(Or(p1, Not(cons(p1))), ExtApp("Det", (p1,))), ("p1",)),
        ("Norm from Cons and Det",
         ExtApp("Norm", (p1,)), And(cons(p1), ExtApp("Det", (p1,))), ("p1",)),
        ("falsum from Both and Neither",
         Falsity(), And(ExtApp("Both"), ExtApp("Neither")), ()),
    ]
    out = []
    for label, lhs, rhs, order in pairs:
        ok = (truth_function_of(lhs, order).table
              == truth_function_of(rhs, order).table)
        out.append(EquivalenceCheck(label, lhs, rhs, order, ok))
    return tuple(out)


_CONNECTIVE_BUILDERS = {
    "F": (0, lambda: Falsity()),
    "not": (1, Not),
    "and": (2, And),
    "or": (2, Or),
    "imp": (2, Imp),
}


def _builder(name):
    if name in _CONNECTIVE_BUILDERS:
        return _CONNECTIVE_BUILDERS[name]
    if name in EXTRA_CONNECTIVES:
        k = EXTRA_CONNECTIVES[name][0]
        if k == 0:
            return 0, lambda: ExtApp(name)
        return 1, lambda a: ExtApp(name, (a,))
    raise DefinabilityError("unknown connective %r" % (name,))


def find_definition(target: TruthFunction,
                    connectives=("F", "not", "and", "or", "imp"),
                    depth: int = 3) -> ConnectiveDef | None:
    """Bounded synthesis: smallest defining formula up to `depth` connectives.

    Within one size class candidates are tried in lexicographic order
    of their printed form, so the result is the least match by (size,
    text).  Returning None is inconclusive by design.
    """
    builders = [(name,) + _builder(name) for name in connectives]
    atoms = [Prop("p%d" % (i + 1)) for i in range(target.arity)]
    order = tuple("p%d" % (i + 1) for i in range(target.arity))
    levels = {0: list(atoms)}
    for size in range(0, depth + 1):
        if size > 0:
            made = []
            for name, k, build in builders:
                if k == 0 and size == 1:
                    made.append(build())
                elif k == 1:
                    made.extend(build(a) for a in levels.get(size - 1, ()))
                elif k == 2:
                    for left_size in range(0, size):
                        for a in levels.get(left_size, ()):
                            for b in levels.get(size - 1 - left_size, ()):
                                made.append(build(a, b))
            levels[size] = made
        for cand in sorted(levels[size], key=print_formula):
            if truth_function_of(cand, order).table == target.table:
                return ConnectiveDef(target.name or "target", target.arity, cand)
    return None


def simplicity_probe() -> tuple[bool, dict]:
    """Check that unary generated functions separate every value pair.

    For each pair of distinct values, find a unary function in the
    clone of the base whose outputs differ in designation.  Separating
    every pair is what makes synonymity collapse to equivalence.
    """
    unary = clone_closure(BD_BASE, 1)
    witnesses = {}
    ok = True
    for a in VALUES:
        for b in VALUES:
            if a >= b:
                continue
            sep = None
            for g in unary:
                if designated(g.apply(a)) != designated(g.apply(b)):
                    sep = g
                    break
            witnesses[(a, b)] = sep
            if sep is None:
                ok = False
    return ok, witnesses
