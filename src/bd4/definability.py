"""Truth functions over the four values, and what the base can define.

A connective is identified with its table, so definability questions
become questions about which tables live in the clone generated by the
base functions.  Non-definability is only ever certified through the
preservation criterion or an exhaustive clone closure; the bounded
formula synthesis in find_definition is a convenience and its failure
proves nothing.
"""

from __future__ import annotations

from itertools import product

from .semantics import truth_table
from .syntax import (
    And, ExtApp, Falsity, Formula, Imp, Not, Or, Prop, _record,
    print_formula, prop_atoms,
)
from .values import (
    B, EXTRA_CONNECTIVES, F, N, T, TruthValue, VALUES, imp, join, meet, neg,
)


class DefinabilityError(Exception):
    pass


class CloneCapExceeded(DefinabilityError):
    pass


@_record
class TruthFunction:
    """An n-ary function on the four values as a flat table.

    The table is indexed big-endian in the fixed t, b, n, f value order:
    entry for (a1, ..., an) sits at a1*4^(n-1) + ... + an.  The name is
    cosmetic and ignored by equality, so tables deduplicate cleanly.
    """

    arity: int
    table: tuple
    name: str | None = None

    def __post_init__(self):
        if self.arity < 0 or len(self.table) != 4 ** self.arity:
            raise DefinabilityError(
                "table length %d does not fit arity %d"
                % (len(self.table), self.arity))

    def __eq__(self, other):  # a table's length gives its arity
        return other.__class__ is TruthFunction and self.table == other.table

    def __hash__(self):
        return hash((self.arity, self.table))

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
    return all(g.apply(*args) in sub for sub in _PRESERVED
               for args in product(sorted(sub), repeat=g.arity))


# The work a closure may do, in table cells: 4^arity for each projection
# and for each argument combination it examines.  The unary closure of
# the base takes 33,372.  Each combination yields at most one new table,
# so the bound also caps the tables: 4 at arity 0, about 100,000 at
# arity 1 and at most 25,000 from arity 2 up.
MAX_CELLS = 400_000


def clone_closure(base, arity: int) -> tuple:
    """All arity-`arity` functions composable from base and projections.

    Returns the closure sorted by packed table code.  Nullary base
    members enter as constant functions of the requested arity.  Work
    past ``MAX_CELLS`` table cells raises CloneCapExceeded, which bounds
    the closure size too; the base's closure passes it from arity 2.
    Saturation runs on a frontier worklist: a composition is only
    recomputed when at least one argument is new, so each combination is
    examined once.
    """
    base = tuple(base)
    seen: dict[tuple, TruthFunction] = {}
    # the projections' cells; 4^16 alone passes the bound, so a larger
    # arity is not raised to its power
    work = arity * 4 ** min(arity, 16)

    def spend():
        if work > MAX_CELLS:
            raise CloneCapExceeded("clone closure at arity %d needs more "
                                   "than %d table cells of work"
                                   % (arity, MAX_CELLS))

    spend()
    size = 4 ** arity
    for g in [projection(arity, i) for i in range(arity)] + [
            TruthFunction(arity, g.table * size, g.name)
            for g in base if g.arity == 0]:
        seen.setdefault(g.table, g)

    fresh = set(seen)
    while fresh:
        snapshot = tuple(seen)
        next_fresh = set()
        for g in base:
            if g.arity == 0:
                continue
            for tables in product(snapshot, repeat=g.arity):
                work += size
                spend()
                if not any(table in fresh for table in tables):
                    continue
                table = tuple(
                    g.apply(*(tab[i] for tab in tables)) for i in range(size))
                if table not in seen:
                    seen[table] = TruthFunction(arity, table)
                    next_fresh.add(table)
        fresh = next_fresh
    return tuple(sorted(seen.values(), key=TruthFunction.packed))


@_record
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


@_record
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


def find_definition(target: TruthFunction,
                    depth: int = 3) -> ConnectiveDef | None:
    """Bounded synthesis: the smallest formula over the base F, ~, &, |
    and -> with up to `depth` connectives that defines `target`.

    Within one size class candidates are tried in lexicographic order
    of their printed form, so the result is the least match by (size,
    text).  Returning None is inconclusive by design.
    """
    atoms = [Prop("p%d" % (i + 1)) for i in range(target.arity)]
    order = tuple("p%d" % (i + 1) for i in range(target.arity))
    levels = {0: atoms}
    for size in range(0, depth + 1):
        if size > 0:
            made = [Falsity()] if size == 1 else []
            made.extend(Not(a) for a in levels[size - 1])
            for build in (And, Or, Imp):
                for left_size in range(0, size):
                    for a in levels[left_size]:
                        for b in levels[size - 1 - left_size]:
                            made.append(build(a, b))
            levels[size] = made
        for cand in sorted(levels[size], key=print_formula):
            if truth_function_of(cand, order).table == target.table:
                return ConnectiveDef(target.name or "target", target.arity, cand)
    return None
