"""The four truth values and their lattice.

The value set is {t, b, n, f} with the order f < b < t, f < n < t and
b, n incomparable.  Designated values are t and b.  Everything else in
the package indexes tables in the fixed order t, b, n, f, which is also
the order used when tables are printed.
"""

from __future__ import annotations

from enum import IntEnum


class TruthValue(IntEnum):
    T = 0
    B = 1
    N = 2
    F = 3

    @property
    def letter(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name


T = TruthValue.T
B = TruthValue.B
N = TruthValue.N
F = TruthValue.F

VALUES = (T, B, N, F)
DESIGNATED = frozenset({T, B})
NON_DESIGNATED = frozenset({F, N})

# The three closed restrictions used for the LP-, K3- and CL-style modes.
LP_VALUES = frozenset({T, B, F})
K3_VALUES = frozenset({T, N, F})
CL_VALUES = frozenset({T, F})
ALL_VALUES = frozenset(VALUES)

# The value set of each mode by name: bd, the base logic, and the three
# restrictions.
MODE_VALUES = {"bd": ALL_VALUES, "lp": LP_VALUES, "k3": K3_VALUES,
               "cl": CL_VALUES}


def designated(v: TruthValue) -> bool:
    return v is T or v is B


# leq[(a, b)] holds iff a <= b in the lattice order.
_LEQ = frozenset(
    {(F, F), (F, B), (F, N), (F, T), (B, B), (B, T), (N, N), (N, T), (T, T)}
)


def leq(a: TruthValue, b: TruthValue) -> bool:
    return (a, b) in _LEQ


def meet(a: TruthValue, b: TruthValue) -> TruthValue:
    """Greatest lower bound; meet(b, n) is f."""
    if leq(a, b):
        return a
    if leq(b, a):
        return b
    return F


def join(a: TruthValue, b: TruthValue) -> TruthValue:
    """Least upper bound; join(b, n) is t."""
    if leq(a, b):
        return b
    if leq(b, a):
        return a
    return T


def inf(vals) -> TruthValue:
    """Infimum of a nonempty collection of values."""
    it = iter(vals)
    try:
        out = next(it)
    except StopIteration:
        raise ValueError("inf of empty value set is undefined") from None
    for v in it:
        out = meet(out, v)
    return out


def sup(vals) -> TruthValue:
    """Supremum of a nonempty collection of values."""
    it = iter(vals)
    try:
        out = next(it)
    except StopIteration:
        raise ValueError("sup of empty value set is undefined") from None
    for v in it:
        out = join(out, v)
    return out


def neg(a: TruthValue) -> TruthValue:
    """Negation: swaps t and f, fixes b and n."""
    if a is T:
        return F
    if a is F:
        return T
    return a


def imp(a: TruthValue, b: TruthValue) -> TruthValue:
    """Implication: t when the antecedent is not designated, else the consequent."""
    return b if designated(a) else T


# Truth tables of the optional extra connectives, keyed by surface name.
# Each entry is (arity, table): a unary table holds the value for each
# argument in t, b, n, f order, a nullary one is the 1-tuple of its value.
def _gate(truth_on: frozenset) -> tuple:
    return tuple(T if v in truth_on else F for v in VALUES)


EXTRA_CONNECTIVES: dict[str, tuple[int, tuple]] = {
    "Des": (1, _gate(DESIGNATED)),
    "Norm": (1, _gate(frozenset({T, F}))),
    "Cons": (1, _gate(frozenset({T, F, N}))),
    "Det": (1, _gate(frozenset({T, F, B}))),
    "Confl": (1, (T, N, B, F)),
    "Both": (0, (B,)),
    "Neither": (0, (N,)),
}
