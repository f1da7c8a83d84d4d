"""Simulating the three classical-leaning extensions inside the base logic.

Each mode names a closed value set: lp keeps {t,f,b}, k3 keeps {t,f,n},
cl keeps {t,f}.  Restricted consequence over such a set coincides with
base consequence after adding guard premises over the atomic
subformulas: the lp guard forces an atom's excluded middle to be truly
designated, the k3 guard forces its contradiction to fail, and cl adds
both.  A formula keeps its atomic subformulas and an atom keeps weak
references to its guards, so a problem's translation mostly reuses
what earlier ones built.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .semantics import consequence_prop
from .syntax import And, Falsity, Imp, Not, Or, atomic_subformulas
from .values import ALL_VALUES, MODE_VALUES

EXTENSION_MODES = ("lp", "k3", "cl")


def _lp_guard(a):
    return Not(Imp(Or(a, Not(a)), Falsity()))


def _k3_guard(a):
    return Imp(And(a, Not(a)), Falsity())


def _guard(a, build):
    """``build(a)``, kept on the atom by a weak reference while it lives.
    A guard has the atom as a part, so a strong one would keep both
    alive for good (see ``syntax.kept``)."""
    name = build.__name__
    g = getattr(a, name, None)
    g = g and g()
    if g is None:
        g = build(a)
        object.__setattr__(a, name, weakref.ref(g))
    return g


def translation_sets(gamma, delta, mode: str) -> frozenset:
    """Guard premises over every atomic subformula of the problem."""
    if mode not in EXTENSION_MODES:
        raise ValueError("unknown extension mode %r" % (mode,))
    out = set()
    for a in atomic_subformulas(tuple(gamma) + tuple(delta)):
        if mode != "k3":
            out.add(_guard(a, _lp_guard))
        if mode != "lp":
            out.add(_guard(a, _k3_guard))
    return frozenset(out)


@dataclass(frozen=True)
class SimulationCheck:
    mode: str
    restricted: bool
    translated: bool
    witness: dict | None

    @property
    def ok(self) -> bool:
        return self.restricted == self.translated


def verify_simulation(gamma, delta, mode: str) -> SimulationCheck:
    """Compare restricted consequence against the translated base problem.

    The two verdicts must agree; when they do not, the witness refutes
    whichever side claimed consequence.
    """
    gamma = frozenset(gamma)
    delta = frozenset(delta)
    restricted, rwit = consequence_prop(gamma, delta, MODE_VALUES[mode])
    guards = translation_sets(gamma, delta, mode)
    translated, twit = consequence_prop(guards | gamma, delta, ALL_VALUES)
    witness = None
    if restricted != translated:
        witness = twit if restricted else rwit
    return SimulationCheck(mode, restricted, translated, witness)
