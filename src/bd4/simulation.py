"""Simulating the three classical-leaning extensions inside the base logic.

Each mode names a closed value set: lp keeps {t,f,b}, k3 keeps {t,f,n},
cl keeps {t,f}.  Restricted consequence over such a set coincides with
base consequence after adding guard premises over the atomic
subformulas: the lp guard forces an atom's excluded middle to be truly
designated, the k3 guard forces its contradiction to fail, and cl adds
both.  A formula keeps its atomic subformulas and an atom keeps weak
references to its guards, so a problem's translation mostly reuses
what earlier ones built.  ``translation_sets`` reads the references
inline, with no helper per guard; they are weak, as a guard has the atom
as a part and a strong one would keep both alive (see ``syntax.kept``).
"""

from __future__ import annotations

import weakref

from .parser import _quote
from .semantics import consequence_prop
from .syntax import And, Falsity, Imp, Not, Or, _record, atomic_subformulas
from .values import ALL_VALUES, MODE_VALUES

EXTENSION_MODES = tuple(mode for mode in MODE_VALUES if mode != "bd")


def _lp_guard(a):
    return Not(Imp(Or(a, Not(a)), Falsity()))


def _k3_guard(a):
    return Imp(And(a, Not(a)), Falsity())


# each mode's guards; an atom keeps a guard under its builder's name
_GUARDS = {"lp": (_lp_guard,), "k3": (_k3_guard,), "cl": (_lp_guard, _k3_guard)}


def translation_sets(gamma, delta, mode: str) -> frozenset:
    """Guard premises over every atomic subformula of the problem."""
    if mode not in EXTENSION_MODES:
        raise ValueError("unknown extension mode %s" % _quote(str(mode)))
    out, builds = set(), _GUARDS[mode]
    for a in atomic_subformulas((*gamma, *delta)):
        for build in builds:
            name = build.__name__
            g = getattr(a, name, None)
            g = g and g()
            if g is None:
                g = build(a)
                object.__setattr__(a, name, weakref.ref(g))
            out.add(g)
    return frozenset(out)


@_record
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
    gamma, delta = frozenset(gamma), frozenset(delta)
    guards = translation_sets(gamma, delta, mode)  # checks the mode first
    restricted, rwit = consequence_prop(gamma, delta, MODE_VALUES[mode])
    translated, twit = consequence_prop(guards | gamma, delta, ALL_VALUES)
    witness = None
    if restricted != translated:
        witness = twit if restricted else rwit
    return SimulationCheck(mode, restricted, translated, witness)
