"""The four-valued matrix as a first-class object.

Everything here treats truth tables as data: regularity and classical
closure are decidable cell checks, the fifteen lattice laws are finite
schemas, and the uniqueness question ("which regular classically closed
matrices satisfy all fifteen?") is answered by a staged search, not
over the raw 4^16-sized table space: regularity, closure and the laws
that pin or tie single cells (1-8) build the lattice tables as products
of per-cell value sets, and laws 9-15 filter whole tables.

Binary tables are tuples of 16 values indexed by a1*4+a2; quantifier
tables are tuples of 15 values indexed over the nonempty subsets of the
value space by bitmask (bit i set means the value with index i is in
the subset).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .syntax import _record
from .values import (
    B, CL_VALUES, DESIGNATED, F, T, TruthValue, VALUES, designated, imp, inf,
    join, meet, neg, sup,
)

#: all nonempty subsets of the value space, ordered by bitmask
SUBSETS = tuple(frozenset(v for v in VALUES if mask >> v & 1)
                for mask in range(1, 16))


def subset_index(values) -> int:
    mask = functools.reduce(operator.or_, (1 << v for v in values), 0)
    if mask == 0:
        raise ValueError("quantifier tables have no entry for the empty set")
    return mask - 1


@_record
class Matrix4:
    neg: tuple
    conj: tuple
    disj: tuple
    impl: tuple
    forall_q: tuple
    exists_q: tuple
    falsum: TruthValue

    def neg_of(self, a):
        return self.neg[a]

    def conj_of(self, a1, a2):
        return self.conj[a1 * 4 + a2]

    def disj_of(self, a1, a2):
        return self.disj[a1 * 4 + a2]

    def impl_of(self, a1, a2):
        return self.impl[a1 * 4 + a2]

    def forall_of(self, values):
        return self.forall_q[subset_index(values)]

    def exists_of(self, values):
        return self.exists_q[subset_index(values)]

    @property
    def truth(self) -> TruthValue:
        return self.neg[self.falsum]


BD_MATRIX = Matrix4(
    neg=tuple(neg(a) for a in VALUES),
    conj=tuple(meet(a1, a2) for a1 in VALUES for a2 in VALUES),
    disj=tuple(join(a1, a2) for a1 in VALUES for a2 in VALUES),
    impl=tuple(imp(a1, a2) for a1 in VALUES for a2 in VALUES),
    forall_q=tuple(inf(s) for s in SUBSETS),
    exists_q=tuple(sup(s) for s in SUBSETS),
    falsum=F,
)


# ---------------------------------------------------------------------------
# regularity and classical closure

_BINARY_CONDITIONS = {
    "conj": lambda a1, a2: designated(a1) and designated(a2),
    "disj": lambda a1, a2: designated(a1) or designated(a2),
    "impl": lambda a1, a2: (not designated(a1)) or designated(a2),
}

# each table family and the Matrix4 field holding it
_TABLES = {"neg": "neg", "conj": "conj", "disj": "disj", "impl": "impl",
           "forall": "forall_q", "exists": "exists_q"}


def _cells(family: str) -> list:
    """Each cell of a table family as (index, whether regularity wants
    it designated, whether classical closure keeps it in {t, f})."""
    if family == "neg":
        return [(a, a in (F, B), a in CL_VALUES) for a in VALUES]
    if family in _BINARY_CONDITIONS:
        cond = _BINARY_CONDITIONS[family]
        return [(a1 * 4 + a2, cond(a1, a2),
                 a1 in CL_VALUES and a2 in CL_VALUES)
                for a1 in VALUES for a2 in VALUES]
    if family in ("forall", "exists"):
        return [(i, s <= DESIGNATED if family == "forall"
                 else bool(s & DESIGNATED), s <= CL_VALUES)
                for i, s in enumerate(SUBSETS)]
    raise ValueError("unknown table family: %r" % (family,))


def is_regular(m: Matrix4) -> bool:
    """Designation of every compound is fixed by designation of the parts.

    Negation designates exactly on {f, b}; conjunction needs both parts
    designated, disjunction one, implication follows the material
    condition, and the quantifiers mirror conjunction/disjunction over
    their value sets.  The falsity constant carries no condition here.
    """
    return all(designated(getattr(m, field)[i]) == want
               for family, field in _TABLES.items()
               for i, want, _ in _cells(family))


def is_classically_closed(m: Matrix4) -> bool:
    """All operations map classical material back into {t, f}."""
    return m.falsum in CL_VALUES and all(
        getattr(m, field)[i] in CL_VALUES
        for family, field in _TABLES.items()
        for i, _, classical in _cells(family) if classical)


# ---------------------------------------------------------------------------
# the fifteen laws as finite schemas

LAW_ARITY = {
    1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2, 9: 2, 10: 2,
    11: 1, 12: 2, 13: 2, 14: None, 15: None,
}

LAW_TEXT = {
    1: "A & F == F",
    2: "A | T == T",
    3: "A & T == A",
    4: "A | F == A",
    5: "A & A == A",
    6: "A | A == A",
    7: "A1 & A2 == A2 & A1",
    8: "A1 | A2 == A2 | A1",
    9: "~(A1 & A2) == ~A1 | ~A2",
    10: "~(A1 | A2) == ~A1 & ~A2",
    11: "~~A == A",
    12: "(A1 & (A1 -> F)) -> A2 == T",
    13: "(A1 | (A1 -> F)) -> A2 == A2",
    14: "forall x. (A1 & A2) == (forall x. A1) & A2   [x not free in A2]",
    15: "exists x. (A1 | A2) == (exists x. A1) | A2   [x not free in A2]",
}

ALL_LAWS = tuple(range(1, 16))


# (lhs, rhs) of each propositional law at one instance (a, b), read
# straight off the raw tables; the truth constant is nu[ff]
_SIDES = {
    1: lambda nu, ff, cj, dj, im, a, b: (cj[a * 4 + ff], ff),
    2: lambda nu, ff, cj, dj, im, a, b: (dj[a * 4 + nu[ff]], nu[ff]),
    3: lambda nu, ff, cj, dj, im, a, b: (cj[a * 4 + nu[ff]], a),
    4: lambda nu, ff, cj, dj, im, a, b: (dj[a * 4 + ff], a),
    5: lambda nu, ff, cj, dj, im, a, b: (cj[a * 5], a),
    6: lambda nu, ff, cj, dj, im, a, b: (dj[a * 5], a),
    7: lambda nu, ff, cj, dj, im, a, b: (cj[a * 4 + b], cj[b * 4 + a]),
    8: lambda nu, ff, cj, dj, im, a, b: (dj[a * 4 + b], dj[b * 4 + a]),
    9: lambda nu, ff, cj, dj, im, a, b: (nu[cj[a * 4 + b]],
                                         dj[nu[a] * 4 + nu[b]]),
    10: lambda nu, ff, cj, dj, im, a, b: (nu[dj[a * 4 + b]],
                                          cj[nu[a] * 4 + nu[b]]),
    11: lambda nu, ff, cj, dj, im, a, b: (nu[nu[a]], a),
    12: lambda nu, ff, cj, dj, im, a, b: (
        im[cj[a * 4 + im[a * 4 + ff]] * 4 + b], nu[ff]),
    13: lambda nu, ff, cj, dj, im, a, b: (
        im[dj[a * 4 + im[a * 4 + ff]] * 4 + b], b),
}

# the instances of a law by its arity, in check_law's order
_INSTANCES = {
    1: tuple((a, None) for a in VALUES),
    2: tuple(itertools.product(VALUES, repeat=2)),
}


@functools.lru_cache(maxsize=64)
def _image_cells(op: tuple) -> tuple:
    """Instances (V, a2) of laws 14 and 15 for a binary table, as index
    triples: V's index, a2, and the index of {op(v, a2) : v in V}."""
    return tuple((i, a2, subset_index(op[v * 4 + a2] for v in s))
                 for i, s in enumerate(SUBSETS) for a2 in VALUES)


def _law_witness(law, nu, ff, cj, dj, im, al, ex):
    """The first instance of a law the raw tables break, or None.

    Only the tables the law mentions are read, so the others may be
    None.  Law 14 reads conjunction and the universal table, law 15
    disjunction and the existential one.
    """
    if law in (14, 15):
        op, q = (cj, al) if law == 14 else (dj, ex)
        for i, a2, image in _image_cells(op):
            if q[image] is not op[q[i] * 4 + a2]:
                return {"V": SUBSETS[i], "A2": a2}
        return None
    sides = _SIDES[law]
    for a, b in _INSTANCES[LAW_ARITY[law]]:
        lhs, rhs = sides(nu, ff, cj, dj, im, a, b)
        if lhs is not rhs:
            return {"A": a} if b is None else {"A1": a, "A2": b}
    return None


def check_law(m: Matrix4, law: int):
    """Does the matrix satisfy one law schema?

    Propositional laws range metavariables over the value space; the
    quantified laws (14, 15) range over every nonempty value set V for
    the quantified part and every value for the part the bound variable
    does not occur in, which covers all instances over all structures.
    Returns (True, None) or (False, witness).
    """
    witness = _law_witness(law, m.neg, m.falsum, m.conj, m.disj, m.impl,
                           m.forall_q, m.exists_q)
    return witness is None, witness


def check_all_laws(m: Matrix4):
    return {law: check_law(m, law) for law in ALL_LAWS}


# ---------------------------------------------------------------------------
# candidate enumeration

_FAMILIES = ("neg", "conj", "disj", "impl", "forall", "exists", "falsum")


def _cell_sets(family: str, laws=(), nu=None, ff=None) -> tuple:
    """A family's regular classically closed tables as a value set per
    cell, narrowed by ``laws``, and the ties {cell: earlier cell it equals}.

    Given negation ``nu`` and falsity ``ff``, laws 1-6 pin cells and 7
    and 8 tie each cell to its transpose; no other law may be given.  A
    side read off identity tables is a cell, or a value if it reads none.
    """
    sets = [tuple(v for v in VALUES if designated(v) == want
                  and (v in CL_VALUES or not classical))
            for _, want, classical in _cells(family)]
    cells, ties = range(len(sets)), {}
    for law in laws:
        for a, b in _INSTANCES[LAW_ARITY[law]]:
            i, j = _SIDES[law](nu, ff, cells, cells, None, a, b)
            if isinstance(j, TruthValue):
                sets[i] = tuple(v for v in sets[i] if v is j)
            elif i != j:
                ties[max(i, j)] = min(i, j)
    for j, i in ties.items():
        sets[i] = sets[j] = tuple(v for v in sets[i] if v in sets[j])
    return sets, ties


def _tables(sets, ties):
    """Every table of the cell sets, tied cells copied, in the order of
    the product over the cells (the order filtering that product keeps)."""
    free = [i for i in range(len(sets)) if i not in ties]
    where = [free.index(ties.get(i, i)) for i in range(len(sets))]
    return map(operator.itemgetter(*where),
               itertools.product(*(sets[i] for i in free)))


def enumerate_candidates(family: str):
    """All tables for one operation that are regular and classically closed.

    The falsity constant has no regularity condition, so its pool is
    just the classical closure requirement.
    """
    if family == "falsum":
        return [T, F]
    return list(_tables(*_cell_sets(family)))


def candidate_counts() -> dict:
    return {family: len(enumerate_candidates(family)) if family == "falsum"
            else math.prod(map(len, _cell_sets(family)[0]))
            for family in _FAMILIES}


# ---------------------------------------------------------------------------
# staged uniqueness search

# the places of a context, in the order _law_witness takes the tables
_CONTEXT = ("neg", "falsum", "conj", "disj", "impl", "forall", "exists")

# the laws checked on whole tables of one family, and the other places
# of the context that each reads
_READS = {11: (), 12: (0, 1, 2), 13: (1, 3), 14: (2,), 15: (3,)}


@functools.lru_cache(maxsize=32)
def _law_pool(family: str, law: int, context: tuple) -> tuple:
    """The family's candidate tables that satisfy one law when put in
    their place in the context, which holds only what the law reads."""
    slot = _CONTEXT.index(family)
    before, after = context[:slot], context[slot + 1:]
    return tuple(x for x in enumerate_candidates(family)
                 if _law_witness(law, *before, x, *after) is None)


def _pool(family: str, laws, context: tuple) -> list:
    """The family's candidate tables that satisfy every law in ``laws``
    in the context, in candidate order."""
    pools = [_law_pool(family, law, tuple(c if i in _READS[law] else None
                                          for i, c in enumerate(context)))
             for law in laws] or [enumerate_candidates(family)]
    keep = frozenset(pools[0]).intersection(*pools[1:])
    return [x for x in pools[0] if x in keep]


@_record
class UniquenessReport:
    dropped: frozenset
    candidate_counts: dict
    stages: list
    survivor_count: int
    survivors: list | None

    def survivors_modulo_impl(self):
        """Distinct survivors after erasing the implication table."""
        return None if self.survivors is None else {
            (s.neg, s.conj, s.disj, s.forall_q, s.exists_q, s.falsum)
            for s in self.survivors}


# survivors are listed only up to this many; past it, only counted
SURVIVOR_CAP = 1000


def uniqueness_search(dropped=()) -> UniquenessReport:
    """Every regular classically closed matrix satisfying the active laws.

    ``dropped`` removes laws, numbers 1-15, from the requirement; any
    other value is a ValueError.  The laws
    are staged by the tables they mention.  Law 11 filters negation.
    Per (negation, falsity) context, laws 1-8 act per cell, so the
    conjunction and disjunction pools are products of cell value sets;
    laws 9 and 10 filter their pairs.  Per pair, laws 12 and 13 filter
    implication and 14 and 15 the quantifiers, with verdicts shared by
    every search, and the pools multiply out.  With every law the count
    is 81: all tables but implication are pinned, and it keeps 81.
    Survivors are materialized only when the count is at most
    ``SURVIVOR_CAP``.
    """
    if unknown := [law for law in dropped if law not in ALL_LAWS]:
        raise ValueError("no law to drop: %s" % ", ".join(map(repr, unknown)))
    active = frozenset(ALL_LAWS) - frozenset(dropped)

    def laws(*ids):
        return tuple(law for law in ids if law in active)

    negs = _pool("neg", laws(11), (None,) * 7)
    stages = [("negation tables after law 11", len(negs))]

    late = (("impl", (12, 13)), ("forall", (14,)), ("exists", (15,)))
    total, contexts = 0, []
    for nu in negs:
        for ff in enumerate_candidates("falsum"):
            conj_pool, disj_pool = (
                list(_tables(*_cell_sets(family, laws(*ids), nu, ff)))
                for family, ids in (("conj", (1, 3, 5, 7)),
                                    ("disj", (2, 4, 6, 8))))
            pairs = [(cj, dj) for cj in conj_pool for dj in disj_pool
                     if all(_law_witness(law, nu, ff, cj, dj, None, None,
                                         None) is None for law in laws(9, 10))]
            stages.append((
                "context neg=%s falsum=%s: conj %d, disj %d, joint pairs %d"
                % (tuple(v.letter for v in nu), ff.letter, len(conj_pool),
                   len(disj_pool), len(pairs)), len(pairs)))
            for cj, dj in pairs:
                context = (nu, ff, cj, dj, None, None, None)
                pools = [_pool(family, laws(*ids), context)
                         for family, ids in late]
                total += math.prod(map(len, pools))
                contexts.append((nu, ff, cj, dj, pools))

    survivors = None if total > SURVIVOR_CAP else [
        Matrix4(neg=nu, conj=cj, disj=dj, impl=im, forall_q=al, exists_q=ex,
                falsum=ff)
        for nu, ff, cj, dj, pools in contexts
        for im, al, ex in itertools.product(*pools)]
    return UniquenessReport(
        dropped=frozenset(dropped), candidate_counts=candidate_counts(),
        stages=stages, survivor_count=total, survivors=survivors)


# ---------------------------------------------------------------------------
# classical laws that the four-valued matrix rejects

CLASSICAL_LAWS = (
    ("negation as implication to falsity", "~A == A -> F",
     lambda m, a: (m.neg[a], m.impl_of(a, m.falsum))),
    ("contradiction collapses to falsity", "A & ~A == F",
     lambda m, a: (m.conj_of(a, m.neg[a]), m.falsum)),
    ("excluded middle collapses to truth", "A | ~A == T",
     lambda m, a: (m.disj_of(a, m.neg[a]), m.truth)),
    ("falsity implies everything", "F -> A == T",
     lambda m, a: (m.impl_of(m.falsum, a), m.truth)),
    ("true antecedent drops", "T -> A == A",
     lambda m, a: (m.impl_of(m.truth, a), a)),
)


def check_classical_laws(m: Matrix4 = BD_MATRIX):
    """Status of five classical equivalences on the matrix.

    Returns a list of (name, text, holds, witness) tuples; the witness
    is the metavariable value separating the sides when the law fails.
    """
    out = []
    for name, text, sides in CLASSICAL_LAWS:
        holds, witness = True, None
        for a in VALUES:
            lhs, rhs = sides(m, a)
            if lhs is not rhs:
                holds, witness = False, {"A": a}
                break
        out.append((name, text, holds, witness))
    return out
