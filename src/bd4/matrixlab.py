"""The four-valued matrix as a first-class object.

Everything here treats truth tables as data: regularity and classical
closure are decidable cell checks, the fifteen lattice laws are finite
schemas, and the uniqueness question ("which regular classically closed
matrices satisfy all fifteen?") is answered by staged enumeration over
the candidate pools rather than the raw 4^16-sized table space.

Binary tables are tuples of 16 values indexed by a1*4+a2; quantifier
tables are tuples of 15 values indexed over the nonempty subsets of the
value space by bitmask (bit i set means the value with index i is in
the subset).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .semantics import counter_bits, onehot, scan_valuations
from .syntax import And, Falsity, Imp, Not, Or
from .values import (
    B, CL_VALUES, DESIGNATED, F, NON_DESIGNATED, T, TruthValue, VALUES,
    designated, imp, inf, join, meet, neg, sup,
)

#: all nonempty subsets of the value space, ordered by bitmask
SUBSETS = tuple(
    frozenset(v for v in VALUES if mask >> int(v) & 1)
    for mask in range(1, 16)
)


def subset_index(values) -> int:
    mask = 0
    for v in values:
        mask |= 1 << int(v)
    if mask == 0:
        raise ValueError("quantifier tables have no entry for the empty set")
    return mask - 1


@dataclass(frozen=True)
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

    def packed(self) -> dict:
        """Base-4 integer encodings of the finite tables."""
        pack = lambda cells: sum(int(v) * 4 ** i for i, v in enumerate(cells))
        return {
            "neg": pack(self.neg), "conj": pack(self.conj),
            "disj": pack(self.disj), "impl": pack(self.impl),
            "forall": pack(self.forall_q), "exists": pack(self.exists_q),
            "falsum": int(self.falsum),
        }


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
    return tuple(
        (i, a2, subset_index(op[v * 4 + a2] for v in s))
        for i, s in enumerate(SUBSETS) for a2 in VALUES
    )


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


def check_all_laws(m: Matrix4, laws=ALL_LAWS):
    return {law: check_law(m, law) for law in laws}


# ---------------------------------------------------------------------------
# candidate enumeration

_FAMILIES = ("neg", "conj", "disj", "impl", "forall", "exists", "falsum")


def _cell_pool(want_designated: bool, classical: bool):
    pool = DESIGNATED if want_designated else NON_DESIGNATED
    if classical:
        pool = pool & CL_VALUES
    return tuple(v for v in VALUES if v in pool)


def enumerate_candidates(family: str):
    """All tables for one operation that are regular and classically closed.

    The falsity constant has no regularity condition, so its pool is
    just the classical closure requirement.
    """
    if family == "falsum":
        return [T, F]
    cells = [_cell_pool(want, classical)
             for _, want, classical in _cells(family)]
    return [tuple(c) for c in itertools.product(*cells)]


def candidate_counts() -> dict:
    return {family: len(enumerate_candidates(family)) for family in _FAMILIES}


# ---------------------------------------------------------------------------
# staged uniqueness search


# the places of a context, in the order _law_witness takes the tables
_CONTEXT = ("neg", "falsum", "conj", "disj", "impl", "forall", "exists")


def _passing(pools, family: str, laws, context: tuple) -> list:
    """The family's candidate tables that satisfy every law when put in
    their place in the context."""
    slot = _CONTEXT.index(family)
    before, after = context[:slot], context[slot + 1:]
    return [x for x in pools[family]
            if all(_law_witness(law, *before, x, *after) is None
                   for law in laws)]


@dataclass
class UniquenessReport:
    dropped: frozenset
    candidate_counts: dict
    stages: list
    survivor_count: int
    survivors: list | None

    def survivors_modulo_impl(self):
        """Distinct survivors after erasing the implication table."""
        if self.survivors is None:
            return None
        return {
            (s.neg, s.conj, s.disj, s.forall_q, s.exists_q, s.falsum)
            for s in self.survivors
        }


def uniqueness_search(dropped=(), cap: int = 1000) -> UniquenessReport:
    """Every regular classically closed matrix satisfying the active laws.

    ``dropped`` removes law identifiers from the requirement.  The
    search stages the laws by which tables they mention: negation and
    falsity first (laws that involve T go through both), then the
    lattice connectives, then implication and the quantifiers, whose
    pools multiply out per surviving context.  With the full law set
    the count comes out at 81: the fifteen laws pin every table except
    implication, whose pool retains 81 tables.

    Survivors are materialized only when the count fits under ``cap``.
    """
    active = frozenset(ALL_LAWS) - frozenset(dropped)
    pools = {family: enumerate_candidates(family) for family in _FAMILIES}
    counts = {family: len(pool) for family, pool in pools.items()}

    def laws(*ids):
        return tuple(law for law in ids if law in active)

    stages = []
    negs = _passing(pools, "neg", laws(11), (None,) * 7)
    stages.append(("negation tables after law 11", len(negs)))

    # law 14 reads only conjunction, law 15 only disjunction
    forall_cache: dict = {}
    exists_cache: dict = {}
    total = 0
    contexts = []
    for nu in negs:
        for ff in pools["falsum"]:
            context = (nu, ff) + (None,) * 5
            conj_pool = _passing(pools, "conj", laws(1, 3, 5, 7), context)
            disj_pool = _passing(pools, "disj", laws(2, 4, 6, 8), context)
            pairs = [
                (cj, dj) for cj in conj_pool for dj in disj_pool
                if all(_law_witness(law, nu, ff, cj, dj, None, None, None)
                       is None for law in laws(9, 10))
            ]
            stages.append((
                "context neg=%s falsum=%s: conj %d, disj %d, joint pairs %d"
                % (tuple(v.letter for v in nu), ff.letter, len(conj_pool),
                   len(disj_pool), len(pairs)),
                len(pairs),
            ))
            for cj, dj in pairs:
                context = (nu, ff, cj, dj, None, None, None)
                impl_pool = _passing(pools, "impl", laws(12, 13), context)
                if cj not in forall_cache:
                    forall_cache[cj] = _passing(pools, "forall", laws(14),
                                                context)
                if dj not in exists_cache:
                    exists_cache[dj] = _passing(pools, "exists", laws(15),
                                                context)
                forall_pool, exists_pool = forall_cache[cj], exists_cache[dj]
                n = len(impl_pool) * len(forall_pool) * len(exists_pool)
                total += n
                if n:
                    contexts.append((nu, ff, cj, dj, impl_pool, forall_pool,
                                     exists_pool))

    survivors = None
    if total <= cap:
        survivors = [
            Matrix4(neg=nu, conj=cj, disj=dj, impl=im, forall_q=al,
                    exists_q=ex, falsum=ff)
            for nu, ff, cj, dj, *pools in contexts
            for im, al, ex in itertools.product(*pools)
        ]
    return UniquenessReport(
        dropped=frozenset(dropped), candidate_counts=counts, stages=stages,
        survivor_count=total, survivors=survivors,
    )


# ---------------------------------------------------------------------------
# consequence inside an arbitrary candidate matrix


def _values_in(m: Matrix4, code, env: dict, full: int) -> list:
    """One-hot value masks (t, b, n, f order) of each compiled formula
    over one block of valuations, computed with the matrix's tables."""
    stack = []
    for op in code:
        if op.__class__ is str:
            stack.append(onehot(*env[op], full))
        elif op is Falsity:
            stack.append(tuple(full if v is m.falsum else 0 for v in VALUES))
        elif op is Not:
            a, out = stack.pop(), [0, 0, 0, 0]
            for v, w in zip(VALUES, m.neg):
                out[w] |= a[v]
            stack.append(out)
        elif op is And or op is Or or op is Imp:
            a, b, out = stack.pop(), stack.pop(), [0, 0, 0, 0]
            table = m.conj if op is And else m.disj if op is Or else m.impl
            for i, w in enumerate(table):
                out[w] |= a[i >> 2] & b[i & 3]
            stack.append(out)
        else:
            raise ValueError("unsupported formula for table evaluation: %s"
                             % (op,))
    return stack


def consequence_in(m: Matrix4, gamma, delta):
    """Propositional consequence computed with the matrix's tables.

    Used to exhibit behavioral differences between law-satisfying
    matrices.  Returns (True, None) or (False, the first
    countervaluation in ``valuations`` order).
    """
    gamma, delta = list(gamma), list(delta)
    n = len(gamma)

    def counter(code, env, full):
        ts = [v[T] | v[B] for v in _values_in(m, code, env, full)]
        return counter_bits(ts[:n], ts[n:])

    witness = scan_valuations(gamma + delta, counter)
    return witness is None, witness


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
