"""Terms, formulas, signatures, free variables, substitution, printing.

Terms and formulas are immutable, hash-consed trees (Conchon and
Filliatre 2006, "Type-safe modular hash-consing"): building a node looks
up its class and field values, defaults filled in, in one module table,
so two equal trees are always the same object, however they were built.
Equality and hashing are therefore object identity, O(1) and never a
walk of the tree.  The table holds weak references, so a node lives
only as long as something else refers to it.  Copying or pickling a
node builds it again through the table and so gives back the same
object.

The concrete syntax written by ``print_term``/``print_formula`` is the
canonical one: it contains no sugar (t1 != t2 and T are accepted by the
parser but printed as ~(t1 = t2) and ~F), and parsing the printed form
gives back the same tree.  The canonical total order on formulas is the
lexicographic order of the printed form, which is what sequent sides are
sorted by.

Since a node never changes, a value derived from it alone can be
computed on first use and kept on the node, as the printed form is:
``kept`` keeps a formula's atomic subformulas here, its compiled code
in ``semantics``, and in ``kernel`` what the premises of a rule add
when the formula is the rule's principal.  A kept value lives and dies
with its node, so no table keyed by formulas holds a node alive.
"""

from __future__ import annotations

import inspect
import re
import weakref
from dataclasses import MISSING, dataclass, fields

from .values import EXTRA_CONNECTIVES


class SyntaxBuildError(Exception):
    """Raised for mis-built terms or formulas (arity or symbol problems)."""


# ---------------------------------------------------------------------------
# signatures

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")

_RESERVED = {"F", "T", "forall", "exists"} | set(EXTRA_CONNECTIVES)


@dataclass(frozen=True)
class Signature:
    """Non-logical symbols: functions and predicates by arity.

    Constants are functions of arity 0 and proposition symbols are
    predicates of arity 0.  Equality is built in and not listed.
    ``extras`` enables the optional extra connectives by name.
    """

    functions: tuple[tuple[str, int], ...] = ()
    predicates: tuple[tuple[str, int], ...] = ()
    extras: frozenset = frozenset()

    def __post_init__(self):
        seen = {}
        for name, arity in list(self.functions) + list(self.predicates):
            if not _IDENT.match(name) or name in _RESERVED:
                raise SyntaxBuildError("bad symbol name: %r" % (name,))
            if arity < 0:
                raise SyntaxBuildError("negative arity for %s" % name)
            if name in seen:
                raise SyntaxBuildError("symbol declared twice: %s" % name)
            seen[name] = arity
        if name_clash := (set(self.extras) - set(EXTRA_CONNECTIVES)):
            raise SyntaxBuildError("unknown extra connective: %s" % sorted(name_clash))

    def function_arity(self, name: str):
        for n, a in self.functions:
            if n == name:
                return a
        return None

    def predicate_arity(self, name: str):
        for n, a in self.predicates:
            if n == name:
                return a
        return None

    @property
    def constants(self) -> tuple[str, ...]:
        return tuple(n for n, a in self.functions if a == 0)

    @property
    def propositions(self) -> tuple[str, ...]:
        return tuple(n for n, a in self.predicates if a == 0)


def prop_signature(*names: str, extras=()) -> Signature:
    """Signature with only proposition symbols, the common test case."""
    return Signature(
        predicates=tuple((n, 0) for n in names), extras=frozenset(extras)
    )


# ---------------------------------------------------------------------------
# hash-consing

# (class, *field values) -> weak reference to the one node with them
_NODES: dict = {}


class _Entry(weakref.ref):
    """A table entry: a weak reference that knows its key (as
    ``weakref.KeyedRef``, without its constructor written in Python)."""

    __slots__ = ("key",)


def _forget(ref: _Entry) -> None:
    """Drop a dead node's entry, unless a new node has taken its key."""
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


_ABSENT = object()


def kept(node, name: str, compute):
    """``compute(node)``, computed on the first call and kept on the node
    as its attribute ``name`` (which no field may use).

    The value may refer to the node's parts and to other nodes built
    over them, but never to the node itself: such a value is a cycle,
    which only ``gc.collect()`` frees, and during that collection the
    table's key of a parent still holds the node, so nested garbage of
    such nodes goes one nesting level per collection.  Nor may the
    value refer to a node that has this one as a part: that node's
    table key holds this one, so the two would keep each other alive
    for good.  Attributes are read and set, never the node's
    ``__dict__``: once that is asked for, CPython 3.11 reads every
    attribute of the node more slowly."""
    value = getattr(node, name, _ABSENT)
    if value is _ABSENT:
        value = compute(node)
        object.__setattr__(node, name, value)
    return value


def _node(cls):
    """Make ``cls`` a frozen dataclass whose instances are hash-consed:
    identity equality and hashing, one node per distinct field values,
    the printed form computed once."""
    cls = dataclass(frozen=True, eq=False)(cls)
    init, text = cls.__init__, cls.__str__
    names = tuple(f.name for f in fields(cls))
    defaults = tuple(f.default for f in fields(cls)
                     if f.default is not MISSING)
    signature = inspect.signature(init)

    def __new__(c, *args, **kwargs):
        if kwargs or len(args) != len(names):
            if not kwargs and len(names) - len(defaults) <= len(args):
                args += defaults[len(args) - len(names):]
            else:
                bound = signature.bind(None, *args, **kwargs)
                bound.apply_defaults()
                args = tuple(bound.arguments.values())[1:]
        key = (c, *args)
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(c)
        init(node, *args)  # ExtApp checks itself here
        ref = _NODES[key] = _Entry(node, _forget)
        ref.key = key
        return node

    def __str__(self) -> str:
        if self._text is None:
            object.__setattr__(self, "_text", text(self))
        return self._text

    def __reduce__(self):
        return cls, tuple(getattr(self, n) for n in names)

    del cls.__init__  # object's, a no-op: __new__ built the node
    cls.__new__, cls.__str__, cls.__reduce__ = __new__, __str__, __reduce__
    cls._text = None  # the printed form, once computed
    return cls


# ---------------------------------------------------------------------------
# terms


@_node
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@_node
class Fun:
    """Function application; constants are Fun(name, ())."""

    name: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return "%s(%s)" % (self.name, ", ".join(str(a) for a in self.args))


Term = Var | Fun


# ---------------------------------------------------------------------------
# formulas


@_node
class Falsity:
    def __str__(self) -> str:
        return "F"


@_node
class Prop:
    name: str

    def __str__(self) -> str:
        return self.name


@_node
class Pred:
    name: str
    args: tuple

    def __str__(self) -> str:
        return "%s(%s)" % (self.name, ", ".join(str(a) for a in self.args))


@_node
class Eq:
    left: Term
    right: Term

    def __str__(self) -> str:
        return "%s = %s" % (self.left, self.right)


@_node
class Not:
    body: "Formula"

    def __str__(self) -> str:
        return "~" + _wrap(self.body, 4)


@_node
class And:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return "%s & %s" % (_wrap(self.left, 3), _wrap(self.right, 4))


@_node
class Or:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return "%s | %s" % (_wrap(self.left, 2), _wrap(self.right, 3))


@_node
class Imp:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        # right-associative: the right child keeps the same level
        return "%s -> %s" % (_wrap(self.left, 2), _wrap(self.right, 1))


@_node
class Forall:
    var: str
    body: "Formula"

    def __str__(self) -> str:
        return "forall %s. %s" % (self.var, self.body)


@_node
class Exists:
    var: str
    body: "Formula"

    def __str__(self) -> str:
        return "exists %s. %s" % (self.var, self.body)


@_node
class ExtApp:
    """Application of an optional extra connective (Des p, Both, ...)."""

    conn: str
    args: tuple = ()

    def __post_init__(self):
        if self.conn not in EXTRA_CONNECTIVES:
            raise SyntaxBuildError("unknown extra connective: %r" % (self.conn,))
        if len(self.args) != EXTRA_CONNECTIVES[self.conn][0]:
            raise SyntaxBuildError("wrong arity for %s" % self.conn)

    def __str__(self) -> str:
        if not self.args:
            return self.conn
        return "%s %s" % (self.conn, _wrap(self.args[0], 4))


Formula = (
    Falsity | Prop | Pred | Eq | Not | And | Or | Imp | Forall | Exists | ExtApp
)

# Precedence levels for printing: 1 ->, 2 |, 3 &, 4 unary, 5 atoms.
# A child is parenthesized when its level is below the level its slot
# requires.  Quantifiers always parenthesize when used as an operand.
_LEVEL = {
    Imp: 1,
    Or: 2,
    And: 3,
    Not: 4,
    ExtApp: 4,
    Falsity: 5,
    Prop: 5,
    Pred: 5,
    Eq: 5,
    Forall: 0,
    Exists: 0,
}


def _wrap(a: "Formula", need: int) -> str:
    lvl = _LEVEL[type(a)]
    if isinstance(a, ExtApp) and not a.args:
        lvl = 5
    s = str(a)
    return "(" + s + ")" if lvl < need else s


def print_formula(a: Formula) -> str:
    return str(a)


def print_term(t: Term) -> str:
    return str(t)


def formula_key(a: Formula):
    """Sort key of the canonical total order on formulas."""
    return str(a)


# ---------------------------------------------------------------------------
# free variables and substitution


def free_vars(e) -> frozenset:
    match e:
        case Var(name):
            return frozenset({name})
        case Fun(_, args) | Pred(_, args) | ExtApp(_, args):
            out = frozenset()
            for a in args:
                out |= free_vars(a)
            return out
        case Eq(l, r):
            return free_vars(l) | free_vars(r)
        case Falsity() | Prop(_):
            return frozenset()
        case Not(b):
            return free_vars(b)
        case And(l, r) | Or(l, r) | Imp(l, r):
            return free_vars(l) | free_vars(r)
        case Forall(x, b) | Exists(x, b):
            return free_vars(b) - {x}
    raise TypeError("not a term or formula: %r" % (e,))


_STEM = re.compile(r"([A-Za-z_][A-Za-z_0-9]*?)(\d*)\Z")


def fresh_var(stem: str, avoid) -> str:
    """Least fresh variable: strip any digit suffix from the stem, then
    try stem1, stem2, ... and return the first name not in ``avoid``."""
    base = _STEM.match(stem).group(1)
    k = 1
    while True:
        cand = "%s%d" % (base, k)
        if cand not in avoid:
            return cand
        k += 1


def substitute_term(t: Term, x: str, s: Term) -> Term:
    match t:
        case Var(name):
            return s if name == x else t
        case Fun(name, args):
            return Fun(name, tuple(substitute_term(a, x, s) for a in args))
    raise TypeError("not a term: %r" % (t,))


def substitute(a: Formula, x: str, t: Term) -> Formula:
    """Replace free occurrences of x in a by t, renaming bound variables
    when a free variable of t would be captured."""
    match a:
        case Falsity() | Prop(_):
            return a
        case Pred(name, args):
            return Pred(name, tuple(substitute_term(u, x, t) for u in args))
        case Eq(l, r):
            return Eq(substitute_term(l, x, t), substitute_term(r, x, t))
        case ExtApp(conn, args):
            return ExtApp(conn, tuple(substitute(u, x, t) for u in args))
        case Not(b):
            return Not(substitute(b, x, t))
        case And(l, r):
            return And(substitute(l, x, t), substitute(r, x, t))
        case Or(l, r):
            return Or(substitute(l, x, t), substitute(r, x, t))
        case Imp(l, r):
            return Imp(substitute(l, x, t), substitute(r, x, t))
        case Forall(y, b) | Exists(y, b):
            cls = type(a)
            if y == x:
                return a
            if x not in free_vars(b):
                return a
            if y in free_vars(t):
                z = fresh_var(y, free_vars(b) | free_vars(t) | {x})
                b = substitute(b, y, Var(z))
                return cls(z, substitute(b, x, t))
            return cls(y, substitute(b, x, t))
    raise TypeError("not a formula: %r" % (a,))


# ---------------------------------------------------------------------------
# structure helpers


def subformulas(a: Formula):
    """All subformulas, the formula itself included, in preorder.

    The walk keeps its own stack, so a deep formula costs one generator
    frame, not one per level."""
    stack = [a]
    while stack:
        a = stack.pop()
        yield a
        cls = a.__class__
        if cls is Not or cls is Forall or cls is Exists:
            stack.append(a.body)
        elif cls is And or cls is Or or cls is Imp:
            stack.append(a.right)
            stack.append(a.left)
        elif cls is ExtApp:
            stack.extend(reversed(a.args))


def is_atomic(a: Formula) -> bool:
    """Atomic formulas: proposition symbols, predicate applications,
    equalities, and nullary connectives (F, Both, Neither)."""
    match a:
        case Falsity() | Prop(_) | Pred(_, _) | Eq(_, _):
            return True
        case ExtApp(_, args):
            return not args
    return False


def is_literal(a: Formula) -> bool:
    if is_atomic(a):
        return True
    return isinstance(a, Not) and is_atomic(a.body)


def _atoms(a: Formula) -> frozenset:
    """The atomic subformulas of a; none when a is atomic, since a kept
    value never holds its own node."""
    if is_atomic(a):
        return frozenset()
    return frozenset(s for s in subformulas(a) if is_atomic(s))


def atomic_subformulas(gamma) -> frozenset:
    """AF of a formula collection: every atomic formula occurring as a
    subformula, the falsity constant included."""
    return frozenset().union(*(kept(g, "_atoms", _atoms) or (g,)
                               for g in gamma))


def prop_atoms(a: Formula) -> frozenset:
    """Proposition symbols occurring in a propositional formula."""
    return frozenset(
        s.name for s in subformulas(a) if isinstance(s, Prop)
    )


def is_propositional(a: Formula) -> bool:
    return all(
        not isinstance(s, (Pred, Eq, Forall, Exists)) for s in subformulas(a)
    )


# ---------------------------------------------------------------------------
# sequents


@dataclass(frozen=True)
class Sequent:
    """A pair of finite formula sets; both sides are genuinely sets."""

    ant: frozenset = frozenset()
    suc: frozenset = frozenset()

    @staticmethod
    def of(ant=(), suc=()) -> "Sequent":
        return Sequent(frozenset(ant), frozenset(suc))

    def __str__(self) -> str:
        left = "; ".join(sorted((str(a) for a in self.ant)))
        right = "; ".join(sorted((str(a) for a in self.suc)))
        return "|- %s => %s" % (left, right)


TRUTH = Not(Falsity())
