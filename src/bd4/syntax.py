"""Terms, formulas, signatures, free variables, substitution, printing.

Terms and formulas are immutable, hash-consed trees (Conchon and
Filliatre 2006, "Type-safe modular hash-consing"): building a node looks
up its class and field values, defaults filled in, in one module table,
so two equal trees are always the same object, however they were built.
Equality and hashing are therefore object identity, O(1) and never a
walk of the tree.  The table holds weak references, so a node lives
only as long as something else refers to it.  Copying or pickling a
node builds it again through the table and so gives back the same
object.  ``_node`` builds node classes, and ``_record`` the package's
frozen value records, from their annotations and class defaults with
shared functions: ``dataclass`` would generate methods at every import,
about 0.7 ms a class (2 vCPUs, Python 3.11), after importing ``inspect``.

The concrete syntax written by ``print_term``/``print_formula`` (``str``,
from ``_PRINTED``, one table of each class's printed form over its parts'
printed forms) is the canonical one: it contains no sugar (t1 != t2 and
T are accepted by the parser but printed as ~(t1 = t2) and ~F), and
parsing the printed form gives back the same tree.  The canonical total
order on formulas is the lexicographic order of the printed form, which
is what sequent sides are sorted by.

Since a node never changes, a value derived from it alone can be
computed on first use and kept on the node: ``_fill``, one loop on its
own stack, keeps the printed form and the free variables, parts first;
``kept`` a formula's atomic subformulas, its compiled code in
``semantics``, and in ``kernel`` one dict of what rules' premises add
when it is their principal, by rule and t or y.  Every walk here reads
a node's parts through ``_parts`` and none recurses, so an API-built
node of any depth prints and substitutes.  A kept value lives and dies
with its node, so no table keyed by formulas holds a node alive.  The
``_mask`` slot is on the node too but is not kept: ``consequence_prop``
in ``semantics`` leaves one designation mask there, keyed by the atoms
and value set it was taken over, and overwrites it when those change.
"""

from __future__ import annotations

import functools
import re
import weakref
from operator import attrgetter

from .values import EXTRA_CONNECTIVES


class SyntaxBuildError(Exception):
    """Raised for mis-built terms or formulas (arity or symbol problems)."""


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
    attribute of the node more slowly.  A value that depends on more
    than the node goes in a slot keyed by the rest, as ``_mask`` is."""
    value = getattr(node, name, _ABSENT)
    if value is _ABSENT:
        value = compute(node)
        object.__setattr__(node, name, value)
    return value


def _fields(cls) -> tuple:
    """A node or record class's fields, its annotations in order, and
    their defaults, its attributes of those names; the class gets the
    dataclass ``__repr__`` and frozen fields, and ``__match_args__``."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    cls.__match_args__, cls.__setattr__, cls.__delattr__ = (
        names, _frozen, _frozen)
    cls.__repr__ = cls.__dict__.get("__repr__", _repr)
    return names, {n: cls.__dict__[n] for n in names if n in cls.__dict__}


def _bind(cls, names, defaults: dict, args, kwargs) -> tuple:
    """The field values of a call with keywords, defaults or a wrong
    number of arguments: each field once, by position, keyword or
    default, and nothing else.  It empties ``kwargs``, the call's own."""
    values = list(args)
    for n in names[len(args):]:
        values.append(kwargs.pop(n, defaults.get(n, _ABSENT)))
    if kwargs or len(values) > len(names) or _ABSENT in values:
        raise TypeError("bad arguments to %s(%s)"
                        % (cls.__name__, ", ".join(names)))
    return tuple(values)


def _repr(node) -> str:
    """The dataclass text of a node or record, from one stack of text and
    boxed values, so nodes, records and tuples nest to any depth."""
    out, stack = [], [(node,)]
    while stack:
        x = stack.pop()
        if x.__class__ is str:
            out.append(x)
            continue
        x, = x
        cls = x.__class__
        if cls.__repr__ is _repr:
            head, items = cls.__qualname__ + "(", [
                (n + "=", getattr(x, n)) for n in cls.__match_args__]
        elif cls is tuple and x:
            head, items = "(", [("", v) for v in x]
        else:
            out.append(repr(x))
            continue
        stack.append(",)" if cls is tuple and len(x) == 1 else ")")
        for i in reversed(range(len(items))):
            stack += ((items[i][1],), ", " * (i > 0) + items[i][0])
        stack.append(head)
    return "".join(out)


def _frozen(node, name, *value):
    from dataclasses import FrozenInstanceError  # loaded only to raise it
    raise FrozenInstanceError("cannot %s field %r" % (
        "assign to" if value else "delete", name))


def _node(cls):
    """Make ``cls`` a class of frozen hash-consed nodes: identity equality
    and hashing, one node per distinct field values; the fields are read
    as ``_record`` reads a record's.  Each node starts with the class's
    empty ``_text`` and ``_mask`` slots, so reading them never misses
    (see the module docstring).
    ``__new__`` binds a call (one length test for the common
    all-positional call), sets the fields, runs any ``__post_init__``
    and only then enters the node in the table, so a bad call leaves no
    entry."""
    names, defaults = _fields(cls)
    arity, store = len(names), object.__setattr__  # read once, not per call
    post = getattr(cls, "__post_init__", None)

    def __new__(c, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = _bind(c, names, defaults, args, kwargs)
        key = (c,) + args
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(c)
        for name, value in zip(names, args):
            store(node, name, value)
        if post is not None:
            post(node)  # ExtApp checks itself here
        ref = _NODES[key] = _Entry(node, _forget)
        ref.key = key
        return node

    def __reduce__(self):
        return cls, tuple(getattr(self, n) for n in names)

    cls.__new__, cls.__reduce__ = __new__, __reduce__
    cls._text = None  # the printed form, once computed
    cls._mask = (None, 0)  # consequence_prop's ((atoms, values), t-mask)
    return cls


def _record(cls):
    """Make ``cls`` a class of frozen records, as ``dataclass(frozen=True)``
    would, but for methods the class defines: ``__init__`` binds a call
    as ``_node`` does, stores every field, gives each record its own
    copy of a dict default and runs any ``__post_init__``.  A call by
    position binds fastest: ``_bind`` takes keywords at several times
    the cost of a dataclass's ``__init__``.  Records compare and hash as
    their field tuples (a record has two fields or more, so ``values``
    gives a tuple)."""
    names, defaults = _fields(cls)
    arity, store = len(names), object.__setattr__  # read once, not per call
    post, values = getattr(cls, "__post_init__", None), attrgetter(*names)
    every, required = tuple(enumerate(names)), arity - len(defaults)
    fresh = [n for n in names if defaults.get(n).__class__ is dict]
    tails = [tuple(defaults.get(n) for n in names[k:]) for k in range(arity)]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:  # defaults end a short call
            args = (args + tails[len(args)]
                    if not kwargs and required <= len(args) < arity else
                    _bind(self.__class__, names, defaults, args, kwargs))
        for i, name in every:
            store(self, name, args[i])
        for name in fresh:
            if getattr(self, name) is defaults[name]:
                store(self, name, defaults[name].copy())
        if post is not None:
            post(self)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    for method in (__init__, __eq__, __hash__):
        setattr(cls, method.__name__, cls.__dict__.get(method.__name__, method))
    return cls


def replace(record, **changes):
    """``record`` with ``changes`` to its fields, through ``__init__``."""
    return record.__class__(*[changes.pop(n, getattr(record, n))
                              for n in record.__match_args__], **changes)


# ---------------------------------------------------------------------------
# signatures

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")

_RESERVED = {"F", "T", "forall", "exists"} | set(EXTRA_CONNECTIVES)


@_record
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

    @functools.cached_property
    def _arities(self) -> dict:
        """Each name's (function arity, predicate arity), one of them None."""
        return {**{n: (a, None) for n, a in self.functions},
                **{n: (None, a) for n, a in self.predicates}}

    def function_arity(self, name: str):
        return self._arities.get(name, (None, None))[0]

    def predicate_arity(self, name: str):
        return self._arities.get(name, (None, None))[1]

    def __getstate__(self) -> dict:  # the fields, not the kept arities
        return {n: getattr(self, n) for n in self.__match_args__}

    @property
    def propositions(self) -> tuple[str, ...]:
        return tuple(n for n, a in self.predicates if a == 0)


def prop_signature(*names: str) -> Signature:
    """Signature with only proposition symbols, the common test case."""
    return Signature(predicates=tuple((n, 0) for n in names))


# ---------------------------------------------------------------------------
# terms


@_node
class Var:
    name: str


@_node
class Fun:
    """Function application; constants are Fun(name, ())."""

    name: str
    args: tuple = ()


Term = Var | Fun


# ---------------------------------------------------------------------------
# formulas


@_node
class Falsity:
    """The falsity constant, printed F."""


@_node
class Prop:
    name: str


@_node
class Pred:
    name: str
    args: tuple


@_node
class Eq:
    left: Term
    right: Term


@_node
class Not:
    body: "Formula"


@_node
class And:
    left: "Formula"
    right: "Formula"


@_node
class Or:
    left: "Formula"
    right: "Formula"


@_node
class Imp:
    left: "Formula"
    right: "Formula"


@_node
class Forall:
    var: str
    body: "Formula"


@_node
class Exists:
    var: str
    body: "Formula"


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


Formula = (
    Falsity | Prop | Pred | Eq | Not | And | Or | Imp | Forall | Exists | ExtApp
)

# Precedence levels for printing: 1 ->, 2 |, 3 &, 4 unary, 5 atoms.
# A child is parenthesized when its level is below the level its slot
# requires (the right child of -> keeps its level: right-associative).
# Quantifiers always parenthesize when used as an operand.
_LEVEL = {Forall: 0, Exists: 0, Imp: 1, Or: 2, And: 3, Not: 4, ExtApp: 4,
          Falsity: 5, Prop: 5, Pred: 5, Eq: 5}
_ATOMIC = frozenset((Falsity, Prop, Pred, Eq))  # ``is_atomic``'s classes


def _wrap(a: "Formula", need: int) -> str:
    lvl = _LEVEL.get(a.__class__) if a.__class__ is not ExtApp or a.args else 5
    if lvl is None:
        raise TypeError("not a formula: %r" % (a,))
    return "(%s)" % a._text if lvl < need else a._text


def _sorted(parts, sorts, sort: str) -> tuple:
    for b in parts:  # each part's class must be in sorts
        if b.__class__ not in sorts:
            raise TypeError("not a %s: %r" % (sort, b))
    return parts


def _terms(parts, sep: str) -> str:
    return sep.join([b._text for b in _sorted(parts, (Var, Fun), "term")])


# each class's printed form from a node and its parts' (names formatted)
_PRINTED = {
    Var: lambda u, parts: "%s" % u.name,
    Fun: lambda u, parts: ("%s(%s)" % (u.name, _terms(parts, ", "))
                           if parts else "%s" % u.name),
    Falsity: lambda u, parts: "F",
    Prop: lambda u, parts: "%s" % u.name,
    Pred: lambda u, parts: "%s(%s)" % (u.name, _terms(parts, ", ")),
    Eq: lambda u, parts: _terms(parts, " = "),
    Not: lambda u, parts: "~" + _wrap(u.body, 4),
    And: lambda u, parts: "%s & %s" % (_wrap(u.left, 3), _wrap(u.right, 4)),
    Or: lambda u, parts: "%s | %s" % (_wrap(u.left, 2), _wrap(u.right, 3)),
    Imp: lambda u, parts: "%s -> %s" % (_wrap(u.left, 2), _wrap(u.right, 1)),
    Forall: lambda u, parts: "forall %s. %s" % (u.var, _wrap(u.body, 0)),
    Exists: lambda u, parts: "exists %s. %s" % (u.var, _wrap(u.body, 0)),
    ExtApp: lambda u, parts: (
        "%s %s" % (u.conn, _wrap(parts[0], 4)) if parts else u.conn),
}


def _parts(u) -> tuple:
    """The terms and formulas that u is built from, in field order."""
    cls = u.__class__
    if cls is Not or cls is Forall or cls is Exists:
        return (u.body,)
    if cls is Eq or cls is And or cls is Or or cls is Imp:
        return (u.left, u.right)
    if cls in _PRINTED:
        return getattr(u, "args", ())  # none for Var, Falsity, Prop
    raise TypeError("not a term or formula: %r" % (u,))


def _fill(e, name: str, table: dict):
    """e's kept attribute ``name``, set to ``table[class](u, parts)``, never
    None, on e and each part lacking it by one loop on its own stack:
    parts first, left to right, each node put back under those it awaits."""
    stack = [e]
    while stack:
        u = stack.pop()
        if getattr(u, name, None) is None:
            parts, n = _parts(u), len(stack)
            for b in reversed(parts):
                if getattr(b, name, None) is None:
                    stack.append(b)
            if len(stack) > n:
                stack.insert(n, u)
            else:
                object.__setattr__(u, name, table[u.__class__](u, parts))
    return getattr(e, name)


def _str(u) -> str:
    return u._text or _fill(u, "_text", _PRINTED)


for _cls in _PRINTED:  # a kernel's _Letter keeps printing as its repr
    _cls.__str__ = _str

# a node prints as its ``str``, which is also the sort key of the
# canonical total order on formulas
print_formula = print_term = formula_key = str


# ---------------------------------------------------------------------------
# free variables and substitution


# each class's free variables, from a node and its parts' kept ones, the
# parts checked for the sorts printing checks
_FREE = dict.fromkeys(_PRINTED, lambda u, parts: frozenset().union(
    *[b._free for b in _sorted(parts, _LEVEL, "formula")]))
_FREE[Pred] = _FREE[Eq] = _FREE[Fun] = lambda u, parts: frozenset().union(
    *[b._free for b in _sorted(parts, (Var, Fun), "term")])
_FREE[Var] = lambda u, parts: frozenset((u.name,))
_FREE[Forall] = _FREE[Exists] = lambda u, parts: _sorted(
    parts, _LEVEL, "formula")[0]._free - {u.var}


def free_vars(e) -> frozenset:
    """The free variables of a term or formula, kept on each as ``_free``."""
    return _fill(e, "_free", _FREE)


_STEM = re.compile(r"([A-Za-z_][A-Za-z_0-9]*?)(\d*)\Z")


def fresh_var(stem: str, avoid) -> str:
    """Least fresh variable: strip any digit suffix from the stem, then
    try stem1, stem2, ... and return the first name not in ``avoid``."""
    base, k = _STEM.match(stem).group(1), 1
    while "%s%d" % (base, k) in avoid:
        k += 1
    return "%s%d" % (base, k)


def _bottom_up(t, done: dict, make, *args):
    """``done[t]``, after ``done[u] = make(u, *args)`` for each subterm u
    of t not in ``done``, arguments first, left to right, without recursion."""
    stack = [t]
    while stack:
        u = stack.pop()
        if u not in done:
            todo = u.__class__ is Fun and [a for a in u.args if a not in done]
            if todo:
                stack += (u, *reversed(todo))
            else:
                done[u] = make(u, *args)
    return done[t]


def _rebuilt(u, binding: dict, done: dict):
    """u with its variables rebound, its arguments' rebuilds in ``done``."""
    cls = u.__class__
    if cls is Var:
        return binding.get(u.name, u)
    if cls is Fun:
        return Fun(u.name, tuple([done[a] for a in u.args])) if u.args else u
    raise TypeError("not a term: %r" % (u,))


def _rebind(t, binding: dict):
    """t with each variable that ``binding`` binds replaced by its value:
    a term, or in ``semantics`` a domain element's name."""
    if t.__class__ is not Fun or not t.args:
        return _rebuilt(t, binding, None)
    done = {}
    return _bottom_up(t, done, _rebuilt, binding, done)


def substitute(a: Formula, x: str, t: Term) -> Formula:
    """Replace free occurrences of x in a by t, renaming bound variables
    when a free variable of t would be captured.  The recursive form's
    steps run in its order as jobs on one stack: "sub" x by t in the
    formula a, "into" the last result, or "build" an a from its head x
    and the last t results."""
    out, jobs = [], [("sub", a, x, t)]
    while jobs:
        job, a, x, t = jobs.pop()
        cls = a.__class__
        if job == "into":
            jobs.append(("sub", out.pop(), x, t))
        elif job == "build":  # x is the head, t the count of parts
            parts = out[-t:]
            out[-t:] = (a(*parts) if x is None else a(x, tuple(parts))
                        if a is ExtApp else a(x, *parts),)
        elif cls is Forall or cls is Exists:
            y, b = a.var, a.body
            if y == x or x not in free_vars(b):
                out.append(a)
            elif y in free_vars(t):
                z = fresh_var(y, free_vars(b) | free_vars(t) | {x})
                jobs += (("build", cls, z, 1), ("into", None, x, t),
                         ("sub", b, y, Var(z)))
            else:
                jobs += (("build", cls, y, 1), ("sub", b, x, t))
        elif cls is Pred or cls is Eq:
            terms = [_rebind(u, {x: t}) for u in _parts(a)]
            out.append(Pred(a.name, tuple(terms)) if cls is Pred
                       else Eq(*terms))
        elif cls in _LEVEL and (parts := _parts(a)):  # the connectives
            jobs.append(("build", cls, getattr(a, "conn", None), len(parts)))
            jobs += [("sub", b, x, t) for b in reversed(parts)]
        elif cls in _LEVEL:  # Falsity, Prop and a nullary ExtApp
            out.append(a)
        else:
            raise TypeError("not a formula: %r" % (a,))
    return out[0]


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
        if a.__class__ is not Pred and a.__class__ is not Eq:  # skip terms
            stack += reversed(_parts(a))


def is_atomic(a: Formula) -> bool:
    """Atomic formulas: proposition symbols, predicate applications,
    equalities, and nullary connectives (F, Both, Neither)."""
    cls = a.__class__
    return cls in _ATOMIC or cls is ExtApp and not a.args


def is_literal(a: Formula) -> bool:
    return is_atomic(a) or a.__class__ is Not and is_atomic(a.body)


def _atoms(a: Formula) -> frozenset:
    """The atomic subformulas of a other than a itself, since a kept
    value never holds its own node."""
    return frozenset(s for s in subformulas(a) if s is not a and is_atomic(s))


def atomic_subformulas(gamma) -> frozenset:
    """AF of a formula collection: every atomic formula occurring as a
    subformula, the falsity constant included, with kept atoms read."""
    out = set()
    for g in gamma:
        atoms = getattr(g, "_atoms", None)
        if atoms is None:
            atoms = kept(g, "_atoms", _atoms)
        out.update(atoms or (g,))  # an atomic g keeps none
    return frozenset(out)


def prop_atoms(a: Formula) -> frozenset:
    """Proposition symbols occurring in a propositional formula."""
    return frozenset(s.name for s in subformulas(a) if isinstance(s, Prop))


# ---------------------------------------------------------------------------
# sequents


@_record
class Sequent:
    """A pair of finite formula sets; both sides are genuinely sets.
    ``__init__`` is written out, the builder's being slower."""

    ant: frozenset
    suc: frozenset

    def __init__(self, ant, suc):
        object.__setattr__(self, "ant", ant)
        object.__setattr__(self, "suc", suc)

    @staticmethod
    def of(ant=(), suc=()) -> "Sequent":
        return Sequent(frozenset(ant), frozenset(suc))

    def __str__(self) -> str:
        return _SEQUENT % (print_side(self.ant), print_side(self.suc))


_SEQUENT = "|- %s => %s"  # a sequent's printed form, given its sides'


def print_side(formulas) -> str:
    """A sequent side's printed form: its formulas', sorted, "; "-joined."""
    return "; ".join(sorted([a._text or str(a) for a in formulas]))


TRUTH = Not(Falsity())
