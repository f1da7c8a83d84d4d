"""Recursive-descent parser for the ASCII formula syntax.

Grammar, high to low binding:

    atom     ::= '(' formula ')' | 'F' | 'T' | nullary-extra
               | prop | pred '(' terms ')' | term ('=' | '!=') term
    unary    ::= '~' unary | unary-extra unary | quantifier | atom
    conj     ::= unary ('&' unary)*
    disj     ::= conj ('|' conj)*
    formula  ::= disj ('->' formula)?          (right-associative)
    quantifier ::= ('forall' | 'exists') var '.' formula

Quantifier scope extends maximally to the right.  'T' is sugar for ~F
and 't1 != t2' for ~(t1 = t2); both parse to the unsugared tree.
Identifiers are resolved against the signature; an identifier that is
declared nowhere is a variable when it occurs inside a term position and
an error elsewhere.

Trees higher than ``MAX_DEPTH`` (left-associative chains count) and
deeper nesting of brackets and prefix operators are a ParseError, which
keeps what still recurses once per level inside Python's default
recursion limit: this descent itself, ``evaluate``, ``evaluate_prop``,
``Structure.eval_term`` and the kernel's import-time template compile.

A formula list is scanned once: one ``findall`` gives the token values
of the whole list, and one parser reads them, ending a part at each
separator outside brackets.  Positions, which count from the start of
their part, are found by a second scan only when an error is raised.
"""

from __future__ import annotations

import re

from .syntax import (
    And, Eq, Exists, ExtApp, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, TRUTH, Var, _parts,
)
from .values import EXTRA_CONNECTIVES


MAX_DEPTH = 100


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_TOKEN = re.compile(r"->|!=|[()&|~=.,;]|[A-Za-z_][A-Za-z_0-9]*")
# the token values that are no identifier, and "" for the end of the input
_PUNCT = frozenset(("->", "!=", *"()&|~=.,;", ""))
_QUANTIFIERS = ("forall", "exists")
_FALSITY = Falsity()


class _Fail(Exception):
    """A ParseError with a token index for its position, or None for the
    start of the part."""


def _quote(text: str) -> str:
    """``repr`` of the text's first 60 characters, with a marker if cut."""
    return _clip(text, repr)


def _clip(text: str, show) -> str:
    """``show`` of the text's first 60 characters, with a marker if cut."""
    return show(text) if len(text) <= 60 else show(text[:60]) + " [clipped]"


def _height(e) -> int:
    """Height of a formula or term tree, found without recursion."""
    height, todo = 0, [(e, 0)]
    while todo:
        e, d = todo.pop()
        height = max(height, d)
        todo += [(k, d + 1) for k in _parts(e)]
    return height


class _Parser:
    """Recursive descent over a list of token values ending in "".  A
    separator outside brackets ends a part as the end of input does."""

    __slots__ = ("vals", "sig", "sep", "i", "depth")

    def __init__(self, vals: list, sig: Signature, sep):
        self.vals, self.sig, self.sep = vals, sig, sep
        self.i = self.depth = 0

    def next(self) -> str:
        self.i += 1
        return self.vals[self.i - 1]

    def found(self, j: int) -> str:
        """Token j as an error quotes it; a part's separator is the end."""
        val, before = self.vals[j], self.vals[:j]
        if val == self.sep and before.count("(") == before.count(")"):
            val = ""
        return _quote(val or "end")

    def expect(self, value: str):
        if self.vals[self.i] != value:
            raise _Fail("expected %r, found %s" % (value, self.found(self.i)),
                        self.i)
        self.i += 1

    def nested(self, parse, j: int):
        """Parse one level further in, refusing to pass MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            raise _Fail("nested deeper than %d levels" % MAX_DEPTH, j)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def part(self, parse):
        """``parse(self)`` once it ends the part and is not too high."""
        start = self.i
        out = parse(self)
        val = self.vals[self.i]
        if val and val != self.sep:
            raise _Fail("trailing input %s" % _quote(val), self.i)
        # each level of a tree takes a token, so only long input can be high
        if self.i - start >= MAX_DEPTH and _height(out) > MAX_DEPTH:
            raise _Fail("nested deeper than %d levels" % MAX_DEPTH, None)
        return out

    # -- formulas ----------------------------------------------------------

    def formula(self):
        """The formula rule, with its disjunctions and conjunctions."""
        vals = self.vals
        out = self.unary()
        while vals[self.i] == "&":
            self.i += 1
            out = And(out, self.unary())
        while vals[self.i] == "|":
            self.i += 1
            right = self.unary()
            while vals[self.i] == "&":
                self.i += 1
                right = And(right, self.unary())
            out = Or(out, right)
        if vals[self.i] == "->":
            self.i += 1
            return Imp(out, self.nested(self.formula, self.i - 1))
        return out

    def unary(self):
        """The unary rule, with its atoms."""
        j = self.i
        val = self.vals[j]
        self.i = j + 1
        if val == "(":
            out = self.nested(self.formula, j)
            self.expect(")")
            return out
        if val == "~":
            return Not(self.nested(self.unary, j))
        if val == "F":
            return _FALSITY
        if val == "T":
            return TRUTH
        if val in _PUNCT:
            raise _Fail("expected a formula, found %s" % self.found(j), j)
        if val in _QUANTIFIERS:
            var = self.next()
            if var in _PUNCT or var in _QUANTIFIERS:
                raise _Fail("expected a variable after %s" % val, j + 1)
            self.expect(".")
            body = self.nested(self.formula, j)
            return Forall(var, body) if val == "forall" else Exists(var, body)
        if val in EXTRA_CONNECTIVES:
            if val not in self.sig.extras:
                raise _Fail("extra connective %s not enabled" % val, j)
            if EXTRA_CONNECTIVES[val][0] == 0:
                return ExtApp(val, ())
            return ExtApp(val, (self.nested(self.unary, j),))
        # identifier: predicate/proposition, or the start of a term
        parity = self.sig.predicate_arity(val)
        if parity == 0:
            return Prop(val)
        if parity is not None and parity > 0:
            return Pred(val, self.term_args(val, parity, j))
        # otherwise it must open a term of an equality
        self.i = j
        left = self.term()
        val2 = self.next()
        if val2 == "=":
            return Eq(left, self.term())
        if val2 == "!=":
            return Not(Eq(left, self.term()))
        if self.sig.function_arity(val) is None and isinstance(left, Var):
            raise _Fail("unknown symbol %s" % _quote(val), j)
        raise _Fail("expected '=' or '!=' after a term", self.i - 1)

    # -- terms -------------------------------------------------------------

    def term(self):
        j = self.i
        val = self.vals[j]
        self.i = j + 1
        if val in _PUNCT or val in _QUANTIFIERS or val in EXTRA_CONNECTIVES:
            raise _Fail("expected a term, found %s" % self.found(j), j)
        farities = self.sig.function_arity(val)
        if self.sig.predicate_arity(val) is not None:
            raise _Fail("predicate symbol %s used as a term" % _quote(val), j)
        if farities is None:
            if self.vals[self.i] == "(":
                raise _Fail("unknown symbol %s" % _quote(val), j)
            return Var(val)
        if farities == 0:
            return Fun(val, ())
        return Fun(val, self.term_args(val, farities, j))

    def term_args(self, name: str, arity: int, j: int) -> tuple:
        self.expect("(")
        args = [self.nested(self.term, j)]
        while self.vals[self.i] == ",":
            self.i += 1
            args.append(self.nested(self.term, j))
        self.expect(")")
        if len(args) != arity:
            raise _Fail("%s expects %d argument(s), got %d"
                        % (name, arity, len(args)), j)
        return tuple(args)


def _parse(text: str, sig: Signature, parse, sep=None) -> list:
    """The trees ``parse`` makes of the parts of text that separators
    outside brackets delimit (one part when sep is None).  A position
    counts from the start of its part."""
    vals = _TOKEN.findall(text)
    if len("".join(vals)) != len("".join(text.split())):
        _refuse_character(text, sig, parse, sep)
    vals.append("")
    p, out, first = _Parser(vals, sig, sep), [], 0
    try:
        while True:
            out.append(p.part(parse))
            if not vals[p.i]:
                return out
            p.i = first = p.i + 1
    except _Fail as fail:
        message, j = fail.args
    starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
    start = starts[first - 1] + 1 if first else 0
    raise ParseError(message, 0 if j is None else starts[j] - start)


def _refuse_character(text: str, sig: Signature, parse, sep):
    """Raise the first error of a text that holds a character no token
    covers: an earlier part's, or else that character's, placed at the
    end of the token before it in its part."""
    blank = _TOKEN.sub(lambda m: " " * len(m[0]), text)
    bad = len(blank) - len(blank.lstrip())
    start = depth = 0
    for i, ch in enumerate(text[:bad]):
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            start = i + 1
    if start:
        _parse(text[:start - 1], sig, parse, sep)
    raise ParseError("unexpected character %s" % _quote(text[bad]),
                     len(text[start:bad].rstrip()))


def parse_formula(text: str, sig: Signature):
    return _parse(text, sig, _Parser.formula)[0]


def parse_term(text: str, sig: Signature):
    return _parse(text, sig, _Parser.term)[0]


def parse_formula_list(text: str, sig: Signature, sep: str = ",") -> list:
    """Parse a list joined by ``sep``, ',' or ';'; blank input is the
    empty list."""
    if not text.strip():
        return []
    return _parse(text, sig, _Parser.formula, sep)


def parse_sequent(text: str, sig: Signature) -> Sequent:
    """Parse the sequent notation ``|- ant1; ant2 => suc1; suc2``.

    Either side may be empty.  The leading ``|-`` is optional so that
    plain ``p => q`` is accepted on the command line.
    """
    body = text.strip()
    if body.startswith("|-"):
        body = body[2:]
    if "=>" not in body:
        raise ParseError("a sequent needs '=>' between its sides", 0)
    left, _, right = body.partition("=>")
    return Sequent.of(
        parse_formula_list(left, sig, ";"), parse_formula_list(right, sig, ";")
    )
