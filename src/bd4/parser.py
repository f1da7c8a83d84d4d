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
keeps every recursive consumer of formulas (printing, hashing,
evaluation, substitution, search, the kernel) inside Python's default
recursion limit.
"""

from __future__ import annotations

import re

from .syntax import (
    And, Eq, Exists, ExtApp, Falsity, Forall, Fun, Imp, Not, Or, Pred, Prop,
    Sequent, Signature, Var,
)
from .values import EXTRA_CONNECTIVES


MAX_DEPTH = 100


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<neq>!=)|(?P<punct>[()&|~=.,;])"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*))"
)


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0], pos)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


def _height(e) -> int:
    """Height of a formula or term tree, found without recursion."""
    height, todo = 0, [(e, 0)]
    while todo:
        e, d = todo.pop()
        height = max(height, d)
        for kid in (getattr(e, f) for f in e.__match_args__):
            for k in kid if isinstance(kid, tuple) else (kid,):
                if not isinstance(k, str):
                    todo.append((k, d + 1))
    return height


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.tokens = _tokenize(text)
        self.sig = sig
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError("expected %r, found %r" % (value, val or "end"), pos)

    def at(self, value: str) -> bool:
        return self.peek()[1] == value

    def nested(self, parse, pos: int):
        """Parse one level further in, refusing to pass MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            raise ParseError("nested deeper than %d levels" % MAX_DEPTH, pos)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def finish(self, out):
        """``out`` once the input is used up and not nested too deep."""
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError("trailing input %r" % val, pos)
        # each level of a tree takes a token, so only long input can be high
        if len(self.tokens) > MAX_DEPTH and _height(out) > MAX_DEPTH:
            raise ParseError("nested deeper than %d levels" % MAX_DEPTH, 0)
        return out

    # -- formulas ----------------------------------------------------------

    def formula(self):
        left = self.disj()
        if self.at("->"):
            return Imp(left, self.nested(self.formula, self.next()[2]))
        return left

    def disj(self):
        out = self.conj()
        while self.at("|"):
            self.next()
            out = Or(out, self.conj())
        return out

    def conj(self):
        out = self.unary()
        while self.at("&"):
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self):
        kind, val, pos = self.peek()
        if val == "~":
            self.next()
            return Not(self.nested(self.unary, pos))
        if kind == "ident" and val in ("forall", "exists"):
            self.next()
            k2, var, p2 = self.next()
            if k2 != "ident" or var in ("forall", "exists"):
                raise ParseError("expected a variable after %s" % val, p2)
            self.expect(".")
            body = self.nested(self.formula, pos)
            return Forall(var, body) if val == "forall" else Exists(var, body)
        if kind == "ident" and val in EXTRA_CONNECTIVES:
            arity = EXTRA_CONNECTIVES[val][0]
            if val not in self.sig.extras:
                raise ParseError("extra connective %s not enabled" % val, pos)
            self.next()
            if arity == 0:
                return ExtApp(val, ())
            return ExtApp(val, (self.nested(self.unary, pos),))
        return self.atom()

    def atom(self):
        kind, val, pos = self.next()
        if val == "(":
            out = self.nested(self.formula, pos)
            self.expect(")")
            return out
        if val == "F":
            return Falsity()
        if val == "T":
            return Not(Falsity())
        if kind != "ident":
            raise ParseError("expected a formula, found %r" % (val or "end"), pos)
        # identifier: predicate/proposition, or the start of a term
        parity = self.sig.predicate_arity(val)
        if parity == 0:
            return Prop(val)
        if parity is not None and parity > 0:
            args = self.term_args(val, parity, pos)
            return Pred(val, args)
        # otherwise it must open a term of an equality
        self.i -= 1
        left = self.term()
        kind2, val2, pos2 = self.next()
        if val2 == "=":
            return Eq(left, self.term())
        if val2 == "!=":
            return Not(Eq(left, self.term()))
        if self.sig.function_arity(val) is None and isinstance(left, Var):
            raise ParseError("unknown symbol %r" % val, pos)
        raise ParseError("expected '=' or '!=' after a term", pos2)

    # -- terms -------------------------------------------------------------

    def term(self):
        kind, val, pos = self.next()
        if kind != "ident" or val in ("forall", "exists") or val in EXTRA_CONNECTIVES:
            raise ParseError("expected a term, found %r" % (val or "end"), pos)
        farities = self.sig.function_arity(val)
        if self.sig.predicate_arity(val) is not None:
            raise ParseError("predicate symbol %r used as a term" % val, pos)
        if farities is None:
            if self.at("("):
                raise ParseError("unknown symbol %r" % val, pos)
            return Var(val)
        if farities == 0:
            return Fun(val, ())
        args = self.term_args(val, farities, pos)
        return Fun(val, args)

    def term_args(self, name: str, arity: int, pos: int) -> tuple:
        self.expect("(")
        args = [self.nested(self.term, pos)]
        while self.at(","):
            self.next()
            args.append(self.nested(self.term, pos))
        self.expect(")")
        if len(args) != arity:
            raise ParseError(
                "%s expects %d argument(s), got %d" % (name, arity, len(args)), pos
            )
        return tuple(args)


def parse_formula(text: str, sig: Signature):
    p = _Parser(text, sig)
    return p.finish(p.formula())


def parse_term(text: str, sig: Signature):
    p = _Parser(text, sig)
    return p.finish(p.term())


def split_top(text: str, sep: str) -> list[str]:
    """Split on a separator, ignoring separators inside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_formula_list(text: str, sig: Signature, sep: str = ",") -> list:
    """Parse a separator-joined formula list; blank input is the empty list."""
    if not text.strip():
        return []
    return [parse_formula(part, sig) for part in split_top(text, sep)]


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
