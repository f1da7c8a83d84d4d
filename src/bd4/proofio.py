"""Text formats for signatures, structures, and derivation files.

All three formats are line-oriented and canonical: parse followed by
print reproduces the file byte-for-byte (modulo comments and blank
lines, which are accepted on input and never emitted).  A derivation
prints each of its distinct sequent sides once (``Sequent.__str__``'s
side printer), however many steps share it.
"""

from __future__ import annotations

import itertools
import re

from .kernel import Derivation, DerivationStep, PACKS, RULES
from .parser import (
    ParseError, _quote, parse_formula, parse_sequent, parse_term,
)
from .semantics import Structure
from .syntax import (
    _SEQUENT, Sequent, Signature, SyntaxBuildError, print_formula, print_side,
    print_term,
)
from .values import TruthValue


class ProofIOError(Exception):
    pass


def _lines(text: str):
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line


def _fail(n: int, msg: str):
    raise ProofIOError("line %d: %s" % (n, msg))


# ---------------------------------------------------------------------------
# signature files


def parse_signature(text: str) -> Signature:
    """Read `func f/2`, `pred P/1`, `const c`, `prop p`, `conn Des` lines."""
    functions, predicates, extras = [], [], []
    for n, line in _lines(text):
        fields = line.split()
        try:
            match fields:
                case ["const", name]:
                    functions.append((name, 0))
                case ["prop", name]:
                    predicates.append((name, 0))
                case ["func" | "pred" as kind, decl] if "/" in decl:
                    name, arity = decl.split("/", 1)
                    (functions if kind == "func" else predicates).append(
                        (name, int(arity)))
                case ["conn", name]:
                    extras.append(name)
                case _:
                    _fail(n, "unrecognized declaration %s" % _quote(line))
        except ValueError:
            _fail(n, "bad arity in %s" % _quote(line))
    try:
        return Signature(tuple(functions), tuple(predicates), frozenset(extras))
    except SyntaxBuildError as e:
        raise ProofIOError(str(e)) from None


# ---------------------------------------------------------------------------
# structure files


def _value(tok: str, n: int) -> TruthValue:
    try:
        return TruthValue[tok]
    except KeyError:
        _fail(n, "bad truth value %s" % _quote(tok))


# a Structure fills one equality cell per ordered pair of elements; a
# million of them (1,000 elements) take about 100 MB
MAX_EQ_CELLS = 10**6


def parse_structure(text: str, sig: Signature) -> Structure:
    domain = None
    bottom = None
    consts, funcs, preds, props, eq = {}, {}, {}, {}, {}

    def element(tok, n):
        if domain is None:
            _fail(n, "domain line must come first")
        if tok not in domain:
            _fail(n, "unknown element %s" % _quote(tok))
        return tok

    for n, line in _lines(text):
        fields = line.split()
        match fields:
            case ["domain", *elems]:
                if domain is not None:
                    _fail(n, "duplicate domain line")
                if not elems or len(set(elems)) != len(elems):
                    _fail(n, "domain must list distinct elements")
                if len(elems) ** 2 > MAX_EQ_CELLS:
                    _fail(n, "a domain of %d elements has more than %d "
                          "equality cells" % (len(elems), MAX_EQ_CELLS))
                domain = tuple(elems)
            case ["bottom", e]:
                bottom = element(e, n)
            case ["const", name, "=", e]:
                if sig.function_arity(name) != 0:
                    _fail(n, "%s is not a declared constant" % _quote(name))
                consts[name] = element(e, n)
            case ["func", name, *rest] if "->" in rest:
                cut = rest.index("->")
                args, out = rest[:cut], rest[cut + 1:]
                if sig.function_arity(name) != len(args) or len(args) == 0:
                    _fail(n, "arity mismatch for function %s" % _quote(name))
                if len(out) != 1:
                    _fail(n, "function line needs one output element")
                key = tuple(element(a, n) for a in args)
                funcs.setdefault(name, {})[key] = element(out[0], n)
            case ["pred", name, *rest] if "=" in rest:
                cut = rest.index("=")
                args, val = rest[:cut], rest[cut + 1:]
                if sig.predicate_arity(name) != len(args):
                    _fail(n, "arity mismatch for predicate %s" % _quote(name))
                if len(val) != 1:
                    _fail(n, "predicate line needs one value")
                if args:
                    key = tuple(element(a, n) for a in args)
                    preds.setdefault(name, {})[key] = _value(val[0], n)
                else:
                    props[name] = _value(val[0], n)
            case ["eq", e1, e2, "=", v]:
                eq[(element(e1, n), element(e2, n))] = _value(v, n)
            case _:
                _fail(n, "unrecognized structure line %s" % _quote(line))
    if domain is None:
        raise ProofIOError("structure file has no domain line")
    # interpretations must be total over the domain, bottom rows included
    for symbols, nullary, tables, kinds in (
            (sig.functions, consts, funcs, ("constant", "function")),
            (sig.predicates, props, preds, ("atom", "predicate"))):
        for name, arity in symbols:
            if arity == 0:
                if name not in nullary:
                    raise ProofIOError(
                        "no interpretation for %s %s" % (kinds[0], name))
                continue
            rows = tables.get(name, {})
            for key in itertools.product(domain, repeat=arity):
                if key not in rows:
                    raise ProofIOError("%s %s missing row %s"
                                       % (kinds[1], name, " ".join(key)))
    return Structure(domain, consts, funcs, props, preds, eq, bottom)


def print_structure(s: Structure) -> str:
    out = ["domain %s" % " ".join(s.domain)]
    if s.bottom is not None:
        out.append("bottom %s" % s.bottom)
    for name in sorted(s.consts):
        out.append("const %s = %s" % (name, s.consts[name]))
    for name in sorted(s.funcs):
        for args in sorted(s.funcs[name]):
            out.append("func %s %s -> %s"
                       % (name, " ".join(args), s.funcs[name][args]))
    for name in sorted(s.props):
        out.append("pred %s = %s" % (name, s.props[name].letter))
    for name in sorted(s.preds):
        for args in sorted(s.preds[name]):
            out.append("pred %s %s = %s"
                       % (name, " ".join(args), s.preds[name][args].letter))
    for (d1, d2), v in sorted(s.eq.items()):
        out.append("eq %s %s = %s" % (d1, d2, v.letter))
    return "\n".join(out) + "\n"


def print_valuation(v: dict) -> str:
    """A valuation of atoms as ``a=t,b=n``, the atoms sorted."""
    return ",".join("%s=%s" % (a, v[a].name.lower()) for a in sorted(v))


# ---------------------------------------------------------------------------
# derivation files

# step fields appear in this fixed order, each optional
_STEP_RE = re.compile(
    r'^(\d+): (\S+)'
    r'(?: premises=\[([\d, ]*)\])?'
    r'(?: principal="([^"]*)")?'
    r'(?: t="([^"]*)")?'
    r'(?: t2="([^"]*)")?'
    r'(?: y="([^"]*)")?'
    r'(?: x="([^"]*)")?'
    r' \|- (.*?) ?=> ?(.*)$')


def _parse_side(text: str, sig: Signature, n: int):
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(parse_formula(part, sig) for part in text.split(";"))
    except ParseError as e:
        _fail(n, str(e))


def parse_derivation(text: str, sig: Signature) -> Derivation:
    packs: frozenset = frozenset()
    hypotheses = []
    steps = []
    for n, line in _lines(text):
        if line.startswith("packs:"):
            names = line[len("packs:"):].split()
            bad = [p for p in names if p != "base" and p not in PACKS]
            if bad:
                _fail(n, "unknown pack %s" % _quote(bad[0]))
            packs = frozenset(p for p in names if p != "base")
            continue
        if line.startswith("hypothesis:"):
            try:
                hypotheses.append(parse_sequent(line[len("hypothesis:"):], sig))
            except ParseError as e:
                _fail(n, str(e))
            continue
        m = _STEP_RE.match(line)
        if not m:
            _fail(n, "unrecognized step line %s" % _quote(line))
        idx, rule, prem, principal, t, t2, y, x, ant, suc = m.groups()
        if int(idx) != len(steps):
            _fail(n, "step index %s out of order (expected %d)"
                  % (idx, len(steps)))
        if rule != "hypothesis" and rule not in RULES:
            _fail(n, "unknown rule %s" % _quote(rule))
        premises = ()
        if prem:
            premises = tuple(int(k) for k in prem.replace(",", " ").split())
        try:
            principal_f = parse_formula(principal, sig) if principal else None
            t_term = parse_term(t, sig) if t else None
            t2_term = parse_term(t2, sig) if t2 else None
        except ParseError as e:
            _fail(n, str(e))
        sequent = Sequent(_parse_side(ant, sig, n), _parse_side(suc, sig, n))
        steps.append(DerivationStep(
            rule, sequent, premises=premises, principal=principal_f,
            t=t_term, t2=t2_term, x=x or None, y=y or None))
    if not steps:
        raise ProofIOError("derivation file has no steps")
    return Derivation(tuple(steps), packs=packs, hypotheses=tuple(hypotheses))


def print_sequent(s: Sequent) -> str:
    return str(s)


def print_derivation(d: Derivation) -> str:
    sides = {}  # each distinct side's printed text, for this call only
    line = "%d: %s%s%s%s " + _SEQUENT
    out = ["packs: %s" % (" ".join(sorted(d.packs)) if d.packs else "base")]
    for h in d.hypotheses:
        out.append("hypothesis: %s" % h)
    for i, st in enumerate(d.steps):
        s, cites, a, rest = st.sequent, st.premises, st.principal, ""
        if st.t is not None:
            rest += ' t="%s"' % print_term(st.t)
        if st.t2 is not None:
            rest += ' t2="%s"' % print_term(st.t2)
        if st.y is not None:
            rest += ' y="%s"' % st.y
        if st.x is not None:
            rest += ' x="%s"' % st.x
        ant, suc = sides.get(s.ant), sides.get(s.suc)
        if ant is None:
            ant = sides[s.ant] = print_side(s.ant)
        if suc is None:
            suc = sides[s.suc] = print_side(s.suc)
        out.append(line % (
            i, st.rule,
            " premises=[%s]" % ", ".join(map(str, cites)) if cites else "",
            "" if a is None else ' principal="%s"' % print_formula(a),
            rest, ant, suc))
    return "\n".join(out) + "\n"


def load_derivation(path: str, sig: Signature) -> Derivation:
    with open(path, encoding="utf-8") as fh:
        return parse_derivation(fh.read(), sig)
