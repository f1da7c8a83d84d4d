"""Command line entry point.

Exit codes follow one contract everywhere: 0 for an affirmative result
(entailment holds, proof found, derivation checks, all suites pass),
1 for a negative one (countermodel found, check failed), 2 for usage
or input problems.  Machine output via --format lines prints key=value
pairs only, and never includes wall-clock times, so identical
invocations give byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .acceptance import SuiteConfig, render_report, report_all
from .definability import (
    BD_BASE, DEFINITIONS, DefinabilityError, clone_closure, extra_function,
    find_definition, is_definable_criterion, verify_definition,
)
from .kernel import check_derivation
from .matrixlab import (
    ALL_LAWS, BD_MATRIX, LAW_TEXT, check_all_laws, uniqueness_search,
)
from .parser import ParseError, parse_formula, parse_formula_list, parse_sequent
from .proofio import (
    ProofIOError, parse_derivation, parse_signature, parse_structure,
    print_derivation, print_formula, print_structure, print_valuation,
)
from .search import MODES, SearchBudget, prove_prop
from .semantics import (
    SemanticsError, _compile, _count, _grounding, consequence_fo,
    consequence_prop, equivalent_prop, evaluate, evaluate_prop, valuations,
)
from .simulation import EXTENSION_MODES, translation_sets, verify_simulation
from .syntax import _RESERVED, SyntaxBuildError, prop_signature
from .values import TruthValue, designated

_NAME_RX = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# the grounded formula items eval may visit over a structure; a million
# take about 2 s
MAX_EVAL_ITEMS = 10**6
# an error line stays under this many bytes of UTF-8, however much
# input it quotes
MAX_ERROR_BYTES = 200
# a report count may be at most this many times its nominal value
MAX_COUNT_FACTOR = 100


class UsageError(Exception):
    pass


def _clipped(line: str) -> str:
    """The line cut under ``MAX_ERROR_BYTES`` of UTF-8, with a marker."""
    data = line.encode(errors="backslashreplace")
    if len(data) >= MAX_ERROR_BYTES:  # the marker has 10 bytes
        data = data[:MAX_ERROR_BYTES - 11] + b" [clipped]"
    # decoding drops a character that the cut splits
    return data.decode(errors="ignore")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose error line is clipped as ``main``'s are."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, _clipped("%s: error: %s" % (self.prog, message)) + "\n")


def _vname(v: TruthValue) -> str:
    return v.name.lower()


def _parse_value(text: str) -> TruthValue:
    try:
        return TruthValue[text.strip().upper()]
    except KeyError:
        raise UsageError("unknown truth value %r (use t, b, n, f)" % text)


def _render_assignment(alpha: dict) -> str:
    """Variable-to-element bindings of a first-order countermodel."""
    return ",".join("%s=%s" % (x, alpha[x]) for x in sorted(alpha))


def _infer_atoms(*texts: str):
    """Proposition symbols for plain propositional input.

    Anything first-order (application syntax, quantifiers, equality)
    cannot be guessed at, so it demands an explicit signature.
    """
    names = []
    for text in texts:
        plain = text.replace("|-", " ").replace("=>", " ")
        if re.search(r"[A-Za-z_0-9]\s*\(", plain) or "=" in plain:
            raise UsageError(
                "cannot infer a signature from first-order syntax; "
                "pass --sig or --atoms")
        for m in _NAME_RX.finditer(plain):
            if m.group() in ("forall", "exists"):
                raise UsageError(
                    "cannot infer a signature under quantifiers; pass --sig")
            if m.group() not in _RESERVED and m.group() not in names:
                names.append(m.group())
    return sorted(names)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError("%s is not UTF-8 text: %s at byte %d"
                         % (path, exc.reason, exc.start))


def _get_sig(args, *texts: str):
    if getattr(args, "sig", None):
        return parse_signature(_read(args.sig))
    if getattr(args, "atoms", None):
        return prop_signature(*args.atoms.split())
    return prop_signature(*_infer_atoms(*texts))


def _parse_assignment(text: str) -> dict:
    out = {}
    for chunk in re.split(r"[,\s]+", text.strip()):
        if not chunk:
            continue
        name, sep, val = chunk.partition("=")
        if not sep:
            raise UsageError("assignments look like p=b, got %r" % chunk)
        out[name] = _parse_value(val)
    return out


def _emit(args, human: str, lines: str):
    print(lines if args.format == "lines" else human)


# ---------------------------------------------------------------------------
# verbs

def _cmd_eval(args) -> int:
    if args.structure:
        if not args.sig:
            raise UsageError("eval over a structure needs --sig")
        sig = _get_sig(args)
        a = parse_formula(args.formula, sig)
        m = parse_structure(_read(args.structure), sig)
        size = len(m.domain)
        _, items = _grounding(_compile([a], sig)[-1], size, size,
                              MAX_EVAL_ITEMS)
        if items > MAX_EVAL_ITEMS:
            raise UsageError(
                "over %d elements the formula grounds to at least %s "
                "items, more than %d" % (size, _count(items), MAX_EVAL_ITEMS))
        v = evaluate(a, m)
        _emit(args, "value: %s" % _vname(v), "value=%s" % _vname(v))
        return 0 if designated(v) else 1
    sig = _get_sig(args, args.formula)
    a = parse_formula(args.formula, sig)
    if args.val:
        v = evaluate_prop(a, _parse_assignment(args.val))
        _emit(args, "value: %s" % _vname(v), "value=%s" % _vname(v))
        return 0 if designated(v) else 1
    atoms = sorted(sig.propositions)
    if len(atoms) > 3:
        raise UsageError("table over %d atoms; give --val instead" % len(atoms))
    for val in valuations(atoms):
        cells = " ".join("%s=%s" % (x, _vname(val[x])) for x in atoms)
        v = _vname(evaluate_prop(a, dict(val)))
        _emit(args, "%s : %s" % (cells, v) if cells else v,
              ("%s value=%s" % (cells, v)).strip())
    return 0


def _cmd_consequence(args) -> int:
    """entails and countermodel (``args.verb``): one decision, printed as
    the verb asks; each exits 0 when it finds what it asks for."""
    entails = args.verb == "entails"
    sig = _get_sig(args, args.gamma, args.delta)
    gamma = parse_formula_list(args.gamma, sig)
    delta = parse_formula_list(args.delta, sig)
    found = lines = bound = ""
    if args.sig:
        res = consequence_fo(gamma, delta, sig, max_domain=args.max_domain,
                             mode="partial" if args.partial else "total")
        holds, bound = res.holds, " up to domain %d" % args.max_domain
        if not holds:
            found = "%s\nassignment: %s" % (
                print_structure(res.structure).rstrip(),
                _render_assignment(res.assignment) or "-")
    else:
        holds, witness = consequence_prop(gamma, delta)
        if not holds:
            w = print_valuation(witness)
            found = "%s: %s" % ("witness" if entails else "countermodel", w)
            lines = " witness=" + w
    if holds:
        human = "no countermodel" + bound
        if entails:
            human = "entails: yes" + (" (%s)" % human if bound else "")
    else:
        human = ("entails: no\n" if entails else "") + found
    _emit(args, human, "%s=%s%s" % (args.verb, str(holds == entails).lower(),
                                    lines))
    return int(holds != entails)


def _cmd_equiv(args) -> int:
    sig = _get_sig(args, args.left, args.right)
    a = parse_formula(args.left, sig)
    b = parse_formula(args.right, sig)
    same, witness = equivalent_prop(a, b)
    if same:
        _emit(args, "equivalent: yes", "equivalent=true")
        return 0
    w = print_valuation(witness)
    _emit(args, "equivalent: no\nwitness: %s" % w,
          "equivalent=false witness=%s" % w)
    return 1


def _cmd_laws(args) -> int:
    if args.action == "check":
        report = check_all_laws(BD_MATRIX)
        bad = 0
        for law in ALL_LAWS:
            ok, witness = report[law]
            bad += not ok
            w = "" if witness is None else print_valuation(witness)
            _emit(args, "law %2d %s %s%s" % (
                law, "holds " if ok else "FAILS ", LAW_TEXT[law],
                "" if ok else "  witness " + w),
                "law=%d holds=%s witness=%s" % (law, str(ok).lower(), w))
        return 0 if not bad else 1

    dropped = () if args.action == "uniqueness" else (args.law,)
    rep = uniqueness_search(dropped=dropped)
    for fam in ("neg", "conj", "disj", "impl", "forall", "exists", "falsum"):
        _emit(args, "candidates %-7s %d" % (fam, rep.candidate_counts[fam]),
              "candidates_%s=%d" % (fam, rep.candidate_counts[fam]))
    _emit(args, "survivors: %d" % rep.survivor_count,
          "survivors=%d" % rep.survivor_count)
    if rep.survivors is not None and rep.survivor_count > 1:
        k = len(rep.survivors_modulo_impl())
        _emit(args, "distinct outside implication: %d" % k,
              "survivors_modulo_impl=%d" % k)
    return 0 if rep.survivor_count == 1 else 1


def _table_str(fn) -> str:
    return "".join(_vname(v) for v in fn.table)


def _cmd_define(args) -> int:
    if args.action == "verify":
        all_ok = True
        for name in ("Des", "Cons", "Det", "Norm"):
            target = extra_function(name)
            ok = verify_definition(DEFINITIONS[name], target)
            all_ok &= ok
            _emit(args, "%-4s %s  := %s  [%s]" % (
                name, _table_str(target),
                print_formula(DEFINITIONS[name].formula),
                "ok" if ok else "MISMATCH"),
                "name=%s table=%s ok=%s" % (name, _table_str(target),
                                            str(ok).lower()))
        return 0 if all_ok else 1
    if args.action == "criterion":
        g = extra_function(args.name)
        ok = is_definable_criterion(g)
        _emit(args, "%s %s  criterion: %s" % (
            args.name, _table_str(g), "satisfied" if ok else "violated"),
            "name=%s table=%s criterion=%s" % (args.name, _table_str(g),
                                               str(ok).lower()))
        return 0 if ok else 1
    if args.action == "clone":
        if args.arity < 0:
            raise UsageError("--arity must not be negative")
        clone = clone_closure(BD_BASE, args.arity)
        _emit(args, "clone size at arity %d: %d" % (args.arity, len(clone)),
              "arity=%d size=%d" % (args.arity, len(clone)))
        for i, g in enumerate(sorted(clone, key=lambda g: g.table)):
            _emit(args, "  %s" % _table_str(g),
                  "fn=%d table=%s" % (i, _table_str(g)))
        return 0
    # synth
    if args.depth < 0:
        raise UsageError("--depth must not be negative")
    target = extra_function(args.name)
    d = find_definition(target, depth=args.depth)
    if d is None:
        _emit(args, "no defining formula up to %d connectives" % args.depth,
              "found=false depth=%d" % args.depth)
        return 1
    _emit(args, "%s := %s" % (args.name, print_formula(d.formula)),
          "found=true formula=%s" % print_formula(d.formula))
    return 0


def _quoted_segments(text: str):
    for line in text.splitlines():
        yield from re.findall(r'"([^"]*)"', line)
        if "|-" in line:
            yield line.split("|-", 1)[1].replace("=>", " ")


def _cmd_check(args) -> int:
    text = _read(args.file)
    if args.sig:
        sig = _get_sig(args)
    else:
        sig = prop_signature(*_infer_atoms(*_quoted_segments(text)))
    d = parse_derivation(text, sig)
    good, violation = check_derivation(d)
    if good:
        _emit(args, "ok: %d steps, target %s" % (len(d.steps), d.target),
              "ok=true steps=%d" % len(d.steps))
        return 0
    _emit(args, "REJECTED %s" % violation,
          "ok=false step=%d code=%s" % (violation.step, violation.code))
    return 1


def _cmd_prove(args) -> int:
    sig = _get_sig(args, args.sequent)
    s = parse_sequent(args.sequent, sig)
    if args.max_nodes <= 0:
        raise UsageError("--max-nodes must be positive")
    result = prove_prop(s, SearchBudget(args.max_nodes, args.packs))
    if result.status == "exhausted":
        raise UsageError("search budget exhausted; raise --max-nodes")
    if result.proved:
        text = print_derivation(result.proof)
        if args.emit:
            with open(args.emit, "w") as fh:
                fh.write(text)
        _emit(args, "proved (%d steps)\n%s" % (len(result.proof.steps),
                                               text.rstrip()),
              "proved=true steps=%d" % len(result.proof.steps))
        return 0
    w = print_valuation(result.countermodel)
    _emit(args, "refuted\ncountermodel: %s" % w,
          "proved=false countermodel=%s" % w)
    return 1


def _cmd_simulate(args) -> int:
    sig = _get_sig(args, args.gamma, args.delta)
    gamma = parse_formula_list(args.gamma, sig)
    delta = parse_formula_list(args.delta, sig)
    check = verify_simulation(gamma, delta, args.mode)
    guards = sorted(print_formula(g)
                    for g in translation_sets(gamma, delta, args.mode))
    for g in guards:
        _emit(args, "guard: %s" % g, "guard=%s" % g)
    _emit(args, "%s consequence: %s"
          % (args.mode, "holds" if check.restricted else "fails"),
          "restricted=%s" % str(check.restricted).lower())
    _emit(args, "translated base consequence: %s"
          % ("holds" if check.translated else "fails"),
          "translated=%s" % str(check.translated).lower())
    if check.ok:
        _emit(args, "simulation: agrees", "ok=true")
        return 0
    _emit(args, "simulation: DISAGREES witness %s"
          % print_valuation(check.witness),
          "ok=false witness=%s" % print_valuation(check.witness))
    return 1


def _cmd_report(args) -> int:
    nominal = SuiteConfig()
    for dest in ("rule_instances", "random_instances", "max_nodes"):
        bound = MAX_COUNT_FACTOR * getattr(nominal, dest)
        if not 1 <= getattr(args, dest) <= bound:
            raise UsageError("--%s must be from 1 to %d"
                             % (dest.replace("_", "-"), bound))
    config = SuiteConfig(
        seed=args.seed, dropped_laws=tuple(args.drop_law or ()),
        rule_instances=args.rule_instances,
        random_instances=args.random_instances, max_nodes=args.max_nodes)
    results = report_all(config)
    text = render_report(results, args.format)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------
# argument wiring

def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="bd4",
        description="four-valued first-order logic toolkit")
    top.add_argument("--seed", type=int,
                     default=os.environ.get("BD4_SEED", "0"),
                     help="seed for randomized suites (env BD4_SEED)")
    top.add_argument("--format", choices=("human", "lines"), default="human")
    sub = top.add_subparsers(dest="verb", required=True)

    def add_sig(p, atoms=True):
        p.add_argument("--sig", help="signature file")
        if atoms:
            p.add_argument("--atoms",
                           help="space-separated proposition symbols")

    p = sub.add_parser("eval", help="evaluate a formula")
    p.add_argument("formula")
    p.add_argument("--val", help="assignment like 'p=b,q=n'")
    p.add_argument("--structure", help="structure file (needs --sig)")
    add_sig(p)
    p.set_defaults(fn=_cmd_eval)

    for name in ("entails", "countermodel"):
        p = sub.add_parser(name)
        p.add_argument("gamma", help="comma-separated premises ('' for none)")
        p.add_argument("delta", help="comma-separated conclusions")
        add_sig(p)
        p.add_argument("--max-domain", type=int, default=3)
        p.add_argument("--partial", action="store_true",
                       help="partial structures (first-order only)")
        p.set_defaults(fn=_cmd_consequence)

    p = sub.add_parser("equiv", help="propositional equivalence")
    p.add_argument("left")
    p.add_argument("right")
    add_sig(p)
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("laws", help="the fifteen laws and the uniqueness sweep")
    p.add_argument("action", choices=("check", "uniqueness", "drop"))
    p.add_argument("law", nargs="?", type=int,
                   help="law number for 'drop'")
    p.set_defaults(fn=_cmd_laws)

    p = sub.add_parser("define", help="definability of the extra connectives")
    p.add_argument("action", choices=("verify", "criterion", "clone", "synth"))
    p.add_argument("name", nargs="?",
                   help="connective name for criterion/synth")
    p.add_argument("--arity", type=int, default=1)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(fn=_cmd_define)

    p = sub.add_parser("check", help="check a derivation file")
    p.add_argument("file")
    add_sig(p, atoms=False)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("prove", help="prove or refute a propositional sequent")
    p.add_argument("sequent", help="like 'p & q => q; r'")
    p.add_argument("--packs", choices=MODES, default="base")
    p.add_argument("--max-nodes", type=int, default=100_000)
    p.add_argument("--emit", help="write the found derivation to a file")
    add_sig(p)
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("simulate", help="check one extension simulation")
    p.add_argument("gamma")
    p.add_argument("delta")
    p.add_argument("--mode", choices=EXTENSION_MODES, required=True)
    add_sig(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("report", help="run the reproduction suites")
    p.add_argument("--drop-law", type=int, action="append",
                   help="drop a law from the uniqueness sweep (repeatable)")
    p.add_argument("--rule-instances", type=int, default=1000)
    p.add_argument("--random-instances", type=int, default=10_000)
    p.add_argument("--max-nodes", type=int, default=100_000)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(fn=_cmd_report)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verb == "laws" and args.action == "drop":
        if args.law is None or not 1 <= args.law <= 15:
            parser.error("laws drop needs a law number from 1 to 15")
    if args.verb == "report" and any(
            not 1 <= law <= 15 for law in args.drop_law or ()):
        parser.error("report --drop-law needs a law number from 1 to 15")
    if args.verb == "define" and args.action in ("criterion", "synth"):
        if not args.name:
            parser.error("define %s needs a connective name" % args.action)
    try:
        return args.fn(args)
    except (UsageError, ParseError, ProofIOError, SyntaxBuildError,
            DefinabilityError, SemanticsError, OSError) as exc:
        print(_clipped("error: %s" % exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
