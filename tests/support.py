"""Helpers shared by the test modules, and the names of the package that
only tests read: the kernel's rule partition and one-step check, a term's
substitution and consequence in a candidate matrix."""

import sys
from pathlib import Path

from bd4.kernel import (
    RULES, Derivation, Violation, _CHECKS, _check_other, _Letter, is_proof,
)
from bd4.matrixlab import Matrix4
from bd4.semantics import _counter, scan_valuations
from bd4.syntax import (
    And, Falsity, Imp, Not, Or, Sequent, Term, Var, _rebind, substitute,
)

BASE_RULES = tuple(r for r, row in RULES.items() if row.pack is None)
PACK_RULES = tuple(r for r, row in RULES.items() if row.pack is not None)


def check_step(d: Derivation, i: int) -> Violation | None:
    step = d.steps[i]
    return _CHECKS.get(step.rule, _check_other)(d, i, step)


def substitute_term(t: Term, x: str, s: Term) -> Term:
    return _rebind(t, {x: s})


def consequence_in(m: Matrix4, gamma, delta):
    """Propositional consequence computed with the matrix's tables.

    Used to exhibit behavioral differences between law-satisfying
    matrices.  The compiled formulas run with the matrix's tables in
    place of falsity and the four connectives.  Returns (True, None) or
    (False, the first countervaluation in ``valuations`` order); raises
    ValueError on an extra connective, which has no table here.
    """
    gamma, delta = list(gamma), list(delta)
    tables = {Falsity: (m.falsum,), Not: m.neg, And: m.conj, Or: m.disj,
              Imp: m.impl}
    counter = _counter(len(gamma))

    def marked(code, env, full):
        if any(op.__class__ is tuple for op in code):
            raise ValueError("an extra connective has no table in the "
                             "matrix")
        return counter([tables.get(op, op) for op in code], env, full)

    witness = scan_valuations(gamma + delta, marked)
    return witness is None, witness


def bench_workloads():
    """The benchmark's query streams, operations and checks, read from
    ``bench/workloads.py``."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads


def _match(pattern, a, env) -> bool:
    """Bind the letters of a pattern (each occurs once) to parts of a, by
    a walk of the pattern: the kernel's matcher before each row compiled
    its own (``Rule.match``)."""
    if isinstance(pattern, _Letter):
        env[pattern.name] = a
        return True
    return type(a) is type(pattern) and all(
        _match(getattr(pattern, f), getattr(a, f), env)
        for f in pattern.__match_args__)


def derives(gamma, delta, d: Derivation) -> bool:
    """Does the derivation establish that delta follows from gamma?

    True when d is a proof whose target antecedent is a subset of gamma
    and target succedent a subset of delta.
    """
    if not d.steps or not is_proof(d):
        return False
    target = d.target
    return target.ant <= frozenset(gamma) and target.suc <= frozenset(delta)


def reference_bind(rule, step):
    """The step's letter bindings as ``Rule.bind`` gave them before the
    kernel read a rule through ``Rule.additions(step)``; None when the
    principal does not have the pattern."""
    env = {"principal": step.principal, "t": step.t, "t2": step.t2,
           "x": step.x, "y": None if step.y is None else Var(step.y)}
    if rule.pattern is None or _match(rule.pattern, step.principal, env):
        return env
    return None


def reference_additions(rule, step):
    """A step's additions read off the row alone: the step's letters
    bound (``reference_bind``) and every template filled, the conclusion's
    then each premise's; None when the principal lacks the pattern."""
    env = reference_bind(rule, step)
    return None if env is None else rule.filled(env)


def instance(adds, gamma=frozenset(), delta=frozenset()):
    """(premises, conclusion) over the context gamma => delta, given a
    rule's additions (``Rule.additions``)."""
    (ca, cs), *padds = adds
    return (tuple([Sequent(gamma.union(pa), delta.union(ps))
                   for pa, ps in padds]),
            Sequent(gamma.union(ca), delta.union(cs)))


def reference_fill(template, env):
    """What a template stands for under the letter bindings env, by a
    walk of the template: a letter's binding, A[x := term] for a letter
    with a term, else the node built again from its fields filled."""
    if isinstance(template, _Letter):
        value = env[template.name]
        if template.term is None:
            return value
        return substitute(value, env["x"], env[template.term])
    cls = type(template)
    return cls(*[reference_fill(getattr(template, f), env)
                 for f in cls.__match_args__])


def reference_backward(rule, s, a):
    """The premises above s when a rule that needs the principal alone
    introduces a, read off the row: its letters bound by ``_match``,
    each premise's additions filled from the row's templates and joined
    to s less a on the principal's side (the succedent for Id); None
    when a does not have the pattern."""
    env = {"principal": a}
    if not _match(rule.pattern, a, env):
        return None
    gamma, delta = s.ant, s.suc
    if rule.side == "ant":
        gamma = gamma - {a}
    else:
        delta = delta - {a}
    return tuple(Sequent(gamma | {reference_fill(f, env) for f in pa},
                         delta | {reference_fill(f, env) for f in ps})
                 for pa, ps in rule.premises)


def reference_sequent(s) -> str:
    """A sequent's printed form as ``Sequent.__str__`` gave it before
    the side printer was shared: each side's formulas printed, sorted
    and joined, per call."""
    left = "; ".join(sorted((str(a) for a in s.ant)))
    right = "; ".join(sorted((str(a) for a in s.suc)))
    return "|- %s => %s" % (left, right)


def reference_print_derivation(d: Derivation) -> str:
    """``proofio.print_derivation`` before it printed each side once per
    derivation: every step's sequent printed whole."""
    out = ["packs: %s" % (" ".join(sorted(d.packs)) if d.packs else "base")]
    for h in d.hypotheses:
        out.append("hypothesis: %s" % reference_sequent(h))
    for i, st in enumerate(d.steps):
        parts = ["%d: %s" % (i, st.rule)]
        if st.premises:
            parts.append("premises=[%s]" % ", ".join(str(k) for k in st.premises))
        if st.principal is not None:
            parts.append('principal="%s"' % str(st.principal))
        if st.t is not None:
            parts.append('t="%s"' % str(st.t))
        if st.t2 is not None:
            parts.append('t2="%s"' % str(st.t2))
        if st.y is not None:
            parts.append('y="%s"' % st.y)
        if st.x is not None:
            parts.append('x="%s"' % st.x)
        parts.append(reference_sequent(st.sequent))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"
