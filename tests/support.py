"""Helpers shared by the test modules."""

from bd4.kernel import Derivation, _match, is_proof
from bd4.syntax import Var


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
    """A step's additions as the kernel and the soundness sampler each
    chose them before ``Rule.additions`` took the step: kept on the
    principal, the constant of F-L and notF-R, or bound and filled."""
    if rule.kept_as:
        a = step.principal
        premises = rule._kept_premise_additions(a)
        if premises is None:
            return None
        ant, suc = rule.conclusion
        return [((a,) * len(ant), (a,) * len(suc)), *premises]
    if rule.constant:
        return rule.constant
    env = reference_bind(rule, step)
    return None if env is None else rule.filled(env)
