"""Helpers shared by the test modules."""

from bd4.kernel import Derivation, is_proof


def derives(gamma, delta, d: Derivation) -> bool:
    """Does the derivation establish that delta follows from gamma?

    True when d is a proof whose target antecedent is a subset of gamma
    and target succedent a subset of delta.
    """
    if not d.steps or not is_proof(d):
        return False
    target = d.target
    return target.ant <= frozenset(gamma) and target.suc <= frozenset(delta)
