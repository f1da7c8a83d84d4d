"""The bundled derivation corpus and its mutation battery.

The corpus files under ``corpus/`` are curated machine-checkable
derivations that between them use every inference rule at least once.
The mutation table takes specific corpus entries and applies one
localized corruption each; every mutant must be rejected by the kernel
with the exact violation code recorded here.  Tests and the acceptance
report both read from this module so they cannot drift apart.
"""

from __future__ import annotations

from pathlib import Path

from .kernel import Code, Derivation
from .proofio import load_derivation, parse_signature
from .syntax import And, Eq, Exists, Fun, Or, Pred, Prop, Sequent, Var, replace

CORPUS_DIR = Path(__file__).parent / "corpus"


def corpus_signature():
    return parse_signature((CORPUS_DIR / "corpus.sig").read_text())


def load_corpus() -> dict:
    """All corpus derivations by file stem, parsed against the shared signature."""
    sig = corpus_signature()
    out = {}
    for path in sorted(CORPUS_DIR.glob("*.drv")):
        out[path.stem] = load_derivation(str(path), sig)
    return out


def edit_step(d: Derivation, i: int, **changes) -> Derivation:
    steps = list(d.steps)
    steps[i] = replace(steps[i], **changes)
    return replace(d, steps=tuple(steps))


p, q, r = Prop("p"), Prop("q"), Prop("r")
c, d_ = Fun("c"), Fun("d")
x = Var("x")


def mutations() -> list:
    """(label, corpus name, mutant derivation builder, expected code) rows.

    Each builder takes the pristine derivation and changes exactly one
    thing: one field of one step, or one header (packs, hypotheses).
    """
    rows = [
        # bookkeeping
        ("unknown rule name", "conj_commute",
         lambda d: edit_step(d, 1, rule="weaken"), Code.UNKNOWN_RULE),
        ("premise cites itself", "conj_commute",
         lambda d: edit_step(d, 1, premises=(1,)), Code.BAD_PREMISE_INDEX),
        ("premise cites later step", "conj_commute",
         lambda d: edit_step(d, 1, premises=(4,)), Code.BAD_PREMISE_INDEX),
        ("premise count wrong", "conj_commute",
         lambda d: edit_step(d, 4, premises=(1,)), Code.BAD_PREMISE_INDEX),
        ("required field dropped", "conj_commute",
         lambda d: edit_step(d, 1, principal=None), Code.MISSING_FIELD),
        ("instantiation term dropped", "universal_instantiation",
         lambda d: edit_step(d, 1, t=None), Code.MISSING_FIELD),

        # wrong premise
        ("both premises the same", "conj_commute",
         lambda d: edit_step(d, 4, premises=(1, 1)), Code.PREMISE_MISMATCH),
        ("premises swapped", "modus_ponens",
         lambda d: edit_step(d, 2, premises=(1, 0)), Code.PREMISE_MISMATCH),
        ("instantiated with the wrong term", "universal_instantiation",
         lambda d: edit_step(d, 1, t=d_), Code.PREMISE_MISMATCH),
        ("wrong instantiation variable", "neg_universal",
         lambda d: edit_step(d, 2, y="z"), Code.PREMISE_MISMATCH),
        ("reflexivity premise names other term", "equality_replacement",
         lambda d: edit_step(d, 3, t=c), Code.PREMISE_MISMATCH),
        ("denotation premise reused", "den_right",
         lambda d: edit_step(d, 4, premises=(1, 1)), Code.PREMISE_MISMATCH),
        ("cut formula absent from premises", "cut_hypothesis",
         lambda d: edit_step(d, 2, principal=r), Code.PREMISE_MISMATCH),

        # set mismatch between conclusion and premises
        ("stray formula added to a premise", "modus_ponens",
         lambda d: edit_step(d, 1, sequent=Sequent.of([p, q, r], [q])),
         Code.PREMISE_MISMATCH),
        ("context formula dropped from conclusion", "equality_replacement",
         lambda d: edit_step(d, 3, sequent=Sequent.of([Eq(c, d_)],
                                                       [Pred("P", (d_,))])),
         Code.PREMISE_MISMATCH),
        ("conclusion lacks the introduced conjunction", "conj_commute",
         lambda d: edit_step(d, 4,
                             sequent=Sequent.of([And(p, q)], [Or(q, p)])),
         Code.CONCLUSION_MISMATCH),
        ("identity atom missing on the left", "conj_commute",
         lambda d: edit_step(d, 0, sequent=Sequent.of([p], [q]), principal=q),
         Code.CONCLUSION_MISMATCH),
        ("falsity axiom without falsity", "falsity_left",
         lambda d: edit_step(d, 0, sequent=Sequent.of([p], [p])),
         Code.CONCLUSION_MISMATCH),
        ("truth axiom without its literal", "truth_right",
         lambda d: edit_step(d, 0, sequent=Sequent.of([], [p])),
         Code.CONCLUSION_MISMATCH),
        ("negation literal removed from conclusion", "k3_explosion",
         lambda d: edit_step(d, 1, sequent=Sequent.of([p], [q])),
         Code.CONCLUSION_MISMATCH),
        ("witnessed formula missing on the right", "existential_witness",
         lambda d: edit_step(d, 1, sequent=Sequent.of([Pred("P", (c,))],
                                                       [Pred("P", (c,))])),
         Code.CONCLUSION_MISMATCH),
        ("equation renamed out of the conclusion", "equality_replacement",
         lambda d: edit_step(d, 1, t2=d_), Code.CONCLUSION_MISMATCH),
        ("denotation disjunction over wrong terms", "den_left",
         lambda d: edit_step(d, 1, t2=c), Code.CONCLUSION_MISMATCH),
        ("cut conclusion not the premise combination", "cut_hypothesis",
         lambda d: edit_step(d, 2, sequent=Sequent.of([p], [q])),
         Code.CONCLUSION_MISMATCH),

        # broken restrictions
        ("identity on a compound formula", "conj_commute",
         lambda d: edit_step(d, 0, principal=And(p, q)), Code.LITERAL_REQUIRED),
        ("replacement inside a compound formula", "equality_replacement",
         lambda d: edit_step(d, 1, principal=And(Pred("P", (x,)), Pred("P", (x,)))),
         Code.LITERAL_REQUIRED),
        ("conjunction rule fed a disjunction", "conj_commute",
         lambda d: edit_step(d, 1, principal=Or(p, q)), Code.PRINCIPAL_SHAPE),
        ("quantifier rule fed the dual quantifier", "universal_instantiation",
         lambda d: edit_step(d, 1, principal=Exists("x", Pred("P", (x,)))),
         Code.PRINCIPAL_SHAPE),
        ("pack rule fed an unnegated formula", "lp_excluded_middle",
         lambda d: edit_step(d, 1, principal=p), Code.PRINCIPAL_SHAPE),

        # bad eigenvariable
        ("eigenvariable occurs in the quantified formula", "quantifier_swap",
         lambda d: edit_step(d, 3, y="w"), Code.EIGENVARIABLE),

        # packs and hypotheses
        ("pack rule with packs stripped", "lp_excluded_middle",
         lambda d: replace(d, packs=frozenset()),
         Code.PACK_DISABLED),
        ("pack rule under the wrong pack", "lp_excluded_middle",
         lambda d: replace(d, packs=frozenset({"den"})),
         Code.PACK_DISABLED),
        ("denotation rules without their pack", "den_left",
         lambda d: replace(d, packs=frozenset({"notLR"})),
         Code.PACK_DISABLED),
        ("hypothesis declaration removed", "cut_hypothesis",
         lambda d: replace(d, hypotheses=()),
         Code.HYPOTHESIS_NOT_DECLARED),
        ("hypothesis step citing premises", "cut_hypothesis",
         lambda d: edit_step(d, 0, premises=(0,)), Code.BAD_PREMISE_INDEX),
    ]
    return rows
