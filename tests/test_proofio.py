"""Text formats: signatures, structures, derivation files."""

import ast
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bd4.kernel import (
    PACKS, RULES, Derivation, DerivationStep, check_derivation,
)
from bd4.proofio import (
    ProofIOError, parse_derivation, parse_signature, parse_structure,
    print_derivation, print_sequent, print_structure, print_valuation,
)
from bd4.semantics import Structure, evaluate
from bd4.syntax import (
    _RESERVED, EXTRA_CONNECTIVES, And, Eq, Falsity, Forall, Fun, Not, Or,
    Pred, Prop, Sequent, Signature, Var,
)
from bd4.values import B, F, N, T, VALUES
from support import reference_print_derivation, reference_sequent
from test_syntax import SIG, _FORMULA, _TERM

SIG_TEXT = """\
# toy signature
const c
func f/1
pred P/1
prop p
prop q
conn Des
"""


def print_signature(sig: Signature) -> str:
    """The canonical signature file, which ``parse_signature`` reads back;
    only the round-trip tests print signatures."""
    out = []
    for name, arity in sig.functions:
        out.append("const %s" % name if arity == 0
                   else "func %s/%d" % (name, arity))
    for name, arity in sig.predicates:
        out.append("prop %s" % name if arity == 0
                   else "pred %s/%d" % (name, arity))
    for name in sorted(sig.extras):
        out.append("conn %s" % name)
    return "\n".join(out) + "\n"


def test_signature_round_trip():
    sig = parse_signature(SIG_TEXT)
    assert ("c", 0) in sig.functions and ("f", 1) in sig.functions
    assert ("P", 1) in sig.predicates and ("p", 0) in sig.predicates
    assert "Des" in sig.extras
    printed = print_signature(sig)
    assert parse_signature(printed) == sig
    # canonical print is a fixpoint
    assert print_signature(parse_signature(printed)) == printed


def test_signature_errors():
    with pytest.raises(ProofIOError):
        parse_signature("func f/one\n")
    with pytest.raises(ProofIOError):
        parse_signature("blorp c\n")
    with pytest.raises(ProofIOError):
        parse_signature("conn Zap\n")


STRUCT_TEXT = """\
domain d1 d2
const c = d1
func f d1 -> d2
func f d2 -> d2
pred P d1 = B
pred P d2 = T
pred p = N
pred q = F
eq d1 d2 = F
"""


def test_structure_round_trip():
    sig = parse_signature(SIG_TEXT)
    s = parse_structure(STRUCT_TEXT, sig)
    assert s.domain == ("d1", "d2")
    assert s.consts["c"] == "d1"
    assert s.funcs["f"][("d1",)] == "d2"
    assert s.preds["P"][("d1",)] == B
    assert s.props["p"] == N
    assert s.eq[("d1", "d1")] == T  # diagonal defaulted
    assert s.eq[("d1", "d2")] == F
    printed = print_structure(s)
    assert print_structure(parse_structure(printed, sig)) == printed


def test_a_valuation_prints_its_atoms_sorted():
    assert print_valuation({"q": N, "p_2": B, "p": T, "r": F}) == (
        "p=t,p_2=b,q=n,r=f")
    assert print_valuation({}) == ""


def test_structure_drives_evaluation():
    sig = parse_signature(SIG_TEXT)
    s = parse_structure(STRUCT_TEXT, sig)
    x = Var("x")
    assert evaluate(Forall("x", Pred("P", (x,))), s, {}) == B
    assert evaluate(Eq(Fun("c"), Fun("c")), s, {}) == T


def test_partial_structure_text():
    sig = parse_signature("const c\npred P/1\n")
    s = parse_structure(
        "domain d1 d2\nbottom d2\nconst c = d1\n"
        "pred P d1 = T\npred P d2 = N\n", sig)
    assert s.bottom == "d2"
    assert s.eq[("d1", "d2")] == N  # bottom forces N on its row and column
    assert s.eq[("d2", "d2")] == N
    assert "bottom d2" in print_structure(s)
    # interpretations must be total, bottom rows included
    with pytest.raises(ProofIOError):
        parse_structure(
            "domain d1 d2\nbottom d2\nconst c = d1\npred P d1 = T\n", sig)


def test_structure_errors():
    sig = parse_signature(SIG_TEXT)
    with pytest.raises(ProofIOError):
        parse_structure("const c = d1\ndomain d1\n", sig)  # domain not first
    with pytest.raises(ProofIOError):
        parse_structure("domain d1\nconst c = d9\n", sig)
    with pytest.raises(ProofIOError):
        parse_structure("domain d1\npred P d1 = X\n", sig)


DERIV_TEXT = """\
packs: base
# identity under a conjunction
0: Id principal="p" |- p ; q => p
1: and-L premises=[0] principal="p & q" |- p & q => p
"""


def test_derivation_round_trip_and_check():
    sig = parse_signature(SIG_TEXT)
    d = parse_derivation(DERIV_TEXT, sig)
    assert len(d.steps) == 2
    assert d.packs == frozenset()
    good, v = check_derivation(d)
    assert good, v
    printed = print_derivation(d)
    assert printed.startswith("packs: base\n")
    assert parse_derivation(printed, sig) == d
    assert print_derivation(parse_derivation(printed, sig)) == printed


def test_derivation_with_packs_and_hypothesis():
    sig = parse_signature(SIG_TEXT)
    text = (
        "packs: notLR\n"
        "hypothesis: |- p => \n"
        "0: hypothesis |- p =>\n"
    )
    d = parse_derivation(text, sig)
    assert d.packs == frozenset({"notLR"})
    assert d.hypotheses == (Sequent.of([Prop("p")], []),)
    good, v = check_derivation(d)
    assert good, v


def test_derivation_term_fields_round_trip():
    sig = parse_signature(SIG_TEXT)
    c = Fun("c")
    steps = (
        DerivationStep("Id", Sequent.of([Eq(c, c)], [Eq(c, c)]),
                       principal=Eq(c, c)),
        DerivationStep("eq-Refl", Sequent.of([], [Eq(c, c)]),
                       premises=(0,), t=c),
    )
    d = Derivation(steps)
    printed = print_derivation(d)
    assert 't="c"' in printed
    assert parse_derivation(printed, sig) == d


def test_derivation_errors():
    sig = parse_signature(SIG_TEXT)
    with pytest.raises(ProofIOError):
        parse_derivation("packs: base\n1: Id principal=\"p\" |- p => p\n",
                         sig)  # indices must start at 0
    with pytest.raises(ProofIOError):
        parse_derivation("packs: base\n0: Zap |- p => p\n", sig)
    with pytest.raises(ProofIOError):
        parse_derivation("packs: zap\n0: Id principal=\"p\" |- p => p\n",
                         sig)
    with pytest.raises(ProofIOError):
        parse_derivation("packs: base\n0: Id principal=\"p\" p => p\n", sig)


# each place that quotes input, with a bad input for it and its message
QUOTED = [
    ("signature", "blorp {}", "line 1: unrecognized declaration 'blorp x'"),
    ("signature", "func f/{}", "line 1: bad arity in 'func f/x'"),
    ("structure", "domain d1\npred P d1 = {}",
     "line 2: bad truth value 'x'"),
    ("structure", "domain d1\nconst c = {}", "line 2: unknown element 'x'"),
    ("structure", "domain d1\nconst {} = d1",
     "line 2: 'x' is not a declared constant"),
    ("structure", "domain d1\nfunc {} d1 -> d1",
     "line 2: arity mismatch for function 'x'"),
    ("structure", "domain d1\npred {} d1 = T",
     "line 2: arity mismatch for predicate 'x'"),
    ("structure", "domain d1\nzap {}",
     "line 2: unrecognized structure line 'zap x'"),
    ("derivation", "packs: {}", "line 1: unknown pack 'x'"),
    ("derivation", "0: Id {}", "line 1: unrecognized step line '0: Id x'"),
    ("derivation", "0: {} |- p => p", "line 1: unknown rule 'x'"),
]


def _error(kind, text):
    sig = parse_signature("const c\nfunc f/1\npred P/1\nprop p\n")
    with pytest.raises(ProofIOError) as err:
        if kind == "signature":
            parse_signature(text)
        elif kind == "structure":
            parse_structure(text, sig)
        else:
            parse_derivation(text, sig)
    return str(err.value)


@pytest.mark.parametrize("kind, text, message", QUOTED)
def test_a_short_bad_input_is_quoted_whole(kind, text, message):
    assert _error(kind, text.format("x")) == message


def test_a_quote_is_clipped_past_60_characters():
    assert _error("derivation", "packs: " + "x" * 60) == (
        "line 1: unknown pack %r" % ("x" * 60))
    assert _error("derivation", "packs: " + "x" * 61) == (
        "line 1: unknown pack %r [clipped]" % ("x" * 60))


@pytest.mark.parametrize("kind, text, message", QUOTED)
def test_a_long_bad_input_is_quoted_clipped(kind, text, message):
    """A 2,000,000-character token is quoted by its first 60 characters
    and a marker, where the whole line was quoted before."""
    got = _error(kind, text.format("x" * 2_000_000))
    head = message[:message.index("'")]
    tail = " [clipped]" + message[message.rindex("'") + 1:]
    assert got.startswith(head) and got.endswith(tail)
    quoted = ast.literal_eval(got[len(head):-len(tail)])
    assert len(quoted) == 60
    assert quoted in text.format("x" * 2_000_000)
    assert len(got) < 130


def test_a_long_unknown_symbol_in_a_derivation_is_quoted_clipped():
    """A principal that names a 1,000,000-character unknown symbol: the
    file's error carries the parser's message, which quotes it clipped."""
    long = "x" * 1_000_000
    got = _error("derivation", '0: Id principal="%s" |- p => p' % long)
    assert got == ("line 1: unknown symbol %r [clipped] (at position 0)"
                   % long[:60])


def test_print_sequent_shape():
    s = Sequent.of([Prop("p"), And(Prop("p"), Prop("q"))], [Falsity()])
    assert print_sequent(s) == "|- p; p & q => F"
    assert print_sequent(Sequent.of([], [])) == "|-  => "


def _unprinted(tag):
    """A formula over fresh atoms, so neither it nor its parts have been
    printed yet."""
    a = And(Prop("fresh_%s_p" % tag),
            Not(Or(Prop("fresh_%s_q" % tag), Falsity())))
    assert a._text is a.left._text is a.right._text is None
    return a


def _hand_built(tag):
    """A derivation with every field of the file format: a side object
    shared by two steps and the hypotheses, empty sides, t, t2, x, y."""
    a, c = _unprinted(tag), Fun("c")
    shared, none = frozenset([a, Prop("p")]), frozenset()
    return Derivation((
        DerivationStep("hypothesis", Sequent(shared, none)),
        DerivationStep("and-L", Sequent(shared, frozenset([Prop("q")])),
                       premises=(0,), principal=a),
        DerivationStep("eq-Repl", Sequent(none, none), premises=(0, 1),
                       principal=Pred("P", (Var("x"),)), t=c,
                       t2=Fun("f", (c,)), x="x", y="y"),
    ), frozenset(PACKS), (Sequent(shared, none), Sequent(none, shared)))


def test_a_derivation_prints_as_with_each_sequent_printed_whole():
    """Each side printed once per derivation gives the bytes of each
    step's sequent printed whole, whichever printer meets the fresh
    formulas first."""
    d = _hand_built("printer")
    assert d.steps[0].sequent.ant is d.steps[1].sequent.ant
    got = print_derivation(d)
    assert got == reference_print_derivation(d)
    assert got.splitlines()[-1] == (
        '2: eq-Repl premises=[0, 1] principal="P(x)" t="c" t2="f(c)" y="y" '
        'x="x" |-  => ')
    e = _hand_built("reference")
    assert print_derivation(e) == reference_print_derivation(e) != got
    for tag, first in (("str", str), ("ref", reference_sequent)):
        s = Sequent.of([_unprinted(tag), Prop("p")], [])
        assert first(s) == (str(s) if first is reference_sequent
                            else reference_sequent(s))


# ---------------------------------------------------------------------------
# every file printed from a random object parses back to that object

_NAME = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True).filter(
    lambda n: n not in _RESERVED)


@st.composite
def _signatures(draw, max_arity=64):
    names = draw(st.lists(_NAME, unique=True, max_size=6))
    kinds = [(draw(st.booleans()), draw(st.integers(0, max_arity)))
             for _ in names]
    return Signature(
        tuple((n, a) for n, (fn, a) in zip(names, kinds) if fn),
        tuple((n, a) for n, (fn, a) in zip(names, kinds) if not fn),
        draw(st.frozensets(st.sampled_from(sorted(EXTRA_CONNECTIVES)))))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_signatures())
def test_a_printed_signature_parses_back(sig):
    text = print_signature(sig)
    assert parse_signature(text) == sig
    assert print_signature(parse_signature(text)) == text


@st.composite
def _structures(draw):
    """A signature of arities up to 2 and a structure for it, partial
    (with a bottom element) or total, over one to three elements."""
    sig = draw(_signatures(max_arity=2))
    domain = tuple(draw(st.lists(_NAME, min_size=1, max_size=3,
                                 unique=True)))
    bottom = (draw(st.sampled_from(domain))
              if len(domain) > 1 and draw(st.booleans()) else None)
    element, value = st.sampled_from(domain), st.sampled_from(VALUES)
    eq = {}
    for pair in product(domain, repeat=2):
        if bottom in pair:
            eq[pair] = N
        else:
            eq[pair] = draw(st.sampled_from((T, B)) if pair[0] == pair[1]
                            else value)
    return sig, Structure(
        domain,
        consts={n: draw(element) for n, a in sig.functions if a == 0},
        funcs={n: {k: draw(element) for k in product(domain, repeat=a)}
               for n, a in sig.functions if a},
        props={n: draw(value) for n, a in sig.predicates if a == 0},
        preds={n: {k: draw(value) for k in product(domain, repeat=a)}
               for n, a in sig.predicates if a},
        eq=eq, bottom=bottom)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_structures())
def test_a_printed_structure_parses_back(case):
    sig, m = case
    text = print_structure(m)
    assert parse_structure(text, sig) == m
    assert print_structure(parse_structure(text, sig)) == text


_SEQUENT = st.builds(lambda ant, suc: Sequent.of(ant, suc),
                     st.lists(_FORMULA, max_size=2),
                     st.lists(_FORMULA, max_size=2))


def _maybe(strategy):
    return st.none() | strategy


@st.composite
def _derivations(draw):
    """Steps with every field drawn at random, checked or not: the file
    format carries what it is given."""
    steps = []
    for i in range(draw(st.integers(1, 4))):
        steps.append(DerivationStep(
            draw(st.sampled_from(("hypothesis",) + tuple(RULES))),
            draw(_SEQUENT),
            premises=tuple(draw(st.lists(st.integers(0, i), max_size=2))),
            principal=draw(_maybe(_FORMULA)), t=draw(_maybe(_TERM)),
            t2=draw(_maybe(_TERM)), x=draw(_maybe(st.sampled_from("xyz"))),
            y=draw(_maybe(st.sampled_from("xyz")))))
    return Derivation(
        tuple(steps), packs=draw(st.frozensets(st.sampled_from(PACKS))),
        hypotheses=tuple(draw(st.lists(_SEQUENT, max_size=2))))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_derivations())
def test_a_printed_derivation_parses_back(d):
    text = print_derivation(d)
    assert text == reference_print_derivation(d)
    assert parse_derivation(text, SIG) == d
    assert print_derivation(parse_derivation(text, SIG)) == text
