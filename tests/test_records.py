"""The package's value records: what ``dataclass`` gave them (field-tuple
equality and hashing, the repr text, frozen fields, argument checks,
fresh dict defaults) and ``syntax.replace``."""

from dataclasses import FrozenInstanceError

import pytest

from bd4 import semantics, syntax
from bd4.acceptance import CriterionResult, SuiteConfig
from bd4.definability import (
    DEFINITIONS, NEG_FN, TruthFunction, check_expansion_equivalences,
)
from bd4.kernel import RULES, Code, Derivation, DerivationStep, Violation
from bd4.matrixlab import BD_MATRIX, UniquenessReport
from bd4.search import SearchBudget, SearchResult
from bd4.semantics import FOResult, Structure, consequence_fo
from bd4.simulation import SimulationCheck
from bd4.syntax import Fun, Pred, Prop, Sequent, Signature

p, q = Prop("p"), Prop("q")
_STEP = DerivationStep("Id", Sequent.of([p], [p]), principal=p)

# one record of each class whose fields are all hashable
_HASHABLE = [
    Signature((("c", 0),), (("P", 1),), frozenset({"Des"})),
    Sequent.of([p], [q]),
    _STEP,
    Derivation((_STEP,), frozenset({"den"}), (_STEP.sequent,)),
    Violation(0, Code.UNKNOWN_RULE, "weaken"),
    RULES["and-L"],
    SearchBudget(),
    SuiteConfig(),
    NEG_FN,
    DEFINITIONS["Des"],
    check_expansion_equivalences()[0],
    BD_MATRIX,
    SimulationCheck("lp", True, True, None),
]
_IDS = [type(r).__name__ for r in _HASHABLE]


def _fields(r) -> tuple:
    return tuple(getattr(r, n) for n in type(r).__match_args__)


def test_the_repr_is_the_dataclass_text():
    assert repr(Sequent.of([p], [q])) == (
        "Sequent(ant=frozenset({Prop(name='p')}), "
        "suc=frozenset({Prop(name='q')}))")
    assert repr(SearchBudget()) == (
        "SearchBudget(max_nodes=100000, mode='base')")
    assert repr(SearchResult("exhausted", bound="nodes")) == (
        "SearchResult(status='exhausted', proof=None, countermodel=None, "
        "bound='nodes')")
    assert repr(Signature((("c", 0),), (("P", 1), ("p", 0)))) == (
        "Signature(functions=(('c', 0),), predicates=(('P', 1), ('p', 0)), "
        "extras=frozenset())")
    assert repr(FOResult(True)) == (
        "FOResult(holds=True, structure=None, assignment=None)")


@pytest.mark.parametrize("record", _HASHABLE, ids=_IDS)
def test_a_record_hashes_and_compares_as_its_field_tuple(record):
    fields = _fields(record)
    if isinstance(record, TruthFunction):  # the name is not compared
        fields = fields[:2]
    assert hash(record) == hash(fields)
    twin = type(record).__new__(type(record))
    for name, value in zip(type(record).__match_args__, _fields(record)):
        object.__setattr__(twin, name, value)
    assert twin == record and not twin != record and twin is not record
    assert record != fields and record != _fields(record)


@pytest.mark.parametrize("record", _HASHABLE, ids=_IDS)
def test_a_frozen_record_refuses_assignment(record):
    for name in type(record).__match_args__:
        with pytest.raises(FrozenInstanceError,
                           match="cannot assign to field %r" % name):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError,
                           match="cannot delete field %r" % name):
            delattr(record, name)


def test_match_args_list_the_fields_in_order():
    assert Sequent.__match_args__ == ("ant", "suc")
    assert SearchResult.__match_args__ == (
        "status", "proof", "countermodel", "bound")
    assert DerivationStep.__match_args__ == (
        "rule", "sequent", "premises", "principal", "t", "t2", "x", "y")
    match SearchResult("refuted", countermodel={"p": 1}):
        case SearchResult("refuted", None, witness):
            assert witness == {"p": 1}


def test_a_missing_extra_or_repeated_argument_is_a_type_error():
    empty = frozenset()
    for call in (lambda: Sequent(empty, empty, empty),
                 lambda: Sequent(empty, ant=empty),
                 lambda: Sequent(nosuch=empty),
                 lambda: SearchResult(),
                 lambda: SearchResult(proof=None),
                 lambda: SearchResult("proved", status="proved"),
                 lambda: Violation(0, Code.UNKNOWN_RULE),
                 lambda: FOResult(True, None, None, None),
                 lambda: Derivation(),
                 lambda: Derivation((), frozenset(), (), ()),
                 lambda: DerivationStep("Id"),
                 lambda: SearchBudget(mode="base", nosuch=1)):
        with pytest.raises(TypeError):
            call()


def test_keywords_and_defaults_fill_the_same_fields():
    assert Sequent(frozenset(), frozenset()) == Sequent.of()
    assert (SearchResult("refuted", countermodel={"p": 1})
            == SearchResult(countermodel={"p": 1}, status="refuted")
            == SearchResult("refuted", None, {"p": 1}, None))
    assert (Derivation(steps=(_STEP,), hypotheses=())
            == Derivation((_STEP,), frozenset(), ()))
    assert SearchBudget(mode="lp").max_nodes == 100_000


def test_truth_function_equality_ignores_the_name():
    named = TruthFunction(1, NEG_FN.table, "other")
    assert named == NEG_FN and hash(named) == hash(NEG_FN)
    assert named.name == "other" and NEG_FN.name != "other"
    assert TruthFunction(1, NEG_FN.table[::-1], NEG_FN.name) != NEG_FN
    assert len({NEG_FN, named, TruthFunction(1, NEG_FN.table)}) == 1


def test_records_built_with_defaults_share_no_dict():
    one, two = Structure((0, 1)), Structure((0, 1))
    for name in ("consts", "funcs", "props", "preds", "eq"):
        assert getattr(one, name) is not getattr(two, name)
    assert one.consts == two.consts == {} and one.eq == two.eq
    first = CriterionResult(1, "one", "pass", 0.0)
    second = CriterionResult(1, "one", "pass", 0.0)
    assert first.details is not second.details and first.details == {}


def test_equal_signatures_built_apart_share_one_sweep():
    def sig():
        return Signature((("c", 0),), (("P", 1), ("Q", 1)))
    assert sig() is not sig() and sig() == sig()
    assert hash(sig()) == hash(sig())
    gamma, delta = [Pred("P", (Fun("c"),))], [Pred("Q", (Fun("c"),))]
    semantics._fo_sweep.cache_clear()
    first = consequence_fo(gamma, delta, sig(), max_domain=2)
    before = semantics._fo_sweep.cache_info()
    assert before.misses >= 1
    again = consequence_fo(gamma, delta, sig(), max_domain=2)
    after = semantics._fo_sweep.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    assert again == first and not first.holds


def test_every_record_is_frozen():
    others = [Structure((0, 1)), FOResult(True), SearchResult("proved"),
              CriterionResult(1, "one", "pass", 0.0),
              UniquenessReport(frozenset(), {}, [], 0, None)]
    for record in others:
        for name in type(record).__match_args__:
            with pytest.raises(FrozenInstanceError, match="cannot assign"):
                setattr(record, name, None)
            with pytest.raises(FrozenInstanceError, match="cannot delete"):
                delattr(record, name)
    assert hash(FOResult(True)) == hash((True, None, None))
    assert hash(SearchResult("proved")) == hash(("proved", None, None, None))


def test_replace_gives_an_equal_record_carrying_the_change():
    s = Sequent.of([p], [q])
    assert syntax.replace(s, suc=frozenset({p})) == Sequent.of([p], [p])
    assert s == Sequent.of([p], [q])
    copy = syntax.replace(_STEP)
    assert copy == _STEP and copy is not _STEP
    cited = syntax.replace(_STEP, premises=(0,), principal=q)
    assert cited == DerivationStep("Id", _STEP.sequent, (0,), q)
    assert syntax.replace(SearchBudget(), mode="lp") == SearchBudget(mode="lp")
    d = Derivation((_STEP,), frozenset({"den"}))
    assert syntax.replace(d, packs=frozenset()) == Derivation((_STEP,))
    with pytest.raises(ValueError):  # __post_init__ checks the copy
        syntax.replace(SearchBudget(), max_nodes=0)
    with pytest.raises(TypeError):
        syntax.replace(s, nosuch=1)
