"""The contract of the pipeline's immutable records (:class:`twistloop.exact.Record`):
construction by position and by keyword with the same defaults, value
equality and hashing, ordering of Cartan types, fields left out of the
comparison, refusal of assignment and deletion, and the validation
messages."""

import copy
import pickle

import pytest

from twistloop.exact import DEFAULT_TRUNCATION, BigradedSeries, Record
from twistloop.oracle import SubspaceBasis
from twistloop.report import ClosedForm, TwistReport, TwistSpec, compute
from twistloop.rootsys import CartanType, build_root_system
from twistloop.twist import (DiagramAutomorphism, FixedGroupInfo, FoldingResult,
                             OrbitCriterion)
from twistloop.weyl import DEFAULT_ELEMENT_CAP, GroupTooLargeError

E6 = CartanType("E", 6)
_RS = build_root_system(CartanType("A", 1))

# one instance per record class, as (class, field values in order)
SAMPLES = [
    (BigradedSeries, (4, {(0, 0): 1, (1, 1): 2})),
    (CartanType, ("E", 6)),
    (DiagramAutomorphism, (_RS, (0,), 1, "identity", (0, 1))),
    (FoldingResult, ((((1,), 1), ((-1,), 1)), ((-1,), (1,)), CartanType("A", 1))),
    (OrbitCriterion, (2, 2)),
    (FixedGroupInfo, ("connected", (1,))),
    (TwistSpec, (E6, "flip", 60, False, 2, 1000)),
    (ClosedForm, ((3, 11), (4, 12))),
    (SubspaceBasis, (2, ((1, 0),))),
]
each_record = pytest.mark.parametrize("cls,values", SAMPLES,
                                      ids=[cls.__name__ for cls, _ in SAMPLES])


@each_record
def test_positional_and_keyword_construction_agree(cls, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls.__slots__, values)))
    assert by_position == by_keyword
    assert [getattr(by_position, n) for n in cls.__slots__] == list(values)
    assert repr(by_position) == repr(by_keyword)
    assert repr(by_position).startswith(f"{cls.__name__}(")


@each_record
def test_fields_refuse_assignment_and_deletion(cls, values):
    record = cls(*values)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert [getattr(record, n) for n in cls.__slots__] == list(values)


@each_record
def test_copies_compare_equal(cls, values):
    record = cls(*values)
    assert copy.copy(record) == record
    if cls is not DiagramAutomorphism:  # holds a RootSystem, compared by identity
        assert pickle.loads(pickle.dumps(record)) == record


def test_bad_arguments_are_type_errors():
    with pytest.raises(TypeError, match="missing argument 'rank'"):
        CartanType("E")
    with pytest.raises(TypeError, match="takes 2 arguments, got 3"):
        CartanType("E", 6, 7)
    with pytest.raises(TypeError, match="'family'"):
        CartanType("E", family="E")
    with pytest.raises(TypeError, match="'size'"):
        CartanType("E", size=6)


def test_spec_defaults_and_the_benchmark_keyword_form():
    spec = TwistSpec(E6)
    assert (spec.automorphism, spec.truncation, spec.run_oracle, spec.workers,
            spec.element_cap) == ("identity", DEFAULT_TRUNCATION, False, 1,
                                  DEFAULT_ELEMENT_CAP)
    assert spec == TwistSpec(E6, "identity", DEFAULT_TRUNCATION)
    # the spelling of the benchmark's child process
    keyword = TwistSpec(cartan_type=CartanType("D", 4), automorphism=(2, 1, 3, 0),
                        truncation=70, workers=1)
    assert keyword == TwistSpec(CartanType("D", 4), (2, 1, 3, 0), 70)
    assert BigradedSeries(3) == BigradedSeries(3, {})


def test_cartan_types_are_ordered_dict_keys():
    types = [CartanType("G", 2), CartanType("A", 10), E6, CartanType("A", 2),
             CartanType("E", 7)]
    assert [str(t) for t in sorted(types)] == ["A2", "A10", "E6", "E7", "G2"]
    assert CartanType("A", 2) < CartanType("A", 3) <= CartanType("A", 3)
    assert CartanType("B", 2) > CartanType("A", 9) >= CartanType("A", 9)
    with pytest.raises(TypeError):
        CartanType("A", 2) < ("A", 3)
    table = {CartanType(f, r): f"{f}{r}" for f, r in [("A", 3), ("E", 6), ("G", 2)]}
    assert table[CartanType("E", 6)] == "E6"
    assert len({E6, CartanType("E", 6), CartanType("E", 7)}) == 2
    assert hash(E6) == hash(CartanType("E", 6))
    assert E6 != ("E", 6) and E6 != ClosedForm("E", 6)


def test_reports_differing_only_in_bigraded_compare_equal():
    rpt = compute(TwistSpec(CartanType("G", 2)))
    values = {n: getattr(rpt, n) for n in TwistReport.__slots__}
    without = TwistReport(**dict(values, bigraded=None))
    assert rpt.bigraded is not None
    assert without == rpt and hash(without) == hash(rpt)
    assert repr(without) == repr(rpt) and "bigraded" not in repr(rpt)
    assert TwistReport(*(values[n] for n in TwistReport.__slots__[:-1])).bigraded is None
    assert TwistReport(**dict(values, truncation=51)) != rpt


@each_record
def test_records_are_slotted(cls, values):
    assert issubclass(cls, Record)
    assert not hasattr(cls(*values), "__dict__")


@pytest.mark.parametrize("make,message", [
    (lambda: CartanType("X", 2), "unknown family 'X'"),
    (lambda: CartanType("E", 9), "rank 9 out of range for family E"),
    (lambda: CartanType("D", 1), "rank 1 out of range for family D"),
    (lambda: TwistSpec(E6, truncation=-1), "truncation must be non-negative"),
    (lambda: TwistSpec(E6, truncation=10_001), "truncation must be at most 10000"),
    (lambda: TwistSpec(E6, workers=0), "workers must be at least 1"),
    (lambda: TwistSpec(E6, workers=65), "workers must be at most 64"),
    (lambda: BigradedSeries(-1), "truncation must be non-negative"),
    (lambda: BigradedSeries(4, {(-1, 0): 1}), r"negative bidegree \(-1, 0\)"),
    # a field that is no int is named, where a comparison raised a bare
    # TypeError, for some only once compute() ran
    (lambda: CartanType("A", 3.0), "rank must be an integer, got 3.0"),
    (lambda: CartanType("A", "3"), "rank must be an integer, got '3'"),
    (lambda: CartanType("A", True), "rank must be an integer, got True"),
    (lambda: TwistSpec(E6, truncation=2.5), "truncation must be an integer, got 2.5"),
    (lambda: TwistSpec(E6, truncation="50"), "truncation must be an integer, got '50'"),
    (lambda: TwistSpec(E6, workers=1.0), "workers must be an integer, got 1.0"),
    (lambda: TwistSpec(E6, element_cap="x"), "element_cap must be an integer, got 'x'"),
    (lambda: TwistSpec(E6, element_cap=1e7), "element_cap must be an integer, got 10000000.0"),
    (lambda: TwistSpec(E6, element_cap=0), "element_cap must be at least 1"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_integer_fields_at_their_bounds_are_accepted():
    assert CartanType("A", 1).rank == 1
    spec = TwistSpec(E6, truncation=0, workers=64, element_cap=1)
    assert (spec.truncation, spec.workers, spec.element_cap) == (0, 64, 1)
    with pytest.raises(GroupTooLargeError, match="past the element cap 1"):
        compute(spec)


def test_series_normalized_at_construction():
    s = BigradedSeries(2, {(0, 0): 1, (0, 1): 0, (0, 2): 5, (1, 0): 3})
    assert s.coefficients == {(0, 0): 1, (1, 0): 3}
    assert s[(0, 1)] == 0
