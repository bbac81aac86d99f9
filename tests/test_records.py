"""The contract of the pipeline's immutable records (:class:`twistloop.exact.Record`):
construction by position and by keyword with the same defaults, value
equality and hashing, ordering of Cartan types, the report's bigraded
series derived from its fields, refusal of assignment and deletion, and
the validation messages."""

import copy
import inspect
import pickle

import pytest

from twistloop.exact import DEFAULT_TRUNCATION, BigradedSeries, Record, solomon_series
from twistloop.oracle import (DiagramAutomorphism, FoldingResult, SubspaceBasis,
                              build_root_system)
from twistloop.report import ClosedForm, TwistReport, TwistSpec, compute
from twistloop.rootsys import CartanType
from twistloop.twist import OrbitCriterion
from twistloop import weyl
from twistloop.weyl import GroupTooLargeError

E6 = CartanType("E", 6)
_RS = build_root_system(CartanType("A", 1))

# one instance per record class, as (class, field values in order)
SAMPLES = [
    (BigradedSeries, (4, {(0, 0): 1, (1, 1): 2})),
    (CartanType, ("E", 6)),
    (DiagramAutomorphism, (_RS, (0,), 1, "identity")),
    (FoldingResult, (((-1,), (1,)), CartanType("A", 1), ((-2,),), (0,))),
    (OrbitCriterion, (2, 2)),
    (TwistSpec, (E6, "flip", 60, False, 2)),
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


def signature_of(cls):
    """The function signature whose binding a record's constructor follows."""
    return inspect.Signature([
        inspect.Parameter(n, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                          default=cls._defaults.get(n, inspect.Parameter.empty))
        for n in cls.__slots__])


@pytest.mark.parametrize("cls,args,kwargs", [
    (CartanType, ("E", 6), {}), (CartanType, ("E",), {"rank": 6}),
    (CartanType, (), {"rank": 6, "family": "E"}),
    (TwistSpec, (E6,), {}), (TwistSpec, (E6, "flip"), {"workers": 2}),
    (TwistSpec, (), {"truncation": 70, "cartan_type": E6}),
    (TwistSpec, (E6, (5, 1, 4, 3, 2, 0), 60, True, 3), {}),
    (TwistSpec, (E6,), {"run_oracle": True, "automorphism": "flip"}),
    (BigradedSeries, (4,), {}), (BigradedSeries, (), {"coefficients": {(0, 1): 2},
                                                      "truncation": 4}),
    (ClosedForm, (), {"y_degrees": (4,), "x_degrees": (3,)}),
])
def test_arguments_bind_as_a_function_binds_them(cls, args, kwargs):
    # positional, keyword and mixed, with the trailing defaults filled in
    bound = signature_of(cls).bind(*args, **kwargs)
    bound.apply_defaults()
    record = cls(*args, **kwargs)
    assert [getattr(record, n) for n in cls.__slots__] == list(bound.arguments.values())
    assert record == cls(**bound.arguments)


@pytest.mark.parametrize("make,message", [
    (lambda: CartanType(), "CartanType() missing argument 'family'"),
    (lambda: CartanType("E"), "CartanType() missing argument 'rank'"),
    (lambda: CartanType(rank=6), "CartanType() missing argument 'family'"),
    (lambda: CartanType("E", 6, 7), "CartanType() takes 2 arguments, got 3"),
    (lambda: TwistSpec(E6, "flip", 50, False, 1, 2), "TwistSpec() takes 5 arguments, got 6"),
    (lambda: CartanType("E", family="E"),
     "CartanType() got an unexpected or repeated argument 'family'"),
    (lambda: TwistSpec(E6, cartan_type=E6, truncation=7),
     "TwistSpec() got an unexpected or repeated argument 'cartan_type'"),
    # an unexpected or repeated argument is named before a missing one
    (lambda: CartanType(size=6), "CartanType() got an unexpected or repeated argument 'size'"),
    (lambda: CartanType("E", size=6),
     "CartanType() got an unexpected or repeated argument 'size'"),
    (lambda: TwistSpec(workers=2, bogus=1),
     "TwistSpec() got an unexpected or repeated argument 'bogus'"),
    (lambda: BigradedSeries(coefficients={}, truncation=3, extra=None),
     "BigradedSeries() got an unexpected or repeated argument 'extra'"),
])
def test_binding_errors_keep_their_messages(make, message):
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message


def test_spec_defaults_and_the_benchmark_keyword_form():
    spec = TwistSpec(E6)
    assert (spec.automorphism, spec.truncation, spec.run_oracle, spec.workers) == \
        ("identity", DEFAULT_TRUNCATION, False, 1)
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


def test_bigraded_is_derived_from_the_report_fields():
    rpt = compute(TwistSpec(CartanType("G", 2)))
    values = {n: getattr(rpt, n) for n in TwistReport.__slots__}
    same = TwistReport(**values)
    assert same == rpt and hash(same) == hash(rpt) and repr(same) == repr(rpt)
    assert "bigraded" not in repr(rpt)
    assert rpt.bigraded == same.bigraded == solomon_series((2, 6), 50)
    longer = TwistReport(**dict(values, truncation=51))
    assert longer != rpt and longer.bigraded == solomon_series((2, 6), 51)
    with pytest.raises(TypeError, match="unexpected or repeated argument 'bigraded'"):
        TwistReport(**values, bigraded=rpt.bigraded)


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
    # the type and the twist are checked when the spec is made, where a
    # string type failed in compute() with an AttributeError, an int twist
    # with a TypeError, and a float image as a tuple index
    (lambda: TwistSpec("E6"), "cartan_type must be a CartanType, got 'E6'"),
    (lambda: TwistSpec(("E", 6)), r"cartan_type must be a CartanType, got \('E', 6\)"),
    (lambda: TwistSpec(E6, 3),
     "automorphism must be a tag or a sequence of node images, got 3"),
    (lambda: TwistSpec(E6, {0, 1}),
     r"automorphism must be a tag or a sequence of node images, got \{0, 1\}"),
    (lambda: TwistSpec(E6, (2.0, 1, 0)), "automorphism image must be an integer, got 2.0"),
    (lambda: TwistSpec(E6, [0, True]), "automorphism image must be an integer, got True"),
    (lambda: TwistSpec(E6, run_oracle="yes"), "run_oracle must be a bool, got 'yes'"),
    (lambda: TwistSpec(E6, run_oracle=1), "run_oracle must be a bool, got 1"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_integer_fields_at_their_bounds_are_accepted(monkeypatch):
    assert CartanType("A", 1).rank == 1
    spec = TwistSpec(E6, truncation=0, workers=64)
    assert (spec.truncation, spec.workers) == (0, 64)
    monkeypatch.setattr(weyl, "DEFAULT_ELEMENT_CAP", 1)
    with pytest.raises(GroupTooLargeError, match="past the element cap 1$"):
        compute(spec)


def test_the_element_cap_is_no_spec_field():
    # the cap is the module constant twistloop.weyl.DEFAULT_ELEMENT_CAP
    assert len(TwistSpec.__slots__) == 5
    with pytest.raises(TypeError, match="unexpected or repeated argument 'element_cap'"):
        TwistSpec(E6, element_cap=1)


def test_a_listed_twist_is_stored_as_a_tuple():
    listed = TwistSpec(E6, [5, 1, 4, 3, 2, 0])
    assert listed.automorphism == (5, 1, 4, 3, 2, 0)
    assert listed == TwistSpec(E6, (5, 1, 4, 3, 2, 0))
    assert hash(listed) == hash(TwistSpec(E6, (5, 1, 4, 3, 2, 0)))
    rpt = compute(listed)
    assert rpt.automorphism == "perm=6,2,5,4,3,1"
    assert rpt == compute(TwistSpec(E6, (5, 1, 4, 3, 2, 0)))


def test_series_normalized_at_construction():
    s = BigradedSeries(2, {(0, 0): 1, (0, 1): 0, (0, 2): 5, (1, 0): 3})
    assert s.coefficients == {(0, 0): 1, (1, 0): 3}
    assert s[(0, 1)] == 0
