"""The contract every record keeps: construction, defaults, value
equality and hashing, immutability, repr.

The table lists all twenty records, with their fields in order and the
fields that have defaults: the package's twelve, the private ones too,
and the eight of the reference syntax tree that the parser tests build.
"""

import copy
import pickle
from fractions import Fraction

import pytest

import support
from slicereg import cli, equiv, parsing, series
from slicereg.scalars import Frozen, Record

RECORDS = [
    (equiv.InvariantBundle, ("trace", "norm", "central_divisor"), {}),
    (equiv.EquivVerdict, ("equivalent", "branch", "reason"),
     {"reason": None}),
    (equiv.R3EquivVerdict, ("equivalent", "pairing", "direct", "swapped"),
     {"swapped": None}),
    (equiv.OrbitClass, ("kind", "lam", "isotropy"), {}),
    (equiv.SampleCheck, ("sample", "passed", "reason"), {}),
    (equiv.OrbitScanReport, ("checks",), {}),
    (equiv.ConjugatorReport, ("intertwines", "norm_alpha", "invertible_on_C",
                              "conjugation_identity"), {}),
    (parsing._Token, ("kind", "text", "pos", "value"), {"value": 0}),
    (support.RationalLit, ("value",), {}),
    (support.Unit, ("name",), {}),
    (support.Var, ("name",), {}),
    (support.Neg, ("child",), {}),
    (support.Add, ("left", "right"), {}),
    (support.Sub, ("left", "right"), {}),
    (support.Mul, ("left", "right"), {}),
    (support.Pow, ("base", "exponent"), {}),
    (series.EvalResult, ("value", "tail_bound"), {}),
    (series.IdentityCheck, ("sample", "value_error", "trace_error",
                            "norm_error", "tail_bound", "passed"), {}),
    (series.ConjugationReport, ("tol", "checks"), {}),
    (cli.CheckResult, ("name", "passed", "detail"), {}),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _values(fields, offset=0):
    """Distinct hashable values, one per field."""
    return tuple(f"{name}-{offset}" for name in fields)


def test_the_table_covers_twenty_records():
    assert {cls for cls, _, _ in RECORDS} == set(Record.__subclasses__())
    assert len(RECORDS) == 20


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_construction_and_defaults(cls, fields, defaults):
    values = _values(fields)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for name, value in zip(fields, values):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword
    assert cls.__match_args__ == fields
    required = [name for name in fields if name not in defaults]
    record = cls(*_values(required))
    for name, default in defaults.items():
        assert getattr(record, name) == default


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_missing_and_unknown_fields_raise_type_error(cls, fields, defaults):
    required = [name for name in fields if name not in defaults]
    with pytest.raises(TypeError):
        cls(*_values(required)[:-1])
    with pytest.raises(TypeError):
        cls(*_values(fields), "one too many")
    with pytest.raises(TypeError):
        cls(*_values(fields), no_such_field=1)
    with pytest.raises(TypeError):
        cls(*_values(fields), **{fields[0]: "twice"})


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_value_equality_and_hash(cls, fields, defaults):
    a = cls(*_values(fields))
    b = cls(*_values(fields))
    c = cls(*_values(fields, offset=1))
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c
    assert a != _values(fields) and a != object()
    assert {a, b, c} == {a, c}


def test_records_with_the_same_fields_are_not_equal_across_classes():
    records = [kind(1, 2, 3)
               for kind in (equiv.InvariantBundle, equiv.EquivVerdict,
                            equiv.OrbitClass, equiv.SampleCheck)]
    for i, x in enumerate(records):
        for j, y in enumerate(records):
            assert (x == y) == (i == j)


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_records_are_immutable(cls, fields, defaults):
    record = cls(*_values(fields))
    assert isinstance(record, Frozen)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], "changed")
    with pytest.raises(AttributeError):
        setattr(record, "new_attribute", 1)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert getattr(record, fields[0]) == _values(fields)[0]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_records_survive_pickling(cls, fields, defaults):
    record = cls(*_values(fields))
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is cls and twin == record
        assert hash(twin) == hash(record)


def test_golden_reprs():
    assert (repr(equiv.EquivVerdict(False, "x", "trace"))
            == "EquivVerdict(equivalent=False, branch='x', reason='trace')")
    assert (repr(parsing._Token("num", "12", 3, 12))
            == "_Token(kind='num', text='12', pos=3, value=12)")
    assert (repr(equiv.OrbitScanReport(
                (equiv.SampleCheck(Fraction(1, 2), True, None),)))
            == "OrbitScanReport(checks=(SampleCheck(sample=Fraction(1, 2), "
               "passed=True, reason=None),))")


def test_eval_result_unpacks_as_value_and_tail_bound():
    result = series.EvalResult(series.CQuatF(1, 2), 0.25)
    value, tail = result
    assert value == series.CQuatF(1, 2) and tail == 0.25
    assert tuple(result) == (result.value, result.tail_bound)

