"""The package's value types: construction, immutability, equality, hashing
and ``repr`` of every ``errors.Record`` subclass, and of the one mutable
builder, ``SweepReport``.

The golden reprs are those the value types printed when they were frozen
dataclasses; ``repr``, ``==`` and ``hash`` keep those semantics.
"""

import importlib
from fractions import Fraction

import pytest

from gammacert import (
    AbelReport,
    Certificate,
    CoeffTable,
    CrossingReport,
    DiagonalSequence,
    GammaVector,
    LatticePath,
    PathConfig,
    RangeError,
    RotationBalanceReport,
    SequenceReport,
    SignQuadratic,
    SymmetricPolynomial,
    TransferReport,
    build_certificate,
    check_crossing_claim,
    check_transfer,
    sign_quadratic,
)
from gammacert.errors import Record
from gammacert.sweeps import SweepReport

F = Fraction
TRUE_LC, NO_ZEROS = SequenceReport("log-concave", True), SequenceReport("internal-zeros", False)

# One instance of every record class, as (class, fields in declaration order).
CASES = [
    (SymmetricPolynomial, {"n": 2, "h": (F(1), F(2), F(1))}),
    (GammaVector, {"n": 6, "gamma": (F(1), F(1), F(1), F(1))}),
    (SequenceReport, {"kind": "log-concave", "verdict": False, "witness": (1,)}),
    (TransferReport, {
        "n": 0, "gamma_shape": TRUE_LC, "gamma_internal_zeros": NO_ZEROS, "h_shape": TRUE_LC,
        "h_internal_zeros": NO_ZEROS, "h": SymmetricPolynomial(0, (F(1),)),
    }),
    (CoeffTable, {"n": 6, "i": 1, "entries": {(0, 0): 21, (0, 1): 8, (1, 1): 1, (0, 2): -1}}),
    (DiagonalSequence, {
        "n": 16, "i": 5, "l": 3, "parity": "even",
        "pairs": ((3, 3), (2, 4), (1, 5), (0, 6)), "values": (825, 1177, -182, -1820),
    }),
    (SignQuadratic, {"n": 6, "i": 3, "l": 1, "parity": "even", "a": -10, "b": 90}),
    (AbelReport, {"total": F(5), "prefix_sums": (F(3), F(4), F(2)), "terms": (F(3), F(0), F(2))}),
    (LatticePath, {"start": (0, 0), "steps": "EENE"}),
    (PathConfig, {"n": 6, "i": 2, "r": 2}),
    (CrossingReport, {"paths_total": 28, "paths_touching_shifted": 14, "base_visits": 46, "shifted_visits": 18}),
    (RotationBalanceReport, {"rectangles": 3, "paths_checked": 6}),
    (Certificate, {
        "n": 6, "i": 2, "r": 2, "lhs": 46, "rhs": 18, "avoiding_term": 27,
        "boundary_terms": (((2, 0), (4, 0), 1),), "total": 28, "path_count": 28,
        "contributing_paths": 15, "avoiding_contributing": 14,
    }),
]
IDS = [cls.__name__ for cls, _ in CASES]


def test_every_record_class_has_a_case():
    defined = set()
    for name in ("polycore", "concavity", "coefficients", "paths", "sweeps", "jsonio", "render", "cli"):
        module = importlib.import_module(f"gammacert.{name}")
        defined |= {
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, Record) and obj.__module__ == module.__name__
        }
    assert defined == {cls for cls, _ in CASES}


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_construction(cls, fields):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert {name: getattr(by_position, name) for name in fields} == fields
    first, *_ = fields
    with pytest.raises(TypeError, match="missing"):
        cls(**{name: value for name, value in fields.items() if name != first})
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(**fields, extra=1)
    with pytest.raises(TypeError, match="positional"):
        cls(*fields.values(), 1)


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    record = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    if cls is CoeffTable:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(fields.values()))


def test_a_changed_field_breaks_equality():
    assert PathConfig(6, 2, 2) != PathConfig(6, 2, 3)
    assert SequenceReport("unimodal", True) != SequenceReport("unimodal", False)
    assert LatticePath((0, 0), "EN") != LatticePath((0, 0), "NE")


def test_equality_is_type_strict():
    class Twin(Record):  # RotationBalanceReport's fields under another class
        rectangles: int
        paths_checked: int

    assert Twin(3, 1) != RotationBalanceReport(3, 1)
    assert not Twin(3, 1) == RotationBalanceReport(3, 1)
    assert CrossingReport(3, 1, 2, 0) != (3, 1, 2, 0)
    assert GammaVector(2, (1, 1)) != SymmetricPolynomial(1, (1, 1))


def test_defaults_and_post_init():
    assert SequenceReport("unimodal", True) == SequenceReport("unimodal", True, None)
    assert SequenceReport(kind="unimodal", verdict=True).witness is None
    assert GammaVector(2, ("1/2", 1)).gamma == (F(1, 2), F(1))  # normalized by __post_init__
    for bad in (
        lambda: GammaVector(6, (1, 1)),
        lambda: GammaVector(-1, ()),
        lambda: SymmetricPolynomial(2, (1, 2)),
        lambda: LatticePath((0, 0), "EX"),
        lambda: PathConfig(4, 3, 0),
    ):
        with pytest.raises(RangeError):
            bad()


def test_reprs_are_golden():
    assert repr(build_certificate(PathConfig(6, 2, 2))) == (
        "Certificate(n=6, i=2, r=2, lhs=46, rhs=18, avoiding_term=27, boundary_terms=(((2, 0), (4, 0), 1),), "
        "total=28, path_count=28, contributing_paths=15, avoiding_contributing=14)"
    )
    assert repr(check_transfer(GammaVector(6, (1, 1, 1, 1)))) == (
        "TransferReport(n=6, gamma_shape=SequenceReport(kind='log-concave', verdict=True, witness=None), "
        "gamma_internal_zeros=SequenceReport(kind='internal-zeros', verdict=False, witness=None), "
        "h_shape=SequenceReport(kind='log-concave', verdict=True, witness=None), "
        "h_internal_zeros=SequenceReport(kind='internal-zeros', verdict=False, witness=None), "
        "h=SymmetricPolynomial(n=6, h=(Fraction(1, 1), Fraction(7, 1), Fraction(20, 1), Fraction(29, 1), "
        "Fraction(20, 1), Fraction(7, 1), Fraction(1, 1))))"
    )
    assert repr(sign_quadratic(6, 3, 1)) == "SignQuadratic(n=6, i=3, l=1, parity='even', a=-10, b=90)"
    assert repr(check_crossing_claim(PathConfig(6, 2, 2))) == (
        "CrossingReport(paths_total=28, paths_touching_shifted=14, base_visits=46, shifted_visits=18)"
    )


def test_sweep_report_is_a_mutable_builder_compared_by_value():
    a, b = SweepReport("demo"), SweepReport("demo")
    assert repr(a) == "SweepReport(name='demo', cases=0, failures=[], notes={})"
    a.check(False, "broken")
    assert a != b and not a.ok
    b.check(False, "broken")
    assert a == b
    assert repr(a) == "SweepReport(name='demo', cases=1, failures=['broken'], notes={})"
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
