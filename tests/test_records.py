"""The four record types: immutable named tuples with keyword construction."""

import pytest

from relprime.affine import CanonicalForm, InvariantProfile, canonical_form, invariant_profile
from relprime.oracle import GcdHistogram, gcd_histogram
from relprime.setphi import PhiReport, asymptotic_report

RECORDS = [
    (
        PhiReport,
        dict(n=6, k=None, value=54, main_term=56, residual=-2),
        "PhiReport(n=6, k=None, value=54, main_term=56, residual=-2)",
    ),
    (
        GcdHistogram,
        dict(n=2, counts=((1, 0, 0), (0, 1, 1), (0, 1, 0))),
        "GcdHistogram(n=2, counts=((1, 0, 0), (0, 1, 1), (0, 1, 0)))",
    ),
    (
        CanonicalForm,
        dict(base=(0, 2, 3, 6), mirror=(0, 3, 4, 6), representative=(0, 2, 3, 6)),
        "CanonicalForm(base=(0, 2, 3, 6), mirror=(0, 3, 4, 6), representative=(0, 2, 3, 6))",
    ),
    (
        InvariantProfile,
        dict(sumset_size=9, difference_size=11),
        "InvariantProfile(sumset_size=9, difference_size=11)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
class TestRecord:
    def test_keyword_construction_and_repr(self, cls, fields, text):
        record = cls(**fields)
        assert repr(record) == text
        assert [getattr(record, name) for name in fields] == list(fields.values())

    def test_fields_are_read_only(self, cls, fields, text):
        record = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert record == cls(**fields)

    def test_equality_and_hash_follow_the_fields(self, cls, fields, text):
        record = cls(**fields)
        same = cls(**fields)
        assert record == same and hash(record) == hash(same)
        assert hash(record) == hash(tuple(fields.values()))
        first = next(iter(fields))
        assert record != cls(**{**fields, first: "other"})


def test_the_library_builds_the_pinned_records():
    assert asymptotic_report(6) == PhiReport(**RECORDS[0][1])
    assert gcd_histogram(2) == GcdHistogram(**RECORDS[1][1])
    assert canonical_form([2, 8, 11, 20]) == CanonicalForm(**RECORDS[2][1])
    assert invariant_profile([0, 2, 3, 6]) == InvariantProfile(**RECORDS[3][1])
