"""The result records are namedtuples: the checks they make raise when they
are built, their fields cannot be assigned, each repr reads
`Name(field=value, ...)`, and a record equals the plain tuple of its
fields."""

from fractions import Fraction

import pytest

from orbitgrowth.arith import sieve_primes
from orbitgrowth.constants import (
    ExactConstant,
    GreedyStep,
    GreedyTrace,
    ProductSubsetResult,
    RecursionStep,
    RecursionTrace,
    SubsequenceReport,
    TranscendentalSeries,
)
from orbitgrowth.errors import ContractError, InvariantViolation
from orbitgrowth.fitting import FitReport
from orbitgrowth.mersenne import MersenneFactorization
from orbitgrowth.mertens import MertensSeries, RemainderBound, SquarefreeSlope
from orbitgrowth.reproduce import CriterionResult
from orbitgrowth.sets import DensityEstimate, IntervalRecord

STEP = GreedyStep(ell=5, accepted=True, k_candidate=Fraction(129, 160),
                  k_after=Fraction(129, 160))
RECORDS = [
    sieve_primes(10),
    ExactConstant(Fraction(2, 3)),
    STEP,
    GreedyTrace(Fraction(3, 4), Fraction(1, 10), [STEP], True,
                Fraction(129, 160), (5,)),
    TranscendentalSeries(3, 1, ExactConstant(Fraction(2, 3), Fraction(1, 4)),
                         (Fraction(2, 3),), (Fraction(2, 3),)),
    RecursionStep(1, 1.01, Fraction(1, 100), Fraction(1, 100), Fraction(0),
                  Fraction(1, 100), 0.007, 70),
    RecursionTrace(Fraction(1, 2), 50, Fraction(1, 50), "idealized", [],
                   True, True, True, True, None),
    ProductSubsetResult((3,), Fraction(4, 3), Fraction(4, 3), Fraction(1, 1000),
                        0.366, False),
    SubsequenceReport(0, 0.0, 0.0, 0.0, 101, 0.0, 0.0),
    FitReport("bounded", None, None, None, 0.9, 1e-5, 12),
    MertensSeries("x", "exact", [(1, Fraction(1, 2)), (2, Fraction(1))]),
    RemainderBound(6, 0.1, 0.2),
    SquarefreeSlope(64, Fraction(3), 0.6, ((64, 3.0),)),
    IntervalRecord(4, 16, 22, 2, 0.34, 0.35),
    DensityEstimate(100, 3, 24),
    MersenneFactorization(11, ((23, 1), (89, 1))),
    CriterionResult("dense", True, 0.5, ["detail"]),
]
IDS = [type(r).__name__ for r in RECORDS]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_repr_names_every_field(record):
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("record", RECORDS[1:], ids=IDS[1:])  # not the arrays
def test_equals_the_plain_tuple(record):
    assert record == tuple(record)
    assert type(record)(*record) == record


def test_density_estimate_members_within_total():
    assert DensityEstimate(10, 4, 4).ratio == 1.0
    with pytest.raises(InvariantViolation, match="member_count > total_count"):
        DensityEstimate(10, 5, 4)


def test_mertens_series_mode_checked():
    # The grid and value checks are in test_mertens.py::TestSeriesContainer.
    with pytest.raises(ContractError, match="unknown mode"):
        MertensSeries("x", "approximate", [])


def test_greedy_trace_checks():
    k, eps = Fraction(3, 4), Fraction(1, 10)
    with pytest.raises(InvariantViolation, match="outside window"):
        GreedyTrace(k, eps, [STEP], True, Fraction(17, 20), (5,))
    # The same trace is fine when it does not claim to have terminated.
    assert not GreedyTrace(k, eps, [STEP], False, Fraction(17, 20), (5,)).terminal
    rise = GreedyStep(7, True, Fraction(9, 10), Fraction(9, 10))
    with pytest.raises(InvariantViolation, match="greedy k increased"):
        GreedyTrace(k, eps, [STEP, rise], False, Fraction(9, 10), (5, 7))
