"""Every documented capacity is enforced before any array is allocated."""

import numpy as np
import pytest

from orbitgrowth.arith import SIEVE_CAPACITY, sieve_primes
from orbitgrowth.constants import (
    INTERVAL_CAPACITY,
    interval_L,
    squarefree_slope,
)
from orbitgrowth.errors import CapacityError
from orbitgrowth.mertens import DOMINANT_CAPACITY, dominant_sum
from orbitgrowth.sets import ExplicitFinitePrimes, MultiplesOf, estimate_density

OVER_CAPACITY = {
    "sieve_primes": lambda: sieve_primes(SIEVE_CAPACITY + 1),
    "dominant_sum": lambda: dominant_sum(
        DOMINANT_CAPACITY + 1, MultiplesOf(ells=[3])),
    "squarefree_slope": lambda: squarefree_slope(SIEVE_CAPACITY + 1),
    "estimate_density": lambda: estimate_density(
        ExplicitFinitePrimes([3]), SIEVE_CAPACITY + 1),
    # The sieve would reach 2^(m_hi + 1) > INTERVAL_CAPACITY.
    "interval_L": lambda: interval_L(1.0, 1, INTERVAL_CAPACITY.bit_length()),
}


@pytest.mark.parametrize("name", sorted(OVER_CAPACITY))
def test_over_capacity_raises_before_allocating(name, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError(f"{name} allocated an array before its capacity check")

    for alloc in ("zeros", "ones", "empty", "full", "arange"):
        monkeypatch.setattr(np, alloc, no_allocation)
    with pytest.raises(CapacityError):
        OVER_CAPACITY[name]()
