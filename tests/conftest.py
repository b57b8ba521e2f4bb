import pytest

from orbitgrowth import integers
from orbitgrowth.arith import sieve_primes
from orbitgrowth.mersenne import FactorCache


@pytest.fixture(scope="session")
def cache():
    return FactorCache()


@pytest.fixture
def empty_orders(monkeypatch):
    """The process's order memo, emptied for one test and restored after."""
    monkeypatch.setattr(integers.ORDERS, "_orders", {})
    monkeypatch.setattr(integers.ORDERS, "_exponents", {})
    return integers.ORDERS


@pytest.fixture
def count_orders(monkeypatch):
    """The primes that mult_order is asked about, in call order."""
    asked = []
    real = integers.mult_order
    monkeypatch.setattr(integers, "mult_order", lambda p: asked.append(p) or real(p))
    return asked


@pytest.fixture(scope="session")
def table_1e6():
    return sieve_primes(10**6)
