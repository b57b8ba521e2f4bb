import pytest

from orbitgrowth.arith import sieve_primes
from orbitgrowth.integers import OrderTable
from orbitgrowth.mersenne import FactorCache


@pytest.fixture(scope="session")
def cache():
    return FactorCache()


@pytest.fixture(scope="session")
def orders():
    return OrderTable()


@pytest.fixture(scope="session")
def table_1e6():
    return sieve_primes(10**6)
