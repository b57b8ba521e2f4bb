"""Every documented capacity is enforced before any array is allocated, and
the largest sieve fits its memory bound."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbitgrowth
from orbitgrowth.arith import SIEVE_CAPACITY, sieve_primes
from orbitgrowth.errors import CapacityError
from orbitgrowth.mertens import DOMINANT_CAPACITY, dominant_sum, squarefree_slope
from orbitgrowth.sets import (
    INTERVAL_CAPACITY,
    ExplicitFinitePrimes,
    MultiplesOf,
    estimate_density,
    interval_L,
)

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


SIEVE_PEAK_MB = 300


def test_sieve_at_capacity_fits_memory_bound(tmp_path):
    """`sieve --limit 10^8` in a child reaped by wait4, whose ru_maxrss is
    the child's own peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(Path(orbitgrowth.__file__).parents[1]))
    with open(tmp_path / "out", "w+b") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "orbitgrowth.cli", "sieve",
             "--limit", str(SIEVE_CAPACITY)],
            stdout=out, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode()
    assert proc.returncode == 0, text
    assert text == f"primes <= {SIEVE_CAPACITY}: 5761455\n"
    peak_mb = usage.ru_maxrss / 1024
    assert peak_mb < SIEVE_PEAK_MB, f"peak RSS {peak_mb:.0f} MB"
