"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them live) and enforcing the stated tolerance and time
budget.  Criteria 5-8 and 10-11 dispatch through run_theorem in
orbitgrowth.reproduce, the same code the `reproduce` CLI subcommand runs.
"""

import math
import time
from fractions import Fraction

from orbitgrowth.arith import sieve_primes
from orbitgrowth.cli import main as cli_main
from orbitgrowth.constants import transcendental_series
from orbitgrowth.integers import divisors, ord_p_mersenne
from orbitgrowth.mersenne import FactorCache, primitive_primes
from orbitgrowth.mertens import orbit_count, periodic_points, squarefree_slope
from orbitgrowth.reproduce import run_theorem
from orbitgrowth.sets import InducedPrimes, MultiplesOf


def _report(num: int, desc: str, ok: bool, elapsed: float, limit: float):
    tag = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{tag}  criterion {num:2d}  [{elapsed:6.1f}s / {limit:.0f}s]  {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_01_exact_constant(capsys):
    t0 = time.monotonic()
    code = cli_main(["k-exact", "--set", "3,7"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(1, "k-exact --set 3,7 prints 269/576 exactly",
                code == 0 and out.strip() == "269/576", elapsed, 1.0)


def test_criterion_02_valuation_oracle():
    t0 = time.monotonic()
    table = sieve_primes(10**4)
    ok = True
    for p in table.primes[1:].tolist():
        for n in range(1, 65):
            value = (1 << n) - 1
            expect = 0
            while value % p == 0:
                value //= p
                expect += 1
            if ord_p_mersenne(p, n) != expect:
                ok = False
    elapsed = time.monotonic() - t0
    _report(2, "ord_p(2^n - 1) matches the big-integer oracle, p <= 1e4, n <= 64",
            ok, elapsed, 60.0)


def test_criterion_03_moebius_round_trip():
    t0 = time.monotonic()
    ok = True
    sets = [[], [3], [3, 7], InducedPrimes(MultiplesOf(ells=[3]))]
    for s in sets:
        for n in range(1, 41):
            lhs = sum(d * orbit_count(d, s) for d in divisors(n))
            if lhs != periodic_points(n, s):
                ok = False
    elapsed = time.monotonic() - t0
    _report(3, "sum_{d|n} d O(d) = F(n) exactly, n <= 40, four prime sets",
            ok, elapsed, 30.0)


def test_criterion_04_zsigmondy(cache):
    t0 = time.monotonic()
    empty = [m for m in range(1, 129) if not primitive_primes(m, cache)]
    elapsed = time.monotonic() - t0
    _report(4, "primitive classes empty exactly at m in {1, 6} over m <= 128",
            empty == [1, 6], elapsed, 120.0)


def test_criterion_05_onto_slope():
    res = run_theorem("onto")
    _report(5, "dominant slope for 3 | m_p orders = 2/3 +- 0.01",
            res.passed, res.elapsed, 60.0)


def test_criterion_06_loglog_constant():
    res = run_theorem("loglog")
    _report(6, "prime-harmonic sum minus loglog settles at 0.26149 +- 1e-3",
            res.passed, res.elapsed, 120.0)


def test_criterion_07_logdelta_classification():
    res = run_theorem("logdelta")
    _report(7, "squarefree-augmented congruence orders classify as "
               "k (log N)^delta, delta in [0.4, 0.6]",
            res.passed, res.elapsed, 300.0)


def test_criterion_08_proposition_zero():
    res = run_theorem("zero")
    _report(8, "exact series for 3-free orders is bounded, tail Cauchy < 1e-2",
            res.passed, res.elapsed, 300.0)


def test_criterion_09_transcendental_series(cache):
    t0 = time.monotonic()
    ts = transcendental_series(3, 4, cache)
    expected = (
        Fraction(2, 3),
        Fraction(25, 36),
        Fraction(25, 36) + Fraction(1, 7992),
    )
    ok = tuple(ts.convergents[:3]) == expected
    ok &= all(a < b for a, b in zip(ts.convergents, ts.convergents[1:]))
    ok &= ts.tail_bound < Fraction(1, 1 << 79)
    elapsed = time.monotonic() - t0
    _report(9, "ell=3 series: exact convergents, increasing, tail < 2^-79",
            ok, elapsed, 10.0)


def test_criterion_10_dense_greedy():
    res = run_theorem("dense")
    _report(10, "greedy terminates in [k, k+eps) with the per-step bound, "
                "both targets", res.passed, res.elapsed, 300.0)


def test_criterion_11_interval_recursion():
    res = run_theorem("section9")
    _report(11, "recursion: idealized exact closed form; perturbed extremal "
                "passes all invariants; f(n) < 2^-(n+2)",
            res.passed, res.elapsed, 5.0)


def test_criterion_12_squarefree_constant():
    t0 = time.monotonic()
    sf = squarefree_slope(10**7)
    ok = abs(sf.slope - 6.0 / math.pi**2) <= 0.01
    elapsed = time.monotonic() - t0
    _report(12, "squarefree harmonic slope at 1e7 within 0.01 of 6/pi^2",
            ok, elapsed, 60.0)
