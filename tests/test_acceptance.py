"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them live) and enforcing the stated tolerance and time
budget.  Criteria 5-12 dispatch through run_theorem in
orbitgrowth.reproduce, the same code the `reproduce` CLI subcommand runs,
and each holds the recipe's output, elapsed time masked, to the
benchmark's golden record of `reproduce` stdout.
"""

import importlib.util
import json
import time
from pathlib import Path

from orbitgrowth.arith import sieve_primes
from orbitgrowth.cli import main as cli_main
from orbitgrowth.integers import divisors, ord_p_mersenne
from orbitgrowth.mersenne import primitive_primes
from orbitgrowth.mertens import orbit_count, periodic_points
from orbitgrowth.reproduce import run_theorem
from orbitgrowth.sets import InducedPrimes, MultiplesOf

# The golden record and its one elapsed-time mask live with the benchmark,
# which is not a package: its spec module is loaded from its file.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_spec", PERFBENCH / "spec.py")
perfbench_spec = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_spec)
GOLDEN_STDOUT = json.loads((PERFBENCH / "golden" / "reference.json").read_text(
    encoding="utf-8"))["ops"]["reproduce"]


def _report(num: int, desc: str, ok: bool, elapsed: float, limit: float):
    tag = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{tag}  criterion {num:2d}  [{elapsed:6.1f}s / {limit:.0f}s]  {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def _report_recipe(num: int, desc: str, theorem: str, limit: float):
    """run_theorem(theorem), reported as criterion `num`; its `reproduce`
    stdout, elapsed time masked, must equal the golden record."""
    res = run_theorem(theorem)
    _report(num, desc, res.passed, res.elapsed, limit)
    stdout = "".join(line + "\n" for line in res.lines())
    assert perfbench_spec.mask_elapsed(stdout) == GOLDEN_STDOUT[f"reproduce:{theorem}"]


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
    _report_recipe(5, "dominant slope for 3 | m_p orders = 2/3 +- 0.01",
                   "onto", 60.0)


def test_criterion_06_loglog_constant():
    _report_recipe(6, "prime-harmonic sum minus loglog settles at 0.26149 +- 1e-3",
                   "loglog", 120.0)


def test_criterion_07_logdelta_classification():
    _report_recipe(7, "squarefree-augmented congruence orders classify as "
                      "k (log N)^delta, delta in [0.4, 0.6]", "logdelta", 300.0)


def test_criterion_08_proposition_zero():
    _report_recipe(8, "exact series for 3-free orders is bounded, tail Cauchy < 1e-2",
                   "zero", 300.0)


def test_criterion_09_transcendental_series():
    _report_recipe(9, "ell=3 series: exact convergents, increasing, tail < 2^-79",
                   "transcendental", 10.0)


def test_criterion_10_dense_greedy():
    _report_recipe(10, "greedy terminates in [k, k+eps) with the per-step bound, "
                       "both targets", "dense", 300.0)


def test_criterion_11_interval_recursion():
    _report_recipe(11, "recursion: idealized exact closed form; perturbed extremal "
                       "passes all invariants; f(n) < 2^-(n+2)", "section9", 5.0)


def test_criterion_12_squarefree_constant():
    _report_recipe(12, "squarefree harmonic slope at 1e7 within 0.01 of 6/pi^2",
                   "transcendental", 60.0)
