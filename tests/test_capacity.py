"""Every documented capacity is enforced before any array is allocated, and
the largest sieve, density, squarefree sum, dominant sum and interval sets,
the exact series at its ceiling, and the largest recipes, fit their memory
bounds; the commands that only fit a series stay below what loading numpy
would cost."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import orbitgrowth
from orbitgrowth.arith import SIEVE_CAPACITY, sieve_primes
from orbitgrowth.errors import CapacityError
from orbitgrowth.mersenne import FactorCache, factor_mersenne
from orbitgrowth.mertens import EXACT_CEILING, default_grid, dominant_sum
from orbitgrowth.sets import (ExplicitFinitePrimes, ExplicitList, MultiplesOf, SquarefreeAugmented,
                              estimate_density, interval_L, prime_mask)

OVER_CAPACITY = {
    "sieve_primes": lambda: sieve_primes(SIEVE_CAPACITY + 1),
    "dominant_sum": lambda: dominant_sum(
        SIEVE_CAPACITY + 1, MultiplesOf(ells=[3])),
    "dominant_sum[squarefree]": lambda: dominant_sum(
        SIEVE_CAPACITY + 1, SquarefreeAugmented(ExplicitList([]))),
    "estimate_density": lambda: estimate_density(
        ExplicitFinitePrimes([3]), SIEVE_CAPACITY + 1),
    # The sieve would reach 2^(m_hi + 1) > SIEVE_CAPACITY.
    "interval_L": lambda: interval_L(1.0, 1, SIEVE_CAPACITY.bit_length()),
    # Windows over [0, SIEVE_CAPACITY + 1]: one integer past the last mask.
    "prime_mask": lambda: prime_mask(0, SIEVE_CAPACITY + 2),
    "indicator": lambda: MultiplesOf(ells=[3]).indicator(0, SIEVE_CAPACITY + 2),
}


@pytest.mark.parametrize("name", sorted(OVER_CAPACITY))
def test_over_capacity_raises_before_allocating(name, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError(f"{name} allocated an array before its capacity check")

    for alloc in ("zeros", "ones", "empty", "full", "arange"):
        monkeypatch.setattr(np, alloc, no_allocation)
    with pytest.raises(CapacityError):
        OVER_CAPACITY[name]()


# The 10^8 table holds about 76 MB: uint16 least factors of the n prime to
# 30 (53.3 MB) and int32 primes.  `sieve --out` streams its file a chunk at
# a time.  `sieve --limit 10^8` peaked at 102 MB, numpy and the package
# about 28 MB.
SIEVE_PEAK_MB = 122
# What sieve_primes(10^7) holds beyond the arrays it returns, as tracemalloc
# counts it, so heap layout does not move it: 0.68 MiB, the strike list and
# the pattern of 7, 11 and 13, or one step of the walk that collects the
# primes.
SIEVE_TRANSIENT_MIB = 1.0
# The dominant-mode accumulator asks for its mask a window at a time, so no
# array as long as N is built: the squarefree sum to 10^8 peaked at 33 MB, and
# dominant_sum(10^8) on the `logdelta` set at 50 MB, 12 MB of it the class
# primes 1 mod 3 as int32.  The recipes peaked at 34 MB (`transcendental`)
# and 36 MB (`logdelta`); numpy and the package alone take about 28 MB.
SQUAREFREE_PEAK_MB = 50
DOMINANT_PEAK_MB = 80
TRANSCENDENTAL_PEAK_MB = 45
LOGDELTA_PEAK_MB = 45
# One interval's odd-number flags at a time, not a mask over [0, 2^(m_hi + delta)].
INTERVAL_PEAK_MB = 120
# `reproduce --theorem zero` and `fit --model auto` run no numpy: they
# peaked at 15-17 MB, and a numpy import would add about 13 MB.
FIT_PEAK_MB = 22
# mertens_exact(EXACT_CEILING) on the multiples of 3 took 1.3 s and peaked
# at 36 MB on a 2-core x86-64 machine: integers below 2^(10^4) each, the
# F(n) and the totals of the Moebius inversion.  `series --mode exact` there
# writes each of its 30.5 MB of rows as it builds it, and peaked at 37 MB.
EXACT_PEAK_MB = 60
EXACT_SECONDS = 8
# factor_mersenne for m = 129..148 but 137 on top of the seed cache, the
# factoring that the exact_cache benchmark's first child does, took
# 0.11-0.13 s in process on a 2-core x86-64 machine.
FACTOR_SECONDS = 1.0
# The least-factor table, the int32 primes and their int32 orders while the
# orders are computed; then the table and the primes are dropped, and the
# sorted orders are gathered one window of the indicator at a time.  Both
# specs below peaked at 134 MB.
DENSITY_PEAK_MB = 158


# A child's ru_maxrss starts at the peak RSS of the process it was forked
# from, which for the test process can pass every bound below.  So a small
# launcher starts the child and reaps it by wait4, and writes the exit code
# and ru_maxrss (KB) to the file named by its first argument.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(proc.pid, 0)
with open(sys.argv[1], "w") as f:
    f.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""


def run_child(args, tmp_path):
    """`python args` in a grandchild of a small launcher: its exit code,
    its output and its own peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(Path(orbitgrowth.__file__).parents[1]))
    usage = tmp_path / "usage"
    with open(tmp_path / "out", "w+b") as out:
        subprocess.run([sys.executable, "-c", LAUNCHER, str(usage), sys.executable, *args],
                       stdout=out, stderr=subprocess.STDOUT, env=env, check=True)
        out.seek(0)
        text = out.read().decode()
    code, maxrss_kb = map(int, usage.read_text().split())
    return code, text, maxrss_kb / 1024


def test_sieve_transient_fits_traced_bound():
    """sieve_primes(10^7) allocates at most SIEVE_TRANSIENT_MIB beyond the
    arrays it returns."""
    sieve_primes(10)  # numpy loads outside the trace
    tracemalloc.start()
    try:
        table = sieve_primes(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    transient = (peak - table.primes.nbytes - table.smallest_factor.nbytes) / 2**20
    assert transient < SIEVE_TRANSIENT_MIB, f"{transient:.2f} MiB"


def test_sieve_at_capacity_fits_memory_bound(tmp_path):
    """`sieve --limit 10^8` within SIEVE_PEAK_MB."""
    code, text, peak_mb = run_child(
        ["-m", "orbitgrowth.cli", "sieve", "--limit", str(SIEVE_CAPACITY)], tmp_path)
    assert code == 0, text
    assert text == f"primes <= {SIEVE_CAPACITY}: 5761455\n"
    assert peak_mb < SIEVE_PEAK_MB, f"peak RSS {peak_mb:.0f} MB"


def test_sieve_out_at_capacity_fits_memory_bound(tmp_path):
    """`sieve --limit 10^8 --out F` (csv) within SIEVE_PEAK_MB: no list of
    the primes."""
    out = tmp_path / "primes.csv"
    code, text, peak_mb = run_child(
        ["-m", "orbitgrowth.cli", "sieve", "--limit", str(SIEVE_CAPACITY),
         "--out", str(out)], tmp_path)
    assert code == 0, text
    assert text == f"primes <= {SIEVE_CAPACITY}: 5761455\nwrote {out} (csv)\n"
    assert peak_mb < SIEVE_PEAK_MB, f"peak RSS {peak_mb:.0f} MB"
    with open(out, "rb") as fh:
        fh.seek(-9, os.SEEK_END)
        assert fh.read() == b"99999989\n"


@pytest.mark.parametrize("order_set, members", [
    ({"kind": "multiples_of", "ells": [3]}, 2160585),
    ({"kind": "multiples_of",
      "ell_set": {"kind": "congruence_primes", "modulus": 3, "residues": [1]}}, 4198597),
], ids=["multiples_of_3", "multiples_of_primes_1_mod_3"])
def test_set_density_at_capacity_fits_memory_bound(order_set, members, tmp_path):
    """`set-density --limit 10^8` on the multiples of 3, and of the primes
    1 mod 3, within DENSITY_PEAK_MB."""
    spec = tmp_path / "set.json"
    spec.write_text(json.dumps({"kind": "induced", "order_set": order_set}))
    code, text, peak_mb = run_child(
        ["-m", "orbitgrowth.cli", "set-density", "--spec", str(spec),
         "--limit", str(SIEVE_CAPACITY)], tmp_path)
    assert code == 0, text
    assert json.loads(text) == {"limit": SIEVE_CAPACITY, "member_count": members,
                                "ratio": members / 5761454, "total_count": 5761454}
    assert peak_mb < DENSITY_PEAK_MB, f"peak RSS {peak_mb:.0f} MB"


def test_squarefree_sum_at_capacity_fits_memory_bound(tmp_path):
    """dominant_sum(10^8) over the squarefree n within SQUAREFREE_PEAK_MB:
    window-sized masks and no array of the 61 million squarefree n."""
    code, text, peak_mb = run_child(
        ["-c", "from orbitgrowth.mertens import dominant_sum; "
               "from orbitgrowth.sets import ExplicitList, SquarefreeAugmented; "
               f"print(dominant_sum({SIEVE_CAPACITY}, "
               "SquarefreeAugmented(ExplicitList([]))).samples[-1][0])"], tmp_path)
    assert code == 0, text
    assert text == f"{SIEVE_CAPACITY}\n"
    assert peak_mb < SQUAREFREE_PEAK_MB, f"peak RSS {peak_mb:.0f} MB"


def test_dominant_sum_at_capacity_fits_memory_bound(tmp_path):
    """dominant_sum(10^8) on the `logdelta` recipe's set within
    DOMINANT_PEAK_MB: the class primes and window-sized arrays, no mask
    over [0, 10^8]."""
    code, text, peak_mb = run_child(
        ["-c", "from orbitgrowth.mertens import dominant_sum; "
               "from orbitgrowth.sets import CongruenceSource, MultiplesOf, "
               "SquarefreeAugmented; "
               "oset = SquarefreeAugmented(MultiplesOf(ell_set=CongruenceSource(3, [1]))); "
               f"print(dominant_sum({SIEVE_CAPACITY}, oset).samples[-1][0])"], tmp_path)
    assert code == 0, text
    assert text == f"{SIEVE_CAPACITY}\n"
    assert peak_mb < DOMINANT_PEAK_MB, f"peak RSS {peak_mb:.0f} MB"


def test_exact_series_at_ceiling_fits_bounds(tmp_path):
    """mertens_exact to EXACT_CEILING on the multiples of 3, in a cold
    process, within EXACT_SECONDS and EXACT_PEAK_MB."""
    t0 = time.monotonic()
    code, text, peak_mb = run_child(
        ["-c", "from orbitgrowth.mertens import EXACT_CEILING, mertens_exact; "
               "from orbitgrowth.sets import InducedPrimes, MultiplesOf; "
               "s = mertens_exact(EXACT_CEILING, InducedPrimes(MultiplesOf(ells=[3]))); "
               "print(s.samples[-1][0], f'{float(s.samples[-1][1]):.9f}')"], tmp_path)
    elapsed = time.monotonic() - t0
    assert code == 0, text
    assert text == "10000 6.068029302\n"
    assert peak_mb < EXACT_PEAK_MB, f"peak RSS {peak_mb:.0f} MB"
    assert elapsed < EXACT_SECONDS, f"{elapsed:.1f} s"


@pytest.mark.parametrize("to_file", [True, False], ids=["out_file", "out_stdout"])
def test_exact_series_csv_at_ceiling_fits_memory_bound(to_file, tmp_path):
    """`series --mode exact` to EXACT_CEILING on the multiples of 3, to a
    file and to stdout, within EXACT_PEAK_MB: no text of all the rows."""
    spec = tmp_path / "set.json"
    spec.write_text(json.dumps(
        {"kind": "induced", "order_set": {"kind": "multiples_of", "ells": [3]}}))
    csv = tmp_path / "series.csv"
    code, text, peak_mb = run_child(
        ["-m", "orbitgrowth.cli", "series", "--spec", str(spec), "--mode", "exact",
         "--n-max", str(EXACT_CEILING), "--out", str(csv) if to_file else "-"],
        tmp_path)
    assert code == 0, text[-2000:]
    if to_file:
        assert text == f"wrote {csv} ({EXACT_CEILING} rows)\n"
        text = csv.read_text(encoding="utf-8")
    rows = text.splitlines()
    assert rows[0] == "N,value,mode,bound_R,bound_Q"
    assert len(rows) == EXACT_CEILING + 1
    assert rows[-1].startswith(f"{EXACT_CEILING},")
    assert peak_mb < EXACT_PEAK_MB, f"peak RSS {peak_mb:.0f} MB"


def assert_reproduce_fits(theorem, bound_mb, tmp_path):
    """A cold `reproduce --theorem THEOREM` passes within bound_mb."""
    code, text, peak_mb = run_child(
        ["-m", "orbitgrowth.cli", "reproduce", "--theorem", theorem], tmp_path)
    assert code == 0, text
    assert text.startswith(f"PASS  {theorem}"), text
    assert peak_mb < bound_mb, f"peak RSS {peak_mb:.0f} MB"


def test_reproduce_transcendental_fits_memory_bound(tmp_path):
    """`reproduce --theorem transcendental`, whose squarefree sum runs to
    10^7, within TRANSCENDENTAL_PEAK_MB."""
    assert_reproduce_fits("transcendental", TRANSCENDENTAL_PEAK_MB, tmp_path)


def test_reproduce_logdelta_fits_memory_bound(tmp_path):
    """`reproduce --theorem logdelta`, whose dominant sum over the class
    primes 1 mod 3 runs to 10^7, within LOGDELTA_PEAK_MB."""
    assert_reproduce_fits("logdelta", LOGDELTA_PEAK_MB, tmp_path)


def test_interval_L_fits_memory_bound(tmp_path):
    """interval_L(0.5, 1, 26), which reaches 2^26.5 (about 9.5e7), within
    INTERVAL_PEAK_MB."""
    code, text, peak_mb = run_child(
        ["-c", "from orbitgrowth.sets import interval_L; "
               "print(interval_L(0.5, 1, 26)[-1].hi)"], tmp_path)
    assert code == 0, text
    assert text == "94906265\n"
    assert peak_mb < INTERVAL_PEAK_MB, f"peak RSS {peak_mb:.0f} MB"


def test_reproduce_zero_fits_memory_bound(tmp_path):
    """`reproduce --theorem zero`, an exact series and a classification,
    within FIT_PEAK_MB."""
    assert_reproduce_fits("zero", FIT_PEAK_MB, tmp_path)


def test_fit_fits_memory_bound(tmp_path):
    """`fit --model auto` on a half-decade series within FIT_PEAK_MB."""
    series = tmp_path / "series.csv"
    series.write_text("N,value\n" + "".join(
        f"{n},{0.6 * math.log(n) + 0.1!r}\n" for n in default_grid(10**6)))
    code, text, peak_mb = run_child(
        ["-m", "orbitgrowth.cli", "fit", "--in", str(series), "--model", "auto"],
        tmp_path)
    assert code == 0, text
    assert json.loads(text)["model"] == "k_log"
    assert peak_mb < FIT_PEAK_MB, f"peak RSS {peak_mb:.0f} MB"


def test_factoring_past_the_seed_fits_time_bound(tmp_path):
    """factor_mersenne for m = 129..148 but 137, with an empty overlay,
    within FACTOR_SECONDS."""
    cache = FactorCache(path=str(tmp_path / "overlay.jsonl"))
    t0 = time.monotonic()
    for m in range(129, 149):
        if m != 137:
            factor_mersenne(m, cache)
    elapsed = time.monotonic() - t0
    assert elapsed < FACTOR_SECONDS, f"{elapsed:.2f} s"
