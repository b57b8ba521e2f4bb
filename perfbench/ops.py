"""The operations of the density and exact_cache workloads.

Each workload is a list of (name, thunk) pairs; a thunk returns the op's
output as a string, which is compared with the recorded reference.  Names
are unique within a workload, so outputs can be compared whatever order the
seed put the ops in.

In a traced child this module must be imported after the tracer is
installed, so that the names it imports are the wrapped ones.
"""

from __future__ import annotations

import hashlib
import os
import random

import spec
from orbitgrowth.arith import OrderTable, sieve_primes
from orbitgrowth.constants import k_exact_finite_s
from orbitgrowth.errors import BudgetError
from orbitgrowth.mersenne import FactorCache, MersenneFactorization, factor_mersenne
from orbitgrowth.mertens import decompose_lcm_closed, f_series_direct, mertens_exact
from orbitgrowth.sets import (
    InducedPrimes,
    estimate_density,
    order_set_from_json,
    prime_set_from_json,
)


def series_digest(series) -> str:
    text = "\n".join(f"{n}:{v.numerator}/{v.denominator}"
                     for n, v in series.samples)
    return hashlib.sha256(text.encode()).hexdigest()


def _density(spec_json: dict) -> str:
    # Closure verification stays on, as in `orbitgrowth set-density`.
    est = estimate_density(prime_set_from_json(spec_json), spec.DENSITY_LIMIT)
    return f"{est.member_count}/{est.total_count}@{est.limit}"


def _least_factor_reference(n: int, small_primes: list[int]) -> int:
    for p in small_primes:
        if p * p > n:
            break
        if n % p == 0:
            return p
    return n


def _sieve(seed: int, notes: dict) -> str:
    """Prime count, sum and last prime, plus spot checks of the least-factor
    table against trial division at seeded points."""
    table = sieve_primes(spec.SIEVE_LIMIT)
    notes["sieve_bytes"] = table.primes.nbytes + table.smallest_factor.nbytes
    primes = table.primes
    small = [int(p) for p in primes[:1300]]  # every prime below 10^4
    rng = random.Random(seed)
    bad = 0
    for _ in range(spec.SIEVE_SPOT_CHECKS):
        n = rng.randint(2, spec.SIEVE_LIMIT)
        if table.least_factor(n) != _least_factor_reference(n, small):
            bad += 1
    return (f"count={len(primes)} sum={int(primes.sum())} "
            f"last={int(primes[-1])} least_factor_mismatches={bad}")


def density_ops(group: str, seed: int, notes: dict) -> list[tuple[str, object]]:
    """`notes` receives facts about the run that are not outputs."""
    if group == "sieve":
        return [(f"sieve_primes:{spec.SIEVE_LIMIT}", lambda: _sieve(seed, notes))]
    name = group.removeprefix("density:")
    return [(group, lambda: _density(spec.DENSITY_SPECS[name]))]


def _reopen(path: str) -> str:
    """Reload the written file through a fresh cache and list what it holds."""
    reopened = FactorCache(path=path)
    missing = [m for m in spec.FACTOR_EXPONENTS if m not in reopened]
    with open(path, "r", encoding="utf-8") as fh:
        lines = sorted(fh.read().splitlines())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return f"lines={len(lines)} missing={missing} sha256={digest}"


def _exact(pset_json: dict, orders: OrderTable, cache: FactorCache) -> str:
    series = mertens_exact(spec.EXACT_N_MAX, prime_set_from_json(pset_json),
                           orders, cache)
    return series_digest(series)


def _decompose(oset_json: dict, orders: OrderTable, cache: FactorCache) -> str:
    """decompose_lcm_closed must equal f_series_direct, exactly."""
    oset = order_set_from_json(oset_json)
    dec, _ = decompose_lcm_closed(spec.EXACT_N_MAX, oset, orders, cache)
    direct = f_series_direct(spec.EXACT_N_MAX, InducedPrimes(oset), orders, cache)
    agree = dec.samples == direct.samples
    return f"agree={agree} sha256={series_digest(dec)}"


def exact_cache_ops(group: str, seed: int, cache_path: str,
                    k_pool: list[tuple[int, ...]]) -> list[tuple[str, object]]:
    """`factor` writes the cache file, `exact` reads it back, `k` needs
    neither."""
    if group == "factor":
        if os.path.exists(cache_path):
            raise FileExistsError(cache_path)
        cache = FactorCache(path=cache_path)
        ops = [(f"factor_mersenne:{m}",
                lambda m=m: factor_mersenne(m, cache).to_json())
               for m in spec.factor_order(seed)]
        ops.append(("flush", lambda: f"appended={cache.flush()}"))
        return ops
    if group == "exact":
        cache = FactorCache(path=cache_path)
        orders = OrderTable()
        ops = [("reopen", lambda: _reopen(cache_path))]
        ops += [(f"mertens_exact:{name}", lambda s=s: _exact(s, orders, cache))
                for name, s in spec.EXACT_SETS.items()]
        ops += [(f"decompose_vs_direct:{name}",
                 lambda s=s: _decompose(s, orders, cache))
                for name, s in spec.LCM_CLOSED_SETS.items()]
        return ops
    anchor = spec.K_ANCHOR
    ops = [("k_exact_anchor:" + ",".join(map(str, anchor)),
            lambda: str(k_exact_finite_s(list(anchor)).value))]
    for i in spec.k_batch(seed):
        primes = k_pool[i]
        ops.append((f"k_exact:#{i}:" + ",".join(map(str, primes)),
                    lambda p=primes: str(k_exact_finite_s(list(p)).value)))
    return ops


def budget_probe() -> dict:
    """factor_mersenne under a short budget must stop with BudgetError and
    partial factors whose product with the cofactors is 2^m - 1."""
    m = spec.PROBE_EXPONENT
    try:
        fz = factor_mersenne(m, FactorCache(), budget=spec.PROBE_BUDGET_S)
    except BudgetError as exc:
        part = exc.partial
        prod = 1
        for p, e in part.factors.items():
            prod *= p**e
        for c in part.cofactors:
            prod *= c
        consistent = part.m == m and prod == (1 << m) - 1
        return {"outcome": "budget_error", "ok": consistent}
    # A complete answer is product-checked when it is constructed.
    return {"outcome": "complete",
            "ok": isinstance(fz, MersenneFactorization) and fz.m == m}
