#!/usr/bin/env python3
"""Prime sets built from dyadic intervals, and the recursion behind them.

A union of intervals (2^m, 2^(m+delta)] captures a delta-share of the
primes in the log p / p sense - that is how irrational densities are
realized.  Hitting an exact target product prod (1 + 1/p) = c additionally
needs a tail of rapidly shrinking intervals (2^(R_n), 2^(R_n r_n)] whose
lengths r_n obey a halving recursion.  The giant intervals are never
enumerated; the recursion is verified under an idealized/perturbed error
model with the derived per-step amplitude a' * 100^(-2^(n/4)).
"""

import math
from fractions import Fraction

import numpy as np

from orbitgrowth.arith import sieve_primes
from orbitgrowth.constants import (
    greedy_product_subset,
    greedy_subsequence,
    rn_recursion,
)
from orbitgrowth.sets import interval_L

print("Interval prime sets: each (2^m, 2^(m+1/2)] carries ~ (1/2) log 2")
for rec in interval_L(0.5, 16, 22):
    print(f"  m = {rec.m:>2}: {rec.prime_count:>6} primes, "
          f"sum log p / p = {rec.sum_logp_over_p:.4f} "
          f"(target {rec.target:.4f})")

print()
print("Exact target products from a finite pool (window (c(1-eps), c]):")
pool = [int(p) for p in sieve_primes(100).primes[1:]]
for c in (Fraction(4, 3), Fraction(3, 2), Fraction(2, 1)):
    res = greedy_product_subset(pool, c, Fraction(1, 1000))
    how = "search" if res.via_search else "greedy"
    print(f"  c = {c}: chose {res.chosen} ({how}), "
          f"product = {float(res.achieved):.6f}")

print()
print("The interval-length recursion at delta = 1/2, Y = 50")
trace = rn_recursion(Fraction(1, 2), 50, 16, mode="perturbed",
                     sign_pattern="alternating")
print(f"  a' = {float(trace.a_prime):.6f} "
      f"(window ({float(trace.delta)/(5*trace.y):.6f}, "
      f"{(4/3)*math.log1p(float(trace.delta)/trace.y):.6f}))")
print("   n         R_n        r_n - 1      cap delta/R_n")
for step in trace.steps[:8]:
    print(f"  {step.n:>2}  {step.big_r:>10}  {math.expm1(step.log_r_n):.3e}      "
          f"{step.r_cap:.3e}")
print(f"  invariants hold at every step: {trace.all_ok}")

print()
print("Greedy subsequences track any slowly growing target from below:")
x_max = 10**6
table = sieve_primes(x_max)
w = np.zeros(x_max + 1)
w[table.primes] = 1.0 / table.primes
report = greedy_subsequence(
    w, lambda x: 0.5 * math.log(math.log(x)) if x >= 2 else -1.0, x_max
)
print(f"  selected {report.selected_count} primes; "
      f"sum = {report.selected_sum:.4f} vs target "
      f"{0.5 * math.log(math.log(x_max)):.4f} "
      f"(final error {report.final_error:.4f})")
