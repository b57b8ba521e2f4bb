#!/usr/bin/env python3
"""Four growth regimes of the orbit sum, from one membership sieve.

When the order set M is closed under multiplication by the naturals, the
orbit sum reduces (up to a convergent remainder) to the factorization-free
dominant sum

    D(N) = sum_{n <= N, n not in M} 1/n.

Choosing M tunes the growth: k log N, k (log N)^delta, k (loglog N)^r, or
bounded.  Nothing here ever factors a Mersenne number.
"""

import math

from orbitgrowth.fitting import classify_growth, fit_model
from orbitgrowth.mertens import default_grid, dominant_sum
from orbitgrowth.sets import (
    CompositeNumbers,
    CongruenceSource,
    MultiplesOf,
    SquarefreeAugmented,
)

N = 10**6
GRID = default_grid(N, start=100)

print("Regime 1: logarithmic.  M = multiples of 3; excluded n keep 2/3 of")
print("the harmonic series, so D(N) ~ (2/3) log N.")
d = dominant_sum(N, MultiplesOf(ells=[3]), grid=GRID)
rep = fit_model(d.float_samples(), "k_log")
print(f"  fitted slope {rep.k:.6f} (2/3 = {2/3:.6f}), tail residual {rep.residual:.2e}")

print()
print("Regime 2: fractional log power.  M = 'divisible by a prime = 1 mod 3,")
print("or not squarefree'; the survivors thin out like 1/sqrt(log).")
mprime = SquarefreeAugmented(MultiplesOf(ell_set=CongruenceSource(3, [1])))
d = dominant_sum(N, mprime, grid=GRID)
rep = classify_growth(d.float_samples())
print(f"  classified: {rep.model} with delta = {rep.delta:.3f}, k = {rep.k:.3f}")

print()
print("Regime 3: doubly logarithmic.  M = non-primes; the survivors are the")
print("primes and D(N) is the classical prime harmonic sum.")
d = dominant_sum(N, CompositeNumbers(), grid=GRID)
rep = fit_model(d.float_samples(), "k_loglogr")
print(f"  best loglog power r = {rep.r}, k = {rep.k:.4f}")
final = d.float_samples()[-1][1]
print(f"  D(1e6) - loglog(1e6) = {final - math.log(math.log(N)):.6f}"
      f"  (the prime-harmonic constant, 0.26149...)")

print()
print("Regime 4: bounded.  Excluding the multiples of 3 from M (rather than")
print("keeping them) leaves so few survivors that the sum converges; see the")
print("exact-mode series in demo 01 and `orbitgrowth reproduce --theorem zero`.")

print()
print("The classifier separates all of these from shared evidence:")
for label, oset in (
    ("multiples_of(3)", MultiplesOf(ells=[3])),
    ("squarefree-augmented congruence", mprime),
):
    rep = classify_growth(dominant_sum(N, oset, grid=GRID).float_samples())
    print(f"  {label:<34} -> {rep.model}")
