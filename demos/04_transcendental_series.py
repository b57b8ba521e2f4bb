#!/usr/bin/env python3
"""Two constants with provably non-rational flavor, at desk scale.

First, the squarefree harmonic slope: excluding non-squarefree orders
leaves a sum growing like (6/pi^2) log N.  Second, the order-power series:
taking M = {powers of an odd prime ell} gives a leading coefficient

    k = sum_e (ell - 1) / (ell^(e+1) (2^(ell^e) - 1)) * prod_{p | 2^(ell^e)-1} p/(p+1)

whose partial sums are rationals converging fast enough that the limit is
extraordinarily well approximated - the engine emits the convergents and a
rigorous tail bound for each truncation.
"""

import math

from orbitgrowth.constants import transcendental_series
from orbitgrowth.fitting import fit_model
from orbitgrowth.mersenne import FactorCache
from orbitgrowth.mertens import dominant_sum
from orbitgrowth.reproduce import SQUAREFREE_GRID
from orbitgrowth.sets import ExplicitList, SquarefreeAugmented

cache = FactorCache()

print("Squarefree harmonic slope (dyadic grid, fixed-point accumulation)")
# The squarefree n are those outside squarefree_augmented over the empty
# list.  The recipe's grid cut at 1e6 spans 2.99 decades, just short of
# what a strict growth fit asks for.
grid = [g for g in SQUAREFREE_GRID if g < 10**6] + [10**6]
series = dominant_sum(10**6, SquarefreeAugmented(ExplicitList([])), grid=grid)
slope = fit_model(series.float_samples(), "k_log", strict=False).k
print(f"  slope at N = 1e6: {slope:.6f}   6/pi^2 = {6 / math.pi**2:.6f}")

print()
print("Order-power series at ell = 3")
ts = transcendental_series(3, 5, cache)
for e, (conv, term) in enumerate(zip(ts.convergents, ts.term_values)):
    print(f"  e = {e}: term {str(term):<28} partial sum {conv} ~ {float(conv):.12f}")
print(f"  tail after 5 terms < 2^-{3**5 - 1}")
print()
print("Each convergent is a rational approximation far better than its")
print("denominator size alone would allow; the gaps shrink like 2^(-3^e).")
denoms = [c.denominator for c in ts.convergents]
for i in range(len(ts.convergents) - 1):
    gap = float(ts.convergents[i + 1] - ts.convergents[i])
    print(f"  |a_{i+1} - a_{i}| = {gap:.3e}   denominator b_{i} = {denoms[i]}")
