#!/usr/bin/env python3
"""Periodic points, closed orbits, and the smoothed orbit sum.

The systems: the doubling map on the dual of the ring of S-integers, one
system per set S of odd primes.  Every inverted prime p removes the p-part
of 2^n - 1 from the count of points of period n:

    F(n) = (2^n - 1) * prod_{p in S} |2^n - 1|_p

Orbit counts follow by Möbius inversion, and the Mertens-style sum
M_S(N) = sum_{n <= N} O(n) 2^-n measures how the entropy log 2 shows up
in the orbit growth.
"""

from fractions import Fraction

from orbitgrowth.mertens import mertens_exact, orbit_count, periodic_points
from orbitgrowth.sets import InducedPrimes, MultiplesOf

print("Periodic points of the full doubling system vs. two S-integer systems")
print(f"{'n':>3} {'S = {}':>12} {'S = {3}':>12} {'S = {3,7}':>12}")
for n in range(1, 13):
    row = [periodic_points(n, s) for s in ([], [3], [3, 7])]
    print(f"{n:>3} {row[0]:>12} {row[1]:>12} {row[2]:>12}")

print()
print("Inverting 3 destroys the 2-cycle: F(1) = F(2) = 1, so O(2) = 0:")
print("  O(2) for S = {3}:", orbit_count(2, [3]))

print()
print("Exact orbit sums M_S(N) = sum O(n)/2^n (exact rationals)")
for s, name in (([], "{}"), ([3], "{3}"), ([3, 7], "{3, 7}")):
    series = mertens_exact(16, s)
    v = series.value_at(16)
    print(f"  S = {name:<8} M(16) = {v}  ~ {float(v):.6f}")

print()
print("M_{}(4) =", mertens_exact(4, []).value_at(4),
      "(= 1/2 + 1/4 + 2/8 + 3/16)")

print()
print("An induced set: S = all primes whose order is divisible by 3.")
s = InducedPrimes(MultiplesOf(ells=[3]))
series = mertens_exact(60, s)
for n in (10, 20, 40, 60):
    print(f"  M(N={n:>3}) ~ {float(series.value_at(n)):.6f}")
print("Growth is logarithmic in N with an exactly computable coefficient;")
print("see demo 02 for the coefficient and demo 03 for the other regimes.")
