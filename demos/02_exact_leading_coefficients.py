#!/usr/bin/env python3
"""Exact leading coefficients k_S and the greedy density construction.

For finite S the orbit sum grows like k_S log N with k_S an exact
rational: the mean value of prod_{p in S} |2^n - 1|_p.  The engine expands
that product over the subsets T of S; each T contributes through the lcm of
the multiplicative orders of its members, all in exact arithmetic.
"""

from fractions import Fraction

from orbitgrowth.constants import greedy_L, k_exact_finite_s, k_order_bounds
from orbitgrowth.mersenne import FactorCache, primitive_primes

cache = FactorCache()

print("Exact coefficients for small sets")
for s in ([], [3], [7], [3, 7], [3, 5, 7], [1093]):
    k = k_exact_finite_s(s).value
    label = "{" + ",".join(map(str, s)) + "}"
    print(f"  k_{label:<12} = {str(k):<24} ~ {float(k):.9f}")
print("(1093 is a Wieferich prime: its order stratum carries 1093^-2,")
print(" picked up automatically by exponent lifting.)")

print()
print("Order classes: all primes sharing one prime order enter together.")
for ell in (3, 5, 7, 11, 13):
    members = sorted(p for p, _ in primitive_primes(ell, cache))
    k = k_exact_finite_s(members).value
    upper, _ = k_order_bounds([ell])
    print(f"  order {ell:>2}: class {members}  k = {str(k):<22} <= bound {upper}")

print()
print("Greedy selection of prime orders: land the coefficient in [k, k+eps).")
for target, eps in ((Fraction(9, 10), Fraction(1, 20)),
                    (Fraction(3, 4), Fraction(1, 10)),
                    (Fraction(1, 2), Fraction(1, 10))):
    trace = greedy_L(target, eps, cache)
    scanned = [f"{d.ell}{'+' if d.accepted else '-'}" for d in trace.decisions]
    print(f"  target [{float(target):.2f}, {float(target + eps):.2f}): "
          f"scanned {' '.join(scanned) or '(nothing)'} -> "
          f"k = {trace.k_final} ~ {float(trace.k_final):.6f}")
print("Every accepted step obeys the one-prime lower bound")
print("(1 - 1/ell) k_before <= k_after, certified in exact arithmetic.")
