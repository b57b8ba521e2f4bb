"""Exact integer arithmetic with no arrays: the package's integer core.

Primality, factoring, divisors, Möbius and totient, p-adic valuations,
multiplicative orders of 2 with their memo, exponent lifting and cyclotomic
values Phi_n(2).  Everything is plain Python integers and the module needs
only the standard library, so the commands built on it (k-exact, order,
factor, greedy, construct, series-transcendental, exact-mode series) run
without numpy, which loads on the first array; the sieves and bulk orders
that need arrays are in `arith`.  All factoring, of p - 1 here and of
2^m - 1 in `mersenne`, goes through factor_by_trial: trial division that
stops once the part left is prime, then per composite piece Pollard p - 1
(stage 1 to PM1_BOUND, stage 2 to PM1_BOUND2) and Brent rho, under a
deadline (FACTORIZE_BUDGET seconds by default).  factorize keeps its
answers for n below FACTOR_MEMO_BOUND, so the exact layer factors each
small n once.  One bytearray sieve of an arithmetic progression serves
all of it: over the odd numbers it lists the small primes on demand, only
as far as a caller needs (the array layer's primes up to sqrt(N) too),
and the stage-2 primes segment by segment; over 1 + step, 1 + 2 step, ...
it gives factor_mersenne its trial divisors, the only primes that can
divide a primitive part.  A progression
finds each sieving prime's first multiple once and every segment carries
on from there; a single window is the one-segment case.  Nothing is
sieved at import.
The package runs in one thread per process, so the prime list, the
factorize memo and ORDERS, the process's one OrderTable, hold no locks:
every exact quantity reads its m_p and e_p there.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from itertools import compress, takewhile

from .errors import BudgetError, InvariantViolation

# Deterministic Miller-Rabin bases.  The first 13 prime bases are a proven
# witness set below 3.3e24; the remaining bases (40 fixed odd-prime bases in
# total) push the error probability below 4^-40 for larger inputs, which is
# the advertised contract for "certified" flags.
_MR_BASES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173,
)
MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
# (psi, k): below psi the first k prime bases decide primality, psi being
# the least strong pseudoprime to them (Jaeschke 1993; Sorenson and Webster
# 2017).  psi_8 = psi_7 and psi_11 = psi_10 = psi_9, so 8, 10 and 11 bases
# never help; the last psi is MR_PROVEN_BOUND.
_MR_PSI = (
    (2047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
    (2_152_302_898_747, 5), (3_474_749_660_383, 6), (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9), (318_665_857_834_031_151_167_461, 12),
    (MR_PROVEN_BOUND, 13),
)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, deterministic below MR_PROVEN_BOUND: there it tries the
    first k prime bases that _MR_PSI gives for n, and all 40 at or above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    k = next((k for psi, k in _MR_PSI if n < psi), len(_MR_BASES))
    return _strong_probable_prime(n, _MR_BASES[:k])


def _strong_probable_prime(n: int, bases) -> bool:
    """The strong probable-prime test of odd n > 2 to each of the bases."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# factorize trial-divides by the primes up to TRIAL_LIMIT.  _primes holds
# the primes up to _sieved_to and grows on demand.
TRIAL_LIMIT = 10**5
_primes = [2, 3, 5, 7]
_sieved_to = 10
_PM1_SEGMENT = 1 << 15  # terms per sieve segment of a progression


def _small_primes(limit: int) -> list[int]:
    """The primes up to at least `limit`, ascending.  The list grows, at
    least doubling while below TRIAL_LIMIT, by a new list rather than in
    place, so a caller may keep iterating the one it was given."""
    global _primes, _sieved_to
    if limit > _sieved_to:
        new = max(limit, min(2 * _sieved_to, TRIAL_LIMIT))
        _small_primes(math.isqrt(new))  # the sieving primes, first
        lo = _sieved_to + 1 | 1
        flags = _prime_flags(lo, new + 1, 2)
        _primes = _primes + list(compress(range(lo, new + 1, 2), flags))
        _sieved_to = new
    return _primes


def _primes_to(limit: int) -> list[int]:
    """The primes up to `limit`, ascending, as a new list."""
    return list(takewhile(lambda p: p <= limit, _small_primes(limit)))


def _prime_flags(lo: int, hi: int, step: int) -> bytearray:
    """One bytearray over the terms lo, lo + step, ... below hi of a
    progression with even step and lo >= 3 prime to step: entry i is 1
    exactly when lo + i * step is prime.  The odd numbers are step 2.
    The one-segment case of _flag_segments."""
    return next(_flag_segments(lo, hi, step, max(hi - lo, 1)), bytearray())


def _flag_segments(lo: int, hi: int, step: int, span: int):
    """The flags of _prime_flags over lo, lo + step, ... below hi, one
    bytearray per segment of at most `span` terms, each built when it is
    reached.

    Each prime p up to isqrt(hi - 1) that does not divide step clears the
    terms divisible by p, which are p entries apart, except p itself.  It
    joins at the first segment whose end passes p * p, where its first
    such term is found by pow(step, -1, p), once: each later segment
    carries on from where the one before stopped."""
    primes = _small_primes(math.isqrt(hi - 1))
    joined = 0  # primes[:joined] are set up (2 divides step, so it is skipped)
    pairs = []  # (p, index of p's next multiple in the coming segment)
    n = len(range(lo, hi, step))
    for base in range(0, n, span):
        size = min(span, n - base)
        a = lo + base * step
        top = bisect_right(primes, math.isqrt(min(a + size * step, hi) - 1))
        for p in primes[joined:top]:
            if step % p:
                i = -a * pow(step, -1, p) % p  # the first term divisible by p
                pairs.append((p, i + p if a + i * step == p else i))
        joined = top
        flags = bytearray([1]) * size
        for p, i in pairs:
            flags[i::p] = bytes(len(range(i, size, p)))
        yield flags
        # i < size + p, as p itself lies in the segment it joins
        pairs = [(p, (i - size) % p) for p, i in pairs]


def progression_segments(lo: int, hi: int, step: int):
    """The primes among lo, lo + step, ... below hi (even step, lo >= 3
    prime to step), ascending: one iterator per sieve segment of
    _PM1_SEGMENT terms, each segment sieved when it is reached, from
    sieving offsets found once for the whole progression."""
    for a, flags in zip(range(lo, hi, step * _PM1_SEGMENT),
                        _flag_segments(lo, hi, step, _PM1_SEGMENT)):
        yield compress(range(a, min(a + step * _PM1_SEGMENT, hi), step), flags)


def _brent_rho(n: int, deadline: float) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n.

    Fully deterministic: the polynomial offset c walks 1, 2, 3, ... so runs
    are reproducible.  The monotonic clock is checked against `deadline`
    before every batch of at most 128 squarings; past it, BudgetError.
    """
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        m = 128
        while g == 1:
            x = y
            for k in range(0, r, m):
                _check_deadline(deadline, n)
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                _check_deadline(deadline, n)
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InvariantViolation(f"core-arith: rho failed to split {n}")  # pragma: no cover


# Seconds that factorize, and by default factor_mersenne, may spend
# factoring; past it, BudgetError.
FACTORIZE_BUDGET = 10.0

# Stage-1 and stage-2 bounds of Pollard's p - 1 method.  The stage-1
# exponent E (14447 bits) is built on the first call, never at import.
PM1_BOUND = 10**4
PM1_BOUND2 = 10**6
_pm1_exponent: int | None = None


def _pollard_pm1(n: int, k: int, deadline: float) -> int | None:
    """One Pollard p - 1 split of composite n, or None.

    Stage 1: g = gcd(x - 1, n) for x = 3^(k E), E the product of the largest
    powers of the primes up to PM1_BOUND, takes every prime r of n whose
    r - 1 divides k E.  When g = 1, stage 2 (Montgomery 1987) takes every r
    whose r - 1 divides k E q for one prime q in (PM1_BOUND, PM1_BOUND2]:
    it steps x^q from prime to prime by cached powers x^gap, multiplies the
    x^q - 1 together mod n, and takes the gcd with n at the end of each
    sieve segment, stopping at the first that exceeds 1.  Returns g when it
    splits n and None when it is 1 or n.  The deadline is checked before
    stage 1 and before each stage-2 segment.
    """
    global _pm1_exponent
    if _pm1_exponent is None:
        exponent = 1
        for p in takewhile(lambda p: p <= PM1_BOUND, _small_primes(PM1_BOUND)):
            pk = p
            while pk * p <= PM1_BOUND:
                pk *= p
            exponent *= pk
        _pm1_exponent = exponent
    _check_deadline(deadline, n)
    x = pow(3, k * _pm1_exponent, n)
    g = math.gcd(x - 1, n)
    if g == 1:
        steps: dict[int, int] = {}  # gap -> x^gap
        q, y = PM1_BOUND, pow(x, PM1_BOUND, n)  # y = x^q
        product = 1
        for segment in progression_segments(PM1_BOUND + 1 | 1, PM1_BOUND2 + 1, 2):
            _check_deadline(deadline, n)
            for r in segment:
                step = steps.get(r - q)
                if step is None:
                    step = steps[r - q] = pow(x, r - q, n)
                q, y = r, y * step % n
                product = product * (y - 1) % n
            g = math.gcd(product, n)
            if g > 1:
                break
    return g if 1 < g < n else None


def _check_deadline(deadline: float, n: int) -> None:
    if time.monotonic() > deadline:
        raise BudgetError(f"core-arith: deadline passed while splitting {n}")


def factor_by_trial(n: int, candidates, k: int, deadline: float) -> dict[int, int]:
    """Full factorization of n >= 1 whose prime factors past trial division
    are odd, with the primes in ascending order as far as trial division
    reaches.

    Tests n, and the part left after each trial factor divided out, with
    is_probable_prime and stops once that part is prime, drawing no further
    candidate; until then trial-divides it by the increasing `candidates`
    while p * p <= n.  The candidates must include every prime factor of n
    below the last of them, so trial division ends at p * p > n only at a
    part of 1.  A part left when they run out is tested with
    is_probable_prime, as is every piece split from it; a composite square
    becomes its root twice, and any other composite gets one _pollard_pm1
    step with multiplier k (stage 1, then stage 2 when stage 1 finds
    nothing), then _brent_rho when that does not split it.  Past
    `deadline`, BudgetError whose `partial` is (factors found so far,
    composite cofactors left), which multiply to n.
    """
    out: dict[int, int] = {}
    if is_probable_prime(n):
        return {n: 1}
    for p in candidates:
        if p * p > n:
            break
        if n % p == 0:
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
            if is_probable_prime(n):
                out[n] = 1
                return out
    composites: list[int] = []

    def record(piece: int) -> None:
        if is_probable_prime(piece):
            out[piece] = out.get(piece, 0) + 1
        else:
            composites.append(piece)

    if n > 1:
        record(n)
    while composites:
        c = composites.pop()
        root = math.isqrt(c)
        if root * root == c:
            record(root)
            record(root)
            continue
        try:
            d = _pollard_pm1(c, k, deadline) or _brent_rho(c, deadline)
        except BudgetError as exc:
            raise BudgetError(str(exc), partial=(out, composites + [c])) from None
        record(d)
        record(c // d)
    return out


# factorize keeps its answers for n below FACTOR_MEMO_BOUND, which covers
# the exact layer's ceiling of 10^4: about 3 MB when full.
FACTOR_MEMO_BOUND = 2**14
_factored: dict[int, dict[int, int]] = {}


def factorize(n: int) -> dict[int, int]:
    """Full factorization of n >= 1 by factor_by_trial over the primes up to
    isqrt(n), or TRIAL_LIMIT when that is smaller, under a deadline
    FACTORIZE_BUDGET seconds away; past it, BudgetError.  Up to
    TRIAL_LIMIT^2 the primes come out in ascending order.  Each call
    returns a new dict; below FACTOR_MEMO_BOUND it is a copy of the
    process's memo, so each such n is factored once.
    """
    if n < 1:
        raise ValueError(f"core-arith: cannot factor {n}")
    fac = _factored.get(n)
    if fac is None:
        fac = factor_by_trial(n, _small_primes(min(math.isqrt(n), TRIAL_LIMIT)), 1,
                              time.monotonic() + FACTORIZE_BUDGET)
        if n >= FACTOR_MEMO_BOUND:
            return fac
        _factored[n] = fac
    return dict(fac)


def divisors(n: int) -> list[int]:
    """Sorted divisors of n."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def moebius(n: int) -> int:
    """Möbius function; 0 on squareful n."""
    if n < 1:
        raise ValueError(f"core-arith: moebius undefined at {n}")
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient."""
    if n < 1:
        raise ValueError(f"core-arith: totient undefined at {n}")
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def ord_p(n: int, p: int) -> int:
    """Largest e with p^e | n.  Returns 0 when p does not divide n."""
    if n < 1:
        raise ValueError(f"core-arith: valuation of {n} is undefined")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def mult_order(p: int) -> int:
    """Least m with 2^m = 1 mod p, for an odd prime p.

    Factors p-1 and strips prime factors from the exponent while the
    congruence survives.
    """
    if p < 3 or p % 2 == 0 or not is_probable_prime(p):
        raise ValueError(f"core-arith: mult_order needs an odd prime, got {p}")
    m = p - 1
    for q in factorize(p - 1):
        while m % q == 0 and pow(2, m // q, p) == 1:
            m //= q
    return m


class OrderTable:
    """Memo of p -> m_p and p -> e_p = ord_p(2^{m_p}-1), with the inverse index.

    e_p is obtained by lifting: square-and-multiply 2^{m_p} modulo p^k for
    growing k until the congruence breaks.  No factorization of 2^{m_p}-1
    is ever needed, so Wieferich-style e_p >= 2 is handled uniformly.
    """

    def __init__(self):
        self._orders: dict[int, int] = {}
        self._exponents: dict[int, int] = {}

    def order(self, p: int) -> int:
        m = self._orders.get(p)
        if m is None:
            m = self._orders[p] = mult_order(p)
        return m

    def exponent(self, p: int) -> int:
        e = self._exponents.get(p)
        if e is None:
            m = self.order(p)
            e = 1
            while pow(2, m, p ** (e + 1)) == 1:
                e += 1
            self._exponents[p] = e
        return e

    def register_class(self, m: int, members: frozenset[tuple[int, int]]) -> None:
        """Record m_p = m and e_p for the primitive class of m (from a factor cache)."""
        for p, e in members:
            self._orders[p] = m
            self._exponents[p] = e


# The process's order memo: every m_p and e_p the package computes.
ORDERS = OrderTable()


def ord_p_mersenne(p: int, n: int) -> int:
    """ord_p(2^n - 1) without ever forming 2^n - 1.

    Equals e_p + ord_p(n) when m_p | n and 0 otherwise.
    """
    if n < 1:
        raise ValueError(f"core-arith: exponent must be >= 1, got {n}")
    if n % ORDERS.order(p):
        return 0
    return ORDERS.exponent(p) + ord_p(n, p)


def cyclotomic_eval2(n: int) -> int:
    """Phi_n(2), evaluated exactly as prod_{d|n} (2^d - 1)^{mu(n/d)}.

    The mu = +1 and mu = -1 passes are kept as separate integers so the
    final division is a single exact divmod.
    """
    if n < 1:
        raise ValueError(f"core-arith: cyclotomic index must be >= 1, got {n}")
    num = 1
    den = 1
    for d in divisors(n):
        mu = moebius(n // d)
        if mu == 1:
            num *= (1 << d) - 1
        elif mu == -1:
            den *= (1 << d) - 1
    q, r = divmod(num, den)
    if r:
        raise InvariantViolation(f"core-arith: Phi_{n}(2) division not exact")
    return q
