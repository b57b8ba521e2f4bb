"""Exact elementary number theory.

Primes and least-factor sieves, multiplicative orders of 2, Möbius and
totient, p-adic valuations, and cyclotomic values Phi_n(2).  Everything
here is exact integer arithmetic; numpy is used only inside the sieves.
The least-factor table covers odd n only, as uint16 with 0 at primes, and
only PrimeTable reads it.  Tables are immutable once built.  The package
runs in one thread per process, so the module-level tables and the
OrderTable memo hold no locks.  All factoring past the small table, of
p - 1 here and of 2^m - 1 in `mersenne`, goes through factor_by_trial:
trial division, then one Pollard p - 1 step and Brent rho per composite
piece, under a deadline (FACTORIZE_BUDGET seconds by default).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, CapacityError, InvariantViolation

SIEVE_CAPACITY = 10**8
SIEVE_BLOCK = 2**20
ORDER_CHUNK = 2**16

# The least factor of a composite n <= SIEVE_CAPACITY is at most its square
# root, which the uint16 least-factor table must hold.
if math.isqrt(SIEVE_CAPACITY) >= 2**16:
    raise InvariantViolation("core-arith: SIEVE_CAPACITY puts least factors past uint16")

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


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin over the fixed base set; deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def is_prime_power(n: int) -> bool:
    """n = p^k for a prime p and some k >= 1, decided without factoring n:
    for each k up to log2(n), the integer k-th root of n by Newton's method."""
    for k in range(1, n.bit_length() + 1):
        r = 1 << -(-n.bit_length() // k)  # at least the root
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
        if r**k == n and is_probable_prime(r):
            return True
    return False


def primality_certified(n: int) -> bool:
    """True when is_probable_prime is a proof rather than 40-round evidence."""
    return n < MR_PROVEN_BOUND


@dataclass(frozen=True)
class PrimeTable:
    """Primes up to `limit` plus a least-prime-factor table of the odd n.

    Entry i of `smallest_factor` (uint16) is for n = 2i + 1, i in
    [0, (limit - 1) // 2]: the least prime factor of an odd composite n,
    and 0 at a prime and at n = 1.  Every even n has least factor 2.
    """

    limit: int
    primes: np.ndarray  # int64, ascending from 2
    smallest_factor: np.ndarray

    def least_factor(self, n: int) -> int:
        if n < 2 or n > self.limit:
            raise CapacityError(f"core-arith: {n} outside table range [2, {self.limit}]")
        if n % 2 == 0:
            return 2
        return int(self.smallest_factor[n >> 1]) or n

    def least_factors(self, x: np.ndarray) -> np.ndarray:
        """least_factor of every x in [2, limit], in x's integer dtype."""
        f = self.smallest_factor[(x - 1) >> 1].astype(x.dtype)
        prime = f == 0
        f[prime] = x[prime]
        f[x & 1 == 0] = 2
        return f

    def factorize(self, n: int) -> dict[int, int]:
        """Factor n by repeated least-factor lookup. Requires 1 <= n <= limit."""
        if n < 1 or n > self.limit:
            raise CapacityError(f"core-arith: {n} outside table range [1, {self.limit}]")
        out: dict[int, int] = {}
        e = (n & -n).bit_length() - 1
        if e:
            out[2] = e
            n >>= e
        while n > 1:
            p = int(self.smallest_factor[n >> 1]) or n
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        return out


def prime_flags(limit: int) -> np.ndarray:
    """Boolean array over [0, limit]; True exactly at primes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def sieve_primes(limit: int) -> PrimeTable:
    """Least-factor sieve of the odd n <= limit, walked in blocks of
    SIEVE_BLOCK entries (2 * SIEVE_BLOCK integers).

    In each block the odd primes up to sqrt(limit) write themselves over
    their odd multiples in descending order, so the least factor is written
    last; entries no prime reaches stay 0 and are primes (or n = 1).  The
    prime count is taken block by block, so `primes` is allocated once at
    its final size and filled in a second walk.
    """
    if limit < 2:
        raise CapacityError(f"core-arith: sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_CAPACITY:
        raise CapacityError(
            f"core-arith: sieve limit {limit} exceeds capacity bound {SIEVE_CAPACITY}"
        )
    base = np.flatnonzero(prime_flags(math.isqrt(limit)))[:0:-1].tolist()  # odd, descending
    size = (limit - 1) // 2 + 1
    spf = np.empty(size, dtype=np.uint16)
    count = 0  # entries left at 0: the odd primes and n = 1
    for lo in range(0, size, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, size)
        block = spf[lo:hi]
        block[:] = 0
        for p in base:
            start = (p * p) >> 1  # the index of p * p
            if start < lo:
                start = lo + (start - lo) % p
            if start < hi:
                block[start - lo :: p] = p
        count += block.size - np.count_nonzero(block)
    primes = np.empty(count, dtype=np.int64)  # 2, then the odd primes
    primes[0] = 2
    k = 1
    for lo in range(0, size, SIEVE_BLOCK):
        odd = np.flatnonzero(spf[lo : lo + SIEVE_BLOCK] == 0)
        if lo == 0:
            odd = odd[1:]  # n = 1
        primes[k : k + odd.size] = 2 * (odd + lo) + 1
        k += odd.size
    return PrimeTable(limit=limit, primes=primes, smallest_factor=spf)


# Shared small table for factoring moderate integers without re-sieving,
# and its primes as a Python list for trial division, converted on the first
# factorize call above the table.
_small_table: PrimeTable | None = None
_small_primes: list[int] | None = None


def small_prime_table() -> PrimeTable:
    global _small_table
    if _small_table is None:
        _small_table = sieve_primes(10**5)
    return _small_table


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

# Stage-1 bound of Pollard's p - 1 method.  The exponent E it gives (14447
# bits) is built on the first call, never at import.
PM1_BOUND = 10**4
_pm1_exponent: int | None = None


def _pollard_pm1(n: int, k: int, deadline: float) -> int | None:
    """One stage-1 Pollard p - 1 split of composite n, or None.

    g = gcd(3^(k E) - 1, n), with E the product of the largest powers of
    the primes up to PM1_BOUND, takes every prime q of n whose q - 1
    divides k E.  Returns g when it splits n and None when it is 1 or n.
    """
    global _pm1_exponent
    if _pm1_exponent is None:
        exponent = 1
        for p in np.flatnonzero(prime_flags(PM1_BOUND)).tolist():
            pk = p
            while pk * p <= PM1_BOUND:
                pk *= p
            exponent *= pk
        _pm1_exponent = exponent
    _check_deadline(deadline, n)
    g = math.gcd(pow(3, k * _pm1_exponent, n) - 1, n)
    return g if 1 < g < n else None


def _check_deadline(deadline: float, n: int) -> None:
    if time.monotonic() > deadline:
        raise BudgetError(f"core-arith: deadline passed while splitting {n}")


def factor_by_trial(n: int, candidates, k: int, deadline: float) -> dict[int, int]:
    """Full factorization of n >= 1 whose prime factors past trial division
    are odd.

    Trial-divides n by the increasing `candidates` while p * p <= n.  Each
    piece left is tested with is_probable_prime; a composite square becomes
    its root twice, and any other composite gets one _pollard_pm1 step with
    multiplier k, then _brent_rho when that does not split it.  Past
    `deadline`, BudgetError whose `partial` is (factors found so far,
    composite cofactors left), which multiply to n.
    """
    out: dict[int, int] = {}
    for p in candidates:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
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


def factorize(n: int) -> dict[int, int]:
    """Full factorization of n >= 1: from the small table up to its limit,
    and above it by factor_by_trial over the table's primes, under a
    deadline FACTORIZE_BUDGET seconds away; past it, BudgetError.
    """
    global _small_primes
    if n < 1:
        raise ValueError(f"core-arith: cannot factor {n}")
    table = small_prime_table()
    if n <= table.limit:
        return table.factorize(n)
    if _small_primes is None:
        _small_primes = table.primes.tolist()
    return factor_by_trial(n, _small_primes, 1, time.monotonic() + FACTORIZE_BUDGET)


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


def mult_orders(primes: np.ndarray, table: PrimeTable) -> np.ndarray:
    """m_p for every p of an array of odd primes <= table.limit, as int64.

    p-1 is factored by its lowest set bit, then by table.least_factors; for
    each prime q with q^a || p-1 the exponent drops to m/q^a and climbs back
    by factors of q while 2^m != 1 mod p.  Products of residues below
    p < 2^32 fit in uint64, so the arithmetic is exact.  Works through
    ORDER_CHUNK primes at a time to keep the temporaries small.
    """
    if table.limit >= 2**32:
        raise CapacityError(f"core-arith: bulk orders need a table below 2^32, "
                            f"got {table.limit}")
    primes = np.asarray(primes, dtype=np.int64)
    if primes.size and (primes.min() < 3 or primes.max() > table.limit
                        or np.any(table.least_factors(primes) != primes)):
        raise ValueError("core-arith: mult_orders needs odd primes within the table")
    out = np.empty(primes.size, dtype=np.int64)
    for lo in range(0, primes.size, ORDER_CHUNK):
        chunk = primes[lo : lo + ORDER_CHUNK].astype(np.uint64)
        out[lo : lo + ORDER_CHUNK] = _orders_of_chunk(chunk, table)
    return out


def _orders_of_chunk(p: np.ndarray, table: PrimeTable) -> np.ndarray:
    """mult_orders of one chunk of primes, given as uint64."""
    # 2^a || p-1 is the lowest set bit of p-1.
    m = p - 1
    two = m & (~m + 1)
    m = _climb(m, p, np.full_like(p, 2), two, np.bitwise_count(two - 1))
    rest = (p - 1) // two  # the part of p-1 whose primes are not yet handled
    todo = np.flatnonzero(rest > 1)  # the positions where rest > 1
    while todo.size:
        # q is the least prime of rest; strip q^a || rest.
        r = rest[todo]
        q = table.least_factors(r)
        qa = np.ones_like(q)
        a = np.zeros(r.size, dtype=np.int64)
        div = np.arange(r.size)
        while div.size:
            r[div] //= q[div]
            qa[div] *= q[div]
            a[div] += 1
            div = div[r[div] % q[div] == 0]
        rest[todo] = r
        m[todo] = _climb(m[todo], p[todo], q, qa, a)
        todo = todo[r > 1]
    return m


def _climb(m: np.ndarray, p: np.ndarray, q: np.ndarray, qa: np.ndarray,
           a: np.ndarray) -> np.ndarray:
    """m is a multiple of m_p with q^a || m.  Drops q^a from m, then restores
    factors of q while 2^m != 1 mod p.  One ladder gives x = 2^(m/q^a) mod p,
    and each restore steps x to x^q, a ladder over q alone."""
    m = m // qa
    x = _pow2_mod(m, p)
    up = np.flatnonzero(x != 1)
    while up.size:
        m[up] *= q[up]
        a[up] -= 1
        up = up[a[up] > 0]  # with q^a back in m, 2^m = 1 mod p
        x[up] = _pow_mod(x[up], q[up], p[up])
        up = up[x[up] != 1]
    return m


def _pow2_mod(exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """2^exp % mod elementwise in uint64, for odd mod < 2^32.

    Left to right: square, then double where the exponent bit is set.
    """
    out = np.ones_like(mod)
    for k in range(int(exp.max(initial=0)).bit_length() - 1, -1, -1):
        out *= out
        out %= mod
        out <<= (exp >> np.uint64(k)) & np.uint64(1)
        out -= mod * (out >= mod)
    return out


def _pow_mod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exp % mod elementwise in uint64, for base < mod < 2^32."""
    out = np.ones_like(mod)
    for k in range(int(exp.max(initial=0)).bit_length() - 1, -1, -1):
        out *= out
        out %= mod
        bit = (exp >> np.uint64(k)) & np.uint64(1) == 1
        out[bit] = out[bit] * base[bit] % mod[bit]
    return out


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


def ord_p_mersenne(p: int, n: int, orders: OrderTable | None = None) -> int:
    """ord_p(2^n - 1) without ever forming 2^n - 1.

    Equals e_p + ord_p(n) when m_p | n and 0 otherwise.
    """
    if n < 1:
        raise ValueError(f"core-arith: exponent must be >= 1, got {n}")
    if orders is None:
        orders = OrderTable()
    m = orders.order(p)
    if n % m:
        return 0
    return orders.exponent(p) + ord_p(n, p)


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
