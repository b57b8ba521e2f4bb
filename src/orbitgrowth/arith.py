"""The array layer of the number theory: the sieve and bulk orders.

The segmented least-factor sieve, its PrimeTable, and bulk multiplicative
orders of 2.  SIEVE_CAPACITY is the one capacity that every sieve and
mask over [0, N] is checked against.  These make numpy arrays; the exact
integer core they build on (primality, small primes, factoring, scalar
orders and the process's one order memo, valuations) is `integers`, which
needs none.  OrderTable is re-exported only because perfbench/ops.py
imports it from here.  `np` here is the array layer's one numpy, shared by
`sets` and `mertens`: a lazy module whose code runs on the first array, so
importing the layer runs no numpy.  The least-factor table covers only the
n prime to 30 (a mod-30 wheel: 8 entries for every 30 integers), as uint16
with 0 at primes, and only PrimeTable reads it; the primes are int32.
Tables are immutable once built.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections import namedtuple

from .errors import CapacityError, InvariantViolation
from .integers import OrderTable, _primes_to

__all__ = ["ORDER_CHUNK", "PRIME_WALK_BLOCK", "SIEVE_BLOCK", "SIEVE_CAPACITY",
           "OrderTable", "PrimeTable", "mult_orders", "sieve_primes"]

SIEVE_CAPACITY = 10**8
SIEVE_BLOCK = 2**20
ORDER_CHUNK = 2**16
# Entries per step of the sieve's second walk, which turns zero entries
# into primes: its index and value temporaries stay at 2^16 int64s.
PRIME_WALK_BLOCK = 2**16

# The least factor of a composite n <= SIEVE_CAPACITY is at most its square
# root, which the uint16 least-factor table must hold; every prime must fit
# the int32 `primes`.
if math.isqrt(SIEVE_CAPACITY) >= 2**16:
    raise InvariantViolation("core-arith: SIEVE_CAPACITY puts least factors past uint16")
if SIEVE_CAPACITY >= 2**31:
    raise InvariantViolation("core-arith: SIEVE_CAPACITY puts primes past int32")


def _lazy_module(name: str):
    """The module `name`, whose code runs on its first attribute access and
    not here (the LazyLoader recipe of the importlib docs); after that it is
    the ordinary module, the one object in sys.modules.  A module already
    imported is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")

# The least-factor table keeps the n prime to 30: entry i is for
# n = 30 (i >> 3) + _WHEEL[i & 7].  As 8r // 30 is the place of r in
# _WHEEL, the entry of such an n is 4n // 15.
_WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)
# The least factor of n from n % 30 where it is 2, 3 or 5, else 0.
_WHEEL_FACTOR = tuple(next((q for q in (2, 3, 5) if r % q == 0), 0) for r in range(30))
# The sieving primes above the cut strike the whole table one at a time;
# those up to it strike it one SIEVE_BLOCK block at a time.
_STRIKE_CUT = 1000
# 7, 11 and 13 strike no progressions: whether they divide n repeats every
# 7 * 11 * 13 rows of the wheel, _PERIOD entries, so each block takes their
# least factor from one precomputed pattern.
_PERIOD = 8 * 7 * 11 * 13


class PrimeTable(namedtuple("PrimeTable", "limit primes smallest_factor")):
    """Primes up to `limit` plus a least-prime-factor table of the n prime
    to 30.

    `primes` is int32, ascending from 2.  Entry i of `smallest_factor`
    (uint16) is for n = 30 (i >> 3) + R[i & 7], R = _WHEEL = (1, 7, 11, 13,
    17, 19, 23, 29), so i = 4n // 15; there are 8 (limit // 30) +
    #{r in R : r <= limit % 30} entries.  It holds the least prime factor
    of a composite n, and 0 at a prime and at n = 1.  Every other n has
    least factor 2, 3 or 5, read from n % 30 in _WHEEL_FACTOR.
    """

    __slots__ = ()

    def least_factor(self, n: int) -> int:
        if n < 2 or n > self.limit:
            raise CapacityError(f"core-arith: {n} outside table range [2, {self.limit}]")
        return _WHEEL_FACTOR[n % 30] or int(self.smallest_factor[4 * n // 15]) or n

    def least_factors(self, x: np.ndarray) -> np.ndarray:
        """least_factor of every x in [2, limit], in x's integer dtype."""
        # An x with a factor 2, 3 or 5 has no entry, and at the top its
        # index 4x // 15 can be one past the table; clipping reads some
        # entry, and the answer is overwritten below by the blend f -=
        # (f - s) * mask: a masked write whose mask is true at random costs
        # a mispredicted branch per element, several times a pass.  In an
        # unsigned dtype f - s may wrap, and the wrap cancels.
        f = self.smallest_factor.take(4 * x // 15, mode="clip").astype(x.dtype)
        f += x * (f == 0)  # primes
        s = np.array(_WHEEL_FACTOR, dtype=x.dtype).take(x % 30)
        f -= (f - s) * (s != 0)
        return f


def sieve_primes(limit: int) -> PrimeTable:
    """Least-factor sieve of the n <= limit prime to 30.

    In index space each prime p >= 7 up to sqrt(limit) strikes eight
    progressions of stride 8p, one per class of its cofactor m mod 30:
    the multiples p * m with m prime to 30 and m >= p.  The table starts
    from np.zeros.  The primes above _STRIKE_CUT strike the whole table,
    in descending order.  Then, block by block of SIEVE_BLOCK entries, the
    primes from 17 up to the cut strike it, also descending, and the least
    factor among 7, 11 and 13 is blended in from a pattern of _PERIOD
    entries instead of eight strikes each.  The least factor is thus
    written last, and each block's zero entries are counted while it is
    hot.  Entries no prime reaches stay 0 and are primes (or n = 1).  So
    `primes` is allocated once at its final size and filled in a second
    walk: 2, 3 and 5, then n = 30 (i >> 3) + R[i & 7] of every zero entry
    i.  That walk steps PRIME_WALK_BLOCK entries at a time, so beyond the
    two arrays returned it holds well under 1 MiB at any limit.
    """
    if limit < 2:
        raise CapacityError(f"core-arith: sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_CAPACITY:
        raise CapacityError(
            f"core-arith: sieve limit {limit} exceeds capacity bound {SIEVE_CAPACITY}"
        )
    size = 8 * (limit // 30) + sum(r <= limit % 30 for r in _WHEEL)
    spf = np.zeros(size, dtype=np.uint16)
    count = _strike(spf, _primes_to(math.isqrt(limit))[3:])
    head = [q for q in (2, 3, 5) if q <= limit]
    primes = np.empty(len(head) + count - 1, dtype=np.int32)
    primes[: len(head)] = head
    k = len(head)
    wheel = np.array(_WHEEL)
    for lo in range(0, size, PRIME_WALK_BLOCK):
        i = np.flatnonzero(spf[lo : lo + PRIME_WALK_BLOCK] == 0)
        if lo == 0:
            i = i[1:]  # n = 1
        i += lo
        primes[k : k + i.size] = 30 * (i >> 3) + wheel[i & 7]
        k += i.size
    return PrimeTable(limit=limit, primes=primes, smallest_factor=spf)


def _strike(spf: np.ndarray, sieving: list[int]) -> int:
    """Writes the least factor of every composite n of the table spf, given
    the sieving primes from 7 up, and returns the number of entries left 0:
    the primes from 7 up and n = 1."""

    def starts(p: int) -> list[int]:
        """The index of p * m, for the least m >= p of each class mod 30."""
        return [4 * p * (p + (r - p) % 30) // 15 for r in _WHEEL]

    for p in reversed(sieving):
        if p <= _STRIKE_CUT:
            break
        for start in starts(p):
            spf[start :: 8 * p] = p
    strikes = [(p, start) for p in reversed(sieving) if 13 < p <= _STRIKE_CUT
               for start in starts(p)]
    least, keep = _pattern()
    count = 0
    for lo in range(0, spf.size, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, spf.size)
        block = spf[lo:hi]
        for p, start in strikes:
            if start < lo:
                start = lo + (start - lo) % (8 * p)
            if start < hi:
                block[start - lo :: 8 * p] = p
        # block = keep * block + least, over whole periods and the tail.
        phase = lo % _PERIOD
        rows, tail = divmod(block.size, _PERIOD)
        for part, width in ((block[: rows * _PERIOD].reshape(rows, _PERIOD), _PERIOD),
                            (block[rows * _PERIOD :], tail)):
            part *= keep[phase : phase + width]
            part += least[phase : phase + width]
        if lo == 0:
            block[1:4] = 0  # the primes 7, 11 and 13
        count += block.size - np.count_nonzero(block)
    return count


def _pattern() -> tuple[np.ndarray, np.ndarray]:
    """Over two periods of entries from n = 1: the least factor among 7, 11
    and 13 of each n, or 0 if none divides n, and 1 where it is 0 (uint16
    both).  Two periods, so that a block starting at any phase reads one
    whole period."""
    i = np.arange(2 * _PERIOD)
    n = 30 * (i >> 3) + np.array(_WHEEL)[i & 7]
    least = np.zeros(i.size, dtype=np.uint16)
    for q in (13, 11, 7):
        least[n % q == 0] = q
    return least, (least == 0).astype(np.uint16)


def mult_orders(primes: np.ndarray, table: PrimeTable) -> np.ndarray:
    """m_p for every p of an array of odd primes <= table.limit, as int32,
    exact as m_p < p <= table.limit < 2^31.

    The 2-part of m_p comes from p mod 8 and, at p = 1 mod 8, from a climb
    on q = 2; the odd part of p-1 is factored by table.least_factors, and
    for each prime q with q^a || p-1 the exponent drops to m/q^a and climbs
    back by factors of q while 2^m != 1 mod p.  Residues stay below the
    table's limit < 2^31, so a square doubled stays below 2^63 and the
    uint64 arithmetic is exact.  Works through ORDER_CHUNK primes at a
    time, checking each chunk's primality there, to keep the temporaries
    small.
    """
    # _pow2_mod doubles a square before reducing it.  The guard on
    # SIEVE_CAPACITY keeps every sieve_primes table below 2^31; a table
    # built by hand may not be.
    if table.limit >= 2**31:
        raise CapacityError(f"core-arith: bulk orders need a table below 2^31, "
                            f"got {table.limit}")
    msg = "core-arith: mult_orders needs odd primes within the table"
    primes = np.asarray(primes)
    if primes.size and (primes.min() < 3 or primes.max() > table.limit):
        raise ValueError(msg)
    out = np.empty(primes.size, dtype=np.int32)
    for lo in range(0, primes.size, ORDER_CHUNK):
        chunk = primes[lo : lo + ORDER_CHUNK].astype(np.uint64)
        if np.any(table.least_factors(chunk) != chunk):
            raise ValueError(msg)
        out[lo : lo + ORDER_CHUNK] = _orders_of_chunk(chunk, table)
    return out


def _orders_of_chunk(p: np.ndarray, table: PrimeTable) -> np.ndarray:
    """mult_orders of one chunk of primes, given as uint64.

    2 is a square mod p exactly when p = +-1 mod 8 (the second supplement
    of quadratic reciprocity).  With 2^a || p-1: at p = 3, 5 mod 8,
    2^((p-1)/2) = -1, so 2^a || m_p; at p = 7 mod 8, a = 1 and m_p divides
    the odd (p-1)/2.  Only at p = 1 mod 8 does the 2-part need a climb on
    q = 2.
    """
    m = p - 1
    two = m & (~m + 1)  # 2^a || p-1, the lowest set bit of p-1
    a = np.bitwise_count(two - 1)
    rest = m >> a  # the part of p-1 whose primes are not yet handled
    mod8 = p & np.uint64(7)
    m >>= (mod8 == 7).astype(np.uint64)
    one = np.flatnonzero(mod8 == 1)
    m[one] = _climb(m[one], p[one], np.full(one.size, 2, dtype=np.uint64),
                    two[one], a[one])
    todo = np.flatnonzero(rest > 1)  # the positions where rest > 1
    while todo.size:
        # q is the least prime of rest; strip q^a || rest.  Only where q^2
        # divides r does a go past 1; qa * q < 2^62 since q <= r < 2^31.
        r = rest[todo]
        q = table.least_factors(r)
        qa = q.copy()
        a = np.ones(r.size, dtype=np.int64)
        div = np.flatnonzero(r % (q * q) == 0)
        while div.size:
            qa[div] *= q[div]
            a[div] += 1
            div = div[r[div] % (qa[div] * q[div]) == 0]
        r //= qa
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
    """2^exp % mod elementwise in uint64, for odd mod < 2^31.

    Left to right: square, double where the exponent bit is set, then
    reduce once; the doubled square of a residue below 2^31 is below 2^63.
    """
    out = np.ones_like(mod)
    for k in range(int(exp.max(initial=0)).bit_length() - 1, -1, -1):
        out *= out
        out <<= (exp >> np.uint64(k)) & np.uint64(1)
        out %= mod
    return out


def _pow_mod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exp % mod elementwise in uint64, for base < mod < 2^32.

    Left to right: square and reduce, then multiply by bit * (base - 1) + 1,
    which is base where the exponent bit is set and 1 elsewhere, and reduce.
    A blend, not a masked write (see PrimeTable.least_factors); at base 0
    the wrap of base - 1 cancels."""
    out = np.ones_like(mod)
    base_less_1 = base - np.uint64(1)
    for k in range(int(exp.max(initial=0)).bit_length() - 1, -1, -1):
        out *= out
        out %= mod
        out *= ((exp >> np.uint64(k)) & np.uint64(1)) * base_less_1 + np.uint64(1)
        out %= mod
    return out
