"""Declarative order sets M and prime sets S: membership and density, and
the interval prime sets.

prime_mask is the package's one boolean prime mask.  The primes up to
sqrt(N) that the masks over [0, N] sieve by come from the integer core's
list.  interval_L sieves each interval's odd numbers on their own with
the integer core's progression sieve.  interval_L and estimate_density
check N against arith.SIEVE_CAPACITY, as dominant_sum does for the
indicators.

An order set is a subset of the naturals; the induced prime set is
S_M = {odd primes p : m_p in M}.  Membership is exact and total; bulk
membership over [1, limit] is served by numpy sieves so that dominant sums
never need factorizations.  The one closure flag, closure under
multiplication by the naturals, is a fact of the code: a class attribute,
False for a nonempty explicit list, and a squarefree_augmented base's flag.
A JSON spec cannot claim it, so loading a spec tests nothing and draws no
random numbers; a property test checks every kind's claim.  The strata
mbar_n that exact sums build over any order set, and the factor cache they
need, belong to mertens.

JSON wire forms (the single schema used by the CLI):

    {"kind": "explicit_finite", "primes": [3, 7]}
    {"kind": "induced", "order_set": {"kind": "multiples_of", "ells": [3]}}

Order-set kinds: explicit_list, prime_list, multiples_of (finite ells or an
ell_set prime source), complement_multiples_of, composite_numbers,
prime_numbers, ell_powers, squarefree_augmented, congruence_primes,
omega_bounded.  Prime sources: {"kind": "list", ...} and
{"kind": "congruence_primes", "modulus": q, "residues": [...]}.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .arith import SIEVE_BLOCK, SIEVE_CAPACITY, mult_orders, sieve_primes
from .errors import CapacityError, ContractError, InvariantViolation
from .integers import (_prime_flags, _primes_to, factorize, is_probable_prime,
                       mult_order, ord_p, progression_segments)

# Bulk orders that estimate_density recomputes with scalar mult_order.
CROSS_CHECKS = 64


# ---------------------------------------------------------------------------
# Sieve masks.  Each call builds a new array, which the caller owns and may
# write into; so does every order set's indicator.


def prime_mask(limit: int) -> np.ndarray:
    """Boolean array of length limit+1; True exactly at primes.

    The odd entries come from the integer core's odd-number sieve, one span
    of 2 * SIEVE_BLOCK integers at a time; 2 is set by hand."""
    mask = np.zeros(limit + 1, dtype=bool)
    mask[2:3] = True
    for a in range(3, limit + 1, 2 * SIEVE_BLOCK):
        b = min(a + 2 * SIEVE_BLOCK, limit + 1)
        mask[a:b:2] = np.frombuffer(_prime_flags(a, b, 2), dtype=bool)
    return mask


def _prime_squares(limit: int) -> list[int]:
    """p^2 for the primes p with p^2 <= limit."""
    return [p * p for p in _primes_to(math.isqrt(limit))]


def squarefree_mask(limit: int) -> np.ndarray:
    """Boolean array; True at squarefree n (True at 1)."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for q in _prime_squares(limit):
        mask[q::q] = False
    return mask


# ---------------------------------------------------------------------------
# Interval prime sets (the rational-free density construction).


_LN2 = math.log(2.0)


@dataclass(frozen=True)
class IntervalRecord:
    m: int
    lo: int
    hi: int
    prime_count: int
    sum_logp_over_p: float
    target: float


def interval_L(delta: float, m_lo: int, m_hi: int) -> list[IntervalRecord]:
    """Primes in (2^m, 2^(m+delta)] for m in [m_lo, m_hi], with the per-
    interval sums of log p / p (target delta * log 2 each)."""
    if not 0 < delta <= 1:
        raise ContractError("prime-sets: delta must be in (0, 1]")
    if m_lo < 1 or m_hi < m_lo:
        raise ContractError("prime-sets: bad interval exponent range")
    top = math.floor(2.0 ** (m_hi + delta))
    if top > SIEVE_CAPACITY:
        raise CapacityError(
            f"prime-sets: interval sieve to {top} exceeds capacity {SIEVE_CAPACITY}"
        )
    out = []
    target = delta * _LN2
    for m in range(m_lo, m_hi + 1):
        lo = 1 << m
        hi = math.floor(2.0 ** (m + delta))
        # No even n in (lo, hi] is prime, as lo >= 2; one interval at a time.
        flags = np.frombuffer(_prime_flags(lo + 1, hi + 1, 2), dtype=bool)
        idx = 2 * np.flatnonzero(flags) + lo + 1
        ps = idx.astype(np.float64)
        val = float(np.sum(np.log(ps) / ps)) if len(ps) else 0.0
        out.append(
            IntervalRecord(
                m=m,
                lo=lo,
                hi=hi,
                prime_count=int(len(idx)),
                sum_logp_over_p=val,
                target=target,
            )
        )
    return out




# ---------------------------------------------------------------------------
# Prime sources: the L in multiples_of / omega_bounded.


class PrimeSource:
    def contains_prime(self, p: int) -> bool:
        raise NotImplementedError

    def primes_up_to(self, limit: int) -> np.ndarray:
        """The source's primes <= limit, ascending, as an int64 array."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class ListSource(PrimeSource):
    def __init__(self, primes):
        self.primes = tuple(sorted(set(int(p) for p in primes)))
        for p in self.primes:
            if not is_probable_prime(p):
                raise ContractError(f"prime-sets: list source element {p} not prime")

    def contains_prime(self, p: int) -> bool:
        return p in self.primes

    def primes_up_to(self, limit: int) -> np.ndarray:
        # Filter first: the list may hold primes past the int64 range.
        return np.array([p for p in self.primes if p <= limit], dtype=np.int64)

    def to_json(self) -> dict:
        return {"kind": "list", "primes": list(self.primes)}


class CongruenceSource(PrimeSource):
    """Primes p with p mod modulus in residues."""

    def __init__(self, modulus: int, residues):
        if modulus < 2:
            raise ContractError(f"prime-sets: modulus must be >= 2, got {modulus}")
        self.modulus = int(modulus)
        self.residues = tuple(sorted(set(int(r) % modulus for r in residues)))
        if not self.residues:
            raise ContractError("prime-sets: empty residue set")

    def contains_prime(self, p: int) -> bool:
        return p % self.modulus in self.residues

    def primes_up_to(self, limit: int) -> np.ndarray:
        """One progression sieve per listed class prime to the modulus,
        over its odd lift mod lcm(2, modulus).  A class sharing a factor
        with the modulus holds one prime at most: r itself, or the modulus
        when r = 0.  2 is added by hand."""
        m = self.modulus
        if m > limit:
            # Every p <= limit is its own residue, and a modulus past int64
            # never reaches numpy.
            return np.array([r for r in self.residues
                             if r <= limit and is_probable_prime(r)], dtype=np.int64)
        step = math.lcm(2, m)
        lone = {2} if 2 % m in self.residues else set()
        parts = []
        for r in self.residues:
            if math.gcd(r, m) > 1:
                lone.add(r or m)
                continue
            lo = r if r % 2 else r + m
            if lo == 1:
                lo += step
            if lo <= limit:
                flags = np.frombuffer(_prime_flags(lo, limit + 1, step), dtype=bool)
                parts.append(np.flatnonzero(flags) * step + lo)
        parts.append(np.array([p for p in lone if p <= limit and is_probable_prime(p)],
                              dtype=np.int64))
        return np.sort(np.concatenate(parts))

    def to_json(self) -> dict:
        return {
            "kind": "congruence_primes",
            "modulus": self.modulus,
            "residues": list(self.residues),
        }


def _field(obj, key: str):
    """obj[key] of a JSON spec, or a ContractError naming the kind and field."""
    if not isinstance(obj, dict):
        raise ContractError(f"prime-sets: a spec must be a JSON object, "
                            f"got {type(obj).__name__}")
    if key not in obj:
        raise ContractError(f"prime-sets: {obj.get('kind')!r} spec needs field {key!r}")
    return obj[key]


def _int(obj, key: str) -> int:
    """An integer field of a JSON spec (JSON true/false are not integers)."""
    value = _field(obj, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ContractError(f"prime-sets: {obj.get('kind')!r} field {key!r} "
                            f"must be an integer, got {value!r}")
    return value


def _ints(obj, key: str) -> list[int]:
    """A list-of-integers field of a JSON spec."""
    value = _field(obj, key)
    if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in value):
        raise ContractError(f"prime-sets: {obj.get('kind')!r} field {key!r} "
                            f"must be a list of integers, got {value!r}")
    return value


def prime_source_from_json(obj: dict) -> PrimeSource:
    kind = _field(obj, "kind")
    if kind == "list":
        return ListSource(_ints(obj, "primes"))
    if kind == "congruence_primes":
        return CongruenceSource(_int(obj, "modulus"), _ints(obj, "residues"))
    raise ContractError(f"prime-sets: unknown prime source kind {kind!r}")


# ---------------------------------------------------------------------------
# Order sets.


class OrderSet:
    kind = "abstract"
    # dominant_sum needs closure under multiplication by the naturals; a
    # flag claimed False only narrows what it accepts.  The stratified
    # decomposition takes every order set and needs no flag.
    closed_under_nat_multiplication = False

    # Membership --------------------------------------------------------
    def contains(self, n: int) -> bool:
        if n < 1:
            raise ContractError(f"prime-sets: order-set membership needs n >= 1")
        return self._member(n, factorize(n))

    def _member(self, n: int, fac: dict[int, int]) -> bool:
        raise NotImplementedError

    def indicator(self, limit: int) -> np.ndarray:
        """Boolean membership array over [0, limit] (index 0 is False), new
        on each call, so the caller may write into it."""
        raise NotImplementedError

    # Serialization ------------------------------------------------------
    def to_json(self) -> dict:
        raise NotImplementedError

    def label(self) -> str:
        return str(self.to_json())

    def __repr__(self):
        return f"OrderSet({self.to_json()})"


class ExplicitList(OrderSet):
    kind = "explicit_list"

    def __init__(self, values):
        self.values = tuple(sorted(set(int(v) for v in values)))
        if any(v < 1 for v in self.values):
            raise ContractError("prime-sets: explicit order values must be >= 1")
        # A nonempty finite set cannot absorb multiplication by N.
        self.closed_under_nat_multiplication = not self.values

    def _member(self, n, fac):
        return n in self.values

    def indicator(self, limit):
        out = np.zeros(limit + 1, dtype=bool)
        for v in self.values:
            if v <= limit:
                out[v] = True
        return out

    def to_json(self):
        return {"kind": "explicit_list", "values": list(self.values)}


class PrimeList(ExplicitList):
    """Explicit finite list of prime orders (the dense-theorem ingredient)."""

    kind = "prime_list"

    def __init__(self, primes):
        for p in primes:
            if not is_probable_prime(int(p)):
                raise ContractError(f"prime-sets: prime_list element {p} not prime")
        super().__init__(primes)

    def to_json(self):
        return {"kind": "prime_list", "primes": list(self.values)}


class MultiplesOf(OrderSet):
    """n such that some ell divides n; ells finite or a prime source."""

    kind = "multiples_of"
    closed_under_nat_multiplication = True

    def __init__(self, ells=None, ell_set: PrimeSource | None = None):
        if (ells is None) == (ell_set is None):
            raise ContractError("prime-sets: multiples_of needs ells or ell_set")
        self.ells = None if ells is None else tuple(sorted(set(int(v) for v in ells)))
        if self.ells == ():
            raise ContractError("prime-sets: multiples_of needs at least one ell")
        if self.ells is not None and any(v < 2 for v in self.ells):
            raise ContractError("prime-sets: multiples_of divisors must be >= 2")
        self.ell_set = ell_set

    def _member(self, n, fac):
        if self.ells is not None:
            return any(n % l == 0 for l in self.ells)
        return any(self.ell_set.contains_prime(p) for p in fac)

    def indicator(self, limit):
        out = np.zeros(limit + 1, dtype=bool)
        divs = (self.ell_set.primes_up_to(limit) if self.ells is None
                else np.array([l for l in self.ells if l <= limit], dtype=np.int64))
        small = math.isqrt(limit)
        for l in divs[divs <= small].tolist():
            out[l::l] = True
        # Every multiple k * ell <= limit of a larger ell has k <= isqrt(limit),
        # so one gather per k marks them all instead of one slice per ell.
        big = divs[divs > small]
        for k in range(1, small + 1):
            hi = int(np.searchsorted(big, limit // k, side="right"))
            if hi == 0:
                break
            out[big[:hi] * k] = True
        return out

    def to_json(self):
        if self.ells is not None:
            return {"kind": "multiples_of", "ells": list(self.ells)}
        return {"kind": "multiples_of", "ell_set": self.ell_set.to_json()}


class ComplementMultiplesOf(OrderSet):
    """n with ell not dividing n; not multiplication-closed."""

    kind = "complement_multiples_of"
    closed_under_nat_multiplication = False

    def __init__(self, ell: int):
        self.ell = int(ell)
        if self.ell < 2:
            raise ContractError("prime-sets: complement divisor must be >= 2")

    def _member(self, n, fac):
        return n % self.ell != 0

    def indicator(self, limit):
        out = np.ones(limit + 1, dtype=bool)
        out[0] = False
        out[self.ell :: self.ell] = False
        return out

    def to_json(self):
        return {"kind": "complement_multiples_of", "ell": self.ell}


class CompositeNumbers(OrderSet):
    """Non-primes.  Contains 1, so excluded n are exactly the primes."""

    kind = "composite_numbers"
    closed_under_nat_multiplication = True

    def _member(self, n, fac):
        return sum(fac.values()) != 1

    def indicator(self, limit):
        out = prime_mask(limit)
        np.logical_not(out, out=out)
        out[0] = False
        return out

    def to_json(self):
        return {"kind": "composite_numbers"}


class PrimeNumbers(OrderSet):
    kind = "prime_numbers"
    closed_under_nat_multiplication = False

    def _member(self, n, fac):
        return sum(fac.values()) == 1

    def indicator(self, limit):
        return prime_mask(limit)

    def to_json(self):
        return {"kind": "prime_numbers"}


class EllPowers(OrderSet):
    """{ell^e : e >= 0}; a thin set containing 1."""

    kind = "ell_powers"
    closed_under_nat_multiplication = False

    def __init__(self, ell: int):
        self.ell = int(ell)
        if self.ell < 2:
            raise ContractError("prime-sets: ell must be >= 2")

    def _member(self, n, fac):
        while n % self.ell == 0:
            n //= self.ell
        return n == 1

    def indicator(self, limit):
        out = np.zeros(limit + 1, dtype=bool)
        v = 1
        while v <= limit:
            out[v] = True
            v *= self.ell
        return out

    def to_json(self):
        return {"kind": "ell_powers", "ell": self.ell}


class SquarefreeAugmented(OrderSet):
    """Base members plus every non-squarefree n."""

    kind = "squarefree_augmented"

    def __init__(self, base: OrderSet):
        self.base = base
        self.closed_under_nat_multiplication = base.closed_under_nat_multiplication

    def _member(self, n, fac):
        if any(e >= 2 for e in fac.values()):
            return True
        return self.base._member(n, fac)

    def indicator(self, limit):
        out = self.base.indicator(limit)
        for q in _prime_squares(limit):
            out[q::q] = True
        out[0] = False
        return out

    def to_json(self):
        return {"kind": "squarefree_augmented", "base": self.base.to_json()}


class CongruencePrimes(OrderSet):
    """Primes in fixed residue classes, viewed as an order set."""

    kind = "congruence_primes"
    closed_under_nat_multiplication = False

    def __init__(self, modulus: int, residues):
        self.source = CongruenceSource(modulus, residues)

    def _member(self, n, fac):
        return sum(fac.values()) == 1 and self.source.contains_prime(n)

    def indicator(self, limit):
        out = np.zeros(limit + 1, dtype=bool)
        out[self.source.primes_up_to(limit)] = True
        return out

    def to_json(self):
        j = self.source.to_json()
        return {"kind": "congruence_primes", "modulus": j["modulus"],
                "residues": j["residues"]}


def _omega_or_outside(limit: int, r: int, source: PrimeSource) -> np.ndarray:
    """Boolean array over [0, limit]; True at n >= 1 with Omega(n) > r or a
    prime factor that source does not contain.

    Every n <= limit has at most one prime factor above isqrt(limit).  So
    each block of n has the primes up to the root and their powers divided
    out, and what is left above 1 is that one large prime.
    """
    allowed = np.zeros(limit + 1, dtype=bool)
    allowed[source.primes_up_to(limit)] = True
    small = _primes_to(math.isqrt(limit))
    out = np.zeros(limit + 1, dtype=bool)
    for lo in range(0, limit + 1, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, limit + 1)
        rem = np.arange(lo, hi, dtype=np.int32)
        omega = np.zeros(hi - lo, dtype=np.int8)
        bad = out[lo:hi]
        for p in small:
            if not allowed[p]:
                bad[-lo % p :: p] = True
            pk = p
            while pk < hi:
                omega[-lo % pk :: pk] += 1
                rem[-lo % pk :: pk] //= p
                pk *= p
        big = rem > 1
        bad |= (omega + big > r) | (big & ~allowed[rem])
    out[0] = False
    return out


class OmegaBounded(OrderSet):
    """n with Omega(n/gcd(m,n)) > r, or a factor of n/gcd(m,n) outside L.

    The complement (the n kept by dominant sums) consists of d*q with d | m
    and q built from at most r primes of L.
    """

    kind = "omega_bounded"
    closed_under_nat_multiplication = True

    def __init__(self, r: int, ell_set: PrimeSource, m: int):
        if r < 1 or m < 1:
            raise ContractError("prime-sets: omega_bounded needs r >= 1, m >= 1")
        self.r = int(r)
        self.ell_set = ell_set
        # m is never factored: it may be a product of large primes, and only
        # its primes up to a limit, or those of a given n, matter.
        self.m = int(m)

    def _member(self, n, fac):
        omega_q = 0
        for p, e in fac.items():
            eq = e - min(e, ord_p(self.m, p))
            if eq:
                if not self.ell_set.contains_prime(p):
                    return True
                omega_q += eq
        return omega_q > self.r

    def _m_prime_powers(self, limit: int) -> dict[int, int]:
        """{p: ord_p(m)} over the primes p <= limit of m, by trial division
        that stops once what is left of m is 1.  The odd primes are sieved
        one segment at a time, only as far as the division goes."""
        odd = chain.from_iterable(progression_segments(3, limit + 1, 2))
        out, rest = {}, self.m
        for p in chain([2], odd):
            if rest == 1 or p > limit:
                break
            if rest % p == 0:
                out[p] = e = ord_p(rest, p)
                rest //= p**e
        return out

    def indicator(self, limit):
        # n is a member iff q = n/gcd(m, n) has more than r prime factors or
        # one outside L.  q is formed a block at a time, so no full-length
        # integer array is built, by dividing out the prime powers of m up to
        # the block's end; m itself, which may pass int64, never meets numpy.
        bad = _omega_or_outside(limit, self.r, self.ell_set)
        m_fac = self._m_prime_powers(limit)
        member = np.empty(limit + 1, dtype=bool)
        for lo in range(0, limit + 1, SIEVE_BLOCK):
            q = np.arange(lo, min(lo + SIEVE_BLOCK, limit + 1), dtype=np.int64)
            for p, e in m_fac.items():
                pk = p
                for _ in range(e):
                    if pk >= lo + q.size:
                        break
                    q[-lo % pk :: pk] //= p
                    pk *= p
            member[lo : lo + q.size] = bad[q]
        member[0] = False
        return member

    def to_json(self):
        return {
            "kind": "omega_bounded",
            "r": self.r,
            "ell_set": self.ell_set.to_json(),
            "m": self.m,
        }


_ORDER_KINDS = {
    "explicit_list": lambda o: ExplicitList(_ints(o, "values")),
    "prime_list": lambda o: PrimeList(_ints(o, "primes")),
    "multiples_of": lambda o: MultiplesOf(
        ells=_ints(o, "ells") if "ells" in o else None,
        ell_set=prime_source_from_json(o["ell_set"]) if "ell_set" in o else None,
    ),
    "complement_multiples_of": lambda o: ComplementMultiplesOf(_int(o, "ell")),
    "composite_numbers": lambda o: CompositeNumbers(),
    "prime_numbers": lambda o: PrimeNumbers(),
    "ell_powers": lambda o: EllPowers(_int(o, "ell")),
    "congruence_primes": lambda o: CongruencePrimes(
        _int(o, "modulus"), _ints(o, "residues")
    ),
    "omega_bounded": lambda o: OmegaBounded(
        _int(o, "r"), prime_source_from_json(_field(o, "ell_set")), _int(o, "m")
    ),
}


def order_set_from_json(obj: dict) -> OrderSet:
    """The order set a JSON spec describes."""
    kind = _field(obj, "kind")
    if kind == "squarefree_augmented":
        return SquarefreeAugmented(order_set_from_json(_field(obj, "base")))
    builder = _ORDER_KINDS.get(kind)
    if builder is None:
        raise ContractError(f"prime-sets: unknown order-set kind {kind!r}")
    return builder(obj)


# ---------------------------------------------------------------------------
# Prime sets.


class PrimeSet:
    """A set of odd primes; 2 is never a member (it changes nothing)."""

    kind = "abstract"

    def to_json(self) -> dict:
        raise NotImplementedError

    def label(self) -> str:
        return str(self.to_json())


class ExplicitFinitePrimes(PrimeSet):
    kind = "explicit_finite"

    def __init__(self, primes):
        ps = sorted(set(int(p) for p in primes))
        for p in ps:
            if not is_probable_prime(p):
                raise ContractError(f"prime-sets: {p} is not prime")
        # Standing exclusion: 2 is dropped rather than rejected, since
        # |2^n - 1|_2 = 1 makes it invisible to every sum.
        self.primes = tuple(p for p in ps if p != 2)

    def to_json(self):
        return {"kind": "explicit_finite", "primes": list(self.primes)}


class InducedPrimes(PrimeSet):
    kind = "induced"

    def __init__(self, order_set: OrderSet):
        self.order_set = order_set

    def to_json(self):
        return {"kind": "induced", "order_set": self.order_set.to_json()}


def prime_set_from_json(obj: dict) -> PrimeSet:
    kind = _field(obj, "kind")
    if kind == "explicit_finite":
        return ExplicitFinitePrimes(_ints(obj, "primes"))
    if kind == "induced":
        return InducedPrimes(order_set_from_json(_field(obj, "order_set")))
    raise ContractError(f"prime-sets: unknown prime-set kind {kind!r}")


# ---------------------------------------------------------------------------
# Density.


@dataclass(frozen=True)
class DensityEstimate:
    limit: int
    member_count: int
    total_count: int

    def __post_init__(self):
        if self.member_count > self.total_count:
            raise InvariantViolation("prime-sets: member_count > total_count")

    @property
    def ratio(self) -> float:
        return self.member_count / self.total_count if self.total_count else 0.0

    def to_json(self) -> dict:
        return {
            "limit": self.limit,
            "member_count": self.member_count,
            "total_count": self.total_count,
            "ratio": self.ratio,
        }


def estimate_density(pset: PrimeSet, limit: int) -> DensityEstimate:
    """Share of odd primes <= limit lying in the set.

    Induced sets take every m_p from one bulk pass, after a seeded sample of
    CROSS_CHECKS of them agrees with scalar mult_order, and count
    membership with one gather from the order set's indicator (m_p <= p-1).
    """
    if limit > SIEVE_CAPACITY:
        raise CapacityError(f"prime-sets: density limit {limit} over capacity")
    table = sieve_primes(limit)
    odd_primes = table.primes[1:]  # primes[0] is 2
    if isinstance(pset, ExplicitFinitePrimes):
        listed = np.array([p for p in pset.primes if p <= limit], dtype=np.int64)
        members = np.count_nonzero(np.isin(odd_primes, listed))
        return DensityEstimate(limit, int(members), odd_primes.size)
    orders = mult_orders(odd_primes, table)
    del table  # only the primes are read from here on, not the least factors
    sample = random.Random(0).sample(range(odd_primes.size),
                                     min(CROSS_CHECKS, odd_primes.size))
    for i in sample:
        p, bulk = int(odd_primes[i]), int(orders[i])
        expect = mult_order(p)
        if bulk != expect:
            raise InvariantViolation(f"prime-sets: bulk order {bulk} of {p} "
                                     f"disagrees with mult_order {expect}")
    members = np.count_nonzero(pset.order_set.indicator(limit)[orders])
    return DensityEstimate(limit, int(members), odd_primes.size)
