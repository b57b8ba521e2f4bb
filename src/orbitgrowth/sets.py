"""Declarative order sets M and prime sets S: membership and density, and
the interval prime sets.

prime_mask is the package's one boolean prime mask.  Every mask and
indicator is a window over [lo, hi), checked against arith.SIEVE_CAPACITY;
the primes up to sqrt(hi) that it sieves by come from the integer core's
list, and it marks each window from that window's first multiples, so a
dominant sum walks [1, N] in windows with no array as long as N.
interval_L sieves each interval's odd numbers on their own with the
integer core's progression sieve, and a CongruenceSource sieves its class
progressions segment by segment.  interval_L and estimate_density check N
against SIEVE_CAPACITY too.

An order set is a subset of the naturals; the induced prime set is
S_M = {odd primes p : m_p in M}.  Membership is exact and total, and the
order set is the one place that decides it: contains factors each n once
per instance and remembers the answer.  Bulk membership over a window
[lo, hi) is served by numpy sieves so that dominant sums never need
factorizations.  The one closure flag, closure under
multiplication by the naturals, is a fact of the code: a class attribute,
False for a nonempty explicit list, and a squarefree_augmented base's flag.
A JSON spec cannot claim it, so loading a spec tests nothing and draws no
random numbers; a property test checks every kind's claim.  The strata
mbar_n that exact sums build over any order set belong to mertens, which
reads no factor cache either.

JSON wire forms (the single schema used by the CLI):

    {"kind": "explicit_finite", "primes": [3, 7]}
    {"kind": "induced", "order_set": {"kind": "multiples_of", "ells": [3]}}

Order-set kinds: explicit_list, prime_list, multiples_of (finite ells or an
ell_set prime source), complement_multiples_of, composite_numbers,
prime_numbers, ell_powers, squarefree_augmented, congruence_primes,
omega_bounded.  Prime sources: {"kind": "list", ...} and
{"kind": "congruence_primes", "modulus": q, "residues": [...]}.  One class,
CongruenceSource, is both that prime source and the congruence_primes
order set.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .arith import SIEVE_BLOCK, SIEVE_CAPACITY, mult_orders, np, sieve_primes
from .errors import CapacityError, ContractError, InvariantViolation
from .integers import (_prime_flags, _primes_to, factorize, is_probable_prime,
                       mult_order, ord_p)

# Bulk orders that estimate_density recomputes with scalar mult_order.
CROSS_CHECKS = 64
# Integers per indicator window when estimate_density counts members.
DENSITY_WINDOW = 2 * SIEVE_BLOCK


# ---------------------------------------------------------------------------
# Sieve masks.  Each is a window over [lo, hi), 0 <= lo < hi, and each call
# builds a new array, which the caller owns and may write into; so does
# every order set's indicator.  The mask over [0, N] is the window (0, N + 1).


def _check_window(lo: int, hi: int) -> None:
    if not 0 <= lo < hi:
        raise ContractError(f"prime-sets: a window needs 0 <= lo < hi, got [{lo}, {hi})")
    if hi > SIEVE_CAPACITY + 1:
        raise CapacityError(f"prime-sets: window end {hi} over capacity {SIEVE_CAPACITY}")


def prime_mask(lo: int, hi: int) -> np.ndarray:
    """Boolean array over [lo, hi); True exactly at primes.

    The odd entries come from the integer core's odd-number sieve, one span
    of 2 * SIEVE_BLOCK integers at a time; 2 is set by hand."""
    _check_window(lo, hi)
    mask = np.zeros(hi - lo, dtype=bool)
    if lo <= 2 < hi:
        mask[2 - lo] = True
    for a in range(max(3, lo | 1), hi, 2 * SIEVE_BLOCK):
        b = min(a + 2 * SIEVE_BLOCK, hi)
        mask[a - lo : b - lo : 2] = np.frombuffer(_prime_flags(a, b, 2), dtype=bool)
    return mask


def _mark_prime_squares(out: np.ndarray, lo: int, hi: int) -> None:
    """Set out[n - lo] at every n in [lo, hi) divisible by a prime square,
    one slice per p^2 < hi from the window's first multiple."""
    for p in _primes_to(math.isqrt(hi - 1)):
        q = p * p
        out[-lo % q :: q] = True


# ---------------------------------------------------------------------------
# Interval prime sets (the rational-free density construction).


_LN2 = math.log(2.0)


IntervalRecord = namedtuple("IntervalRecord",
                            "m lo hi prime_count sum_logp_over_p target")


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
# Prime sources, ListSource and CongruenceSource: the L in multiples_of /
# omega_bounded.


class ListSource:
    def __init__(self, primes):
        self.primes = tuple(sorted(set(int(p) for p in primes)))
        for p in self.primes:
            if not is_probable_prime(p):
                raise ContractError(f"prime-sets: list source element {p} not prime")

    def contains_prime(self, p: int) -> bool:
        return p in self.primes

    def contains_primes(self, p):
        """contains_prime of every entry of an array of primes up to
        SIEVE_CAPACITY, as a boolean array."""
        return np.isin(p, self.primes_up_to(SIEVE_CAPACITY))

    def primes_up_to(self, limit: int) -> np.ndarray:
        """The source's primes <= limit, ascending, as an int32 array the
        caller must not write into; limit is at most SIEVE_CAPACITY."""
        # Filter first: the list may hold primes past the int32 range.
        return np.array([p for p in self.primes if p <= limit], dtype=np.int32)

    def to_json(self) -> dict:
        return {"kind": "list", "primes": list(self.primes)}


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


def prime_source_from_json(obj: dict) -> ListSource | CongruenceSource:
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
        """Whether n is a member; each instance factors and decides each n
        once, and the exact series' walks over divisors reuse the answer."""
        if n < 1:
            raise ContractError(f"prime-sets: order-set membership needs n >= 1")
        decided = self.__dict__.setdefault("_decided", {})
        if n not in decided:
            decided[n] = self._member(n, factorize(n))
        return decided[n]

    def _member(self, n: int, fac: dict[int, int]) -> bool:
        raise NotImplementedError

    def indicator(self, lo: int, hi: int) -> np.ndarray:
        """Boolean membership array over the window [lo, hi), 0 <= lo < hi
        (n = 0 is no member), new on each call, so the caller may write into
        it.  The mask over [0, N] is the window (0, N + 1)."""
        _check_window(lo, hi)
        out = self._window(lo, hi)
        if lo == 0:
            out[0] = False
        return out

    def _window(self, lo: int, hi: int) -> np.ndarray:
        """indicator without the check of the window, and with any entry at
        n = 0, which indicator clears."""
        raise NotImplementedError

    # Serialization ------------------------------------------------------
    def to_json(self) -> dict:
        raise NotImplementedError

    def label(self) -> str:
        return str(self.to_json())

    def __repr__(self):
        return f"OrderSet({self.to_json()})"


# Integers past the current reach that a CongruenceSource sieves at least,
# so that windows walked in order extend its primes a few times, not once
# per window.
_SOURCE_SPAN = 1 << 22


class CongruenceSource(OrderSet):
    """Primes p with p mod modulus in residues: the prime source of a
    multiples_of or omega_bounded, and the order set congruence_primes.

    The primes found so far are kept: the first _count entries of _found
    are those up to _reach, and a request past _reach sieves on from there.
    _found is made on the first primes_up_to, so exact membership makes no
    array.
    """

    kind = "congruence_primes"
    closed_under_nat_multiplication = False

    def __init__(self, modulus: int, residues):
        if modulus < 2:
            raise ContractError(f"prime-sets: modulus must be >= 2, got {modulus}")
        self.modulus = int(modulus)
        self.residues = tuple(sorted(set(int(r) % modulus for r in residues)))
        if not self.residues:
            raise ContractError("prime-sets: empty residue set")
        # Each class prime to the modulus is sieved over its odd lift mod
        # step = lcm(2, modulus), from its first term past 1.  A class sharing
        # a factor with the modulus holds one prime at most: r itself, or the
        # modulus when r = 0; 2 is the other lone candidate.  Past capacity a
        # step leaves one term per class in range, which is tested alone.
        self._step = math.lcm(2, self.modulus)
        lone = {2} if 2 % self.modulus in self.residues else set()
        self._starts = []
        for r in self.residues:
            if math.gcd(r, self.modulus) > 1:
                lone.add(r or self.modulus)
                continue
            t = r if r % 2 else r + self.modulus
            if t == 1:
                t += self._step
            if self._step > SIEVE_CAPACITY:
                lone.add(t)
            else:
                self._starts.append(t)
        self._lone = sorted(lone)
        self._found = None
        self._count = 0
        self._reach = 1

    def contains_prime(self, p: int) -> bool:
        return p % self.modulus in self.residues

    def _member(self, n, fac):
        return sum(fac.values()) == 1 and self.contains_prime(n)

    def _window(self, lo, hi):
        out = np.zeros(hi - lo, dtype=bool)
        p = self.primes_up_to(hi - 1)
        out[p[np.searchsorted(p, np.int32(lo)) :] - lo] = True
        return out

    def contains_primes(self, p):
        """contains_prime of every entry of an array of primes up to
        SIEVE_CAPACITY, as a boolean array."""
        # Every p is below a modulus past capacity, so is its own residue.
        m = self.modulus
        return np.isin(p % m if m <= SIEVE_CAPACITY else p,
                       [r for r in self.residues if r <= SIEVE_CAPACITY])

    def primes_up_to(self, limit: int) -> np.ndarray:
        """The source's primes <= limit, ascending, as an int32 array the
        caller must not write into; limit is at most SIEVE_CAPACITY."""
        if self._found is None:
            self._found = np.empty(0, dtype=np.int32)
        if limit > self._reach:
            self._extend(max(limit, min(2 * self._reach, self._reach + _SOURCE_SPAN,
                                        SIEVE_CAPACITY)))
        found = self._found[: self._count]
        out = found[: np.searchsorted(found, np.int32(max(limit, 0)), side="right")]
        out.flags.writeable = False
        return out

    def _extend(self, top: int) -> None:
        """Sieve (_reach, top] a segment of SIEVE_BLOCK terms per class at a
        time, and append its class primes in ascending order."""
        step = self._step
        seg = step * SIEVE_BLOCK
        for a in range(self._reach + 1, top + 1, seg):
            b = min(a + seg, top + 1)
            parts = [np.array([p for p in self._lone if a <= p < b and is_probable_prime(p)],
                              dtype=np.int32)]
            for t in self._starts:
                t = max(t, a + (t - a) % step)  # the class's first term from a
                if t < b:
                    i = np.flatnonzero(np.frombuffer(_prime_flags(t, b, step), dtype=bool))
                    i = i.astype(np.int32)
                    i *= step
                    i += t
                    parts.append(i)
            parts = [x for x in parts if x.size]
            if parts:
                new = np.concatenate(parts)
                if len(parts) > 1:
                    new.sort()
                self._append(new)
        self._reach = top

    def _append(self, new: np.ndarray) -> None:
        """Append to _found, doubling its capacity when full.  The old
        buffer is copied, not resized, so views already handed out stay
        valid."""
        end = self._count + new.size
        if end > self._found.size:
            grown = np.empty(max(end, 2 * self._found.size), dtype=np.int32)
            grown[: self._count] = self._found[: self._count]
            self._found = grown
        self._found[self._count : end] = new
        self._count = end

    def to_json(self) -> dict:
        return {
            "kind": "congruence_primes",
            "modulus": self.modulus,
            "residues": list(self.residues),
        }


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

    def _window(self, lo, hi):
        out = np.zeros(hi - lo, dtype=bool)
        for v in self.values:
            if lo <= v < hi:
                out[v - lo] = True
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


# Integers per span of a window that _mark_multiples walks, and the most
# products k * ell that one gather holds.
_SPAN = 1 << 18
_GATHER = 1 << 16


def _mark_multiples(out: np.ndarray, lo: int, big: np.ndarray) -> None:
    """Set out[n - lo] at every multiple n = k * ell in [lo, lo + out.size)
    of an ell of `big`, an ascending int32 array of values above the window
    end's square root, so that every k is at most that root.

    The window is walked in spans of _SPAN integers.  For all k at once,
    the ells with k * ell in a span are big[start:end], end found by one
    searchsorted on (span end - 1) // k, and each span's end is the next
    span's start.  The products of consecutive k are gathered in chunks of
    about _GATHER: no array as long as the window, or as big, is made.
    """
    if not big.size:
        return
    hi = lo + out.size
    ks = np.arange(1, (hi - 1) // int(big[0]) + 1, dtype=np.int32)
    start = np.searchsorted(big, (lo - 1) // ks, side="right")
    for a in range(lo, hi, _SPAN):
        end = np.searchsorted(big, (min(a + _SPAN, hi) - 1) // ks, side="right")
        count = end - start
        cum = np.cumsum(count)
        first = cum - count  # the flat position of each k's first product
        i = 0
        while i < ks.size:
            j = max(int(np.searchsorted(cum, first[i] + _GATHER, side="right")), i + 1)
            c = count[i:j]
            pos = np.repeat(start[i:j] - first[i:j], c)
            pos += np.arange(first[i], cum[j - 1])
            out[big[pos] * np.repeat(ks[i:j], c) - lo] = True
            i = j
        start = end


class MultiplesOf(OrderSet):
    """n such that some ell divides n; ells finite or a prime source."""

    kind = "multiples_of"
    closed_under_nat_multiplication = True

    def __init__(self, ells=None,
                 ell_set: ListSource | CongruenceSource | None = None):
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

    def _window(self, lo, hi):
        out = np.zeros(hi - lo, dtype=bool)
        divs = (self.ell_set.primes_up_to(hi - 1) if self.ells is None
                else np.array([l for l in self.ells if l < hi], dtype=np.int32))
        root = math.isqrt(hi - 1)
        cut = int(np.searchsorted(divs, np.int32(root), side="right"))
        for l in divs[:cut].tolist():
            out[-lo % l :: l] = True
        _mark_multiples(out, lo, divs[cut:])
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

    def _window(self, lo, hi):
        out = np.ones(hi - lo, dtype=bool)
        out[-lo % self.ell :: self.ell] = False
        return out

    def to_json(self):
        return {"kind": "complement_multiples_of", "ell": self.ell}


class CompositeNumbers(OrderSet):
    """Non-primes.  Contains 1, so excluded n are exactly the primes."""

    kind = "composite_numbers"
    closed_under_nat_multiplication = True

    def _member(self, n, fac):
        return sum(fac.values()) != 1

    def _window(self, lo, hi):
        out = prime_mask(lo, hi)
        return np.logical_not(out, out=out)

    def to_json(self):
        return {"kind": "composite_numbers"}


class PrimeNumbers(OrderSet):
    kind = "prime_numbers"
    closed_under_nat_multiplication = False

    def _member(self, n, fac):
        return sum(fac.values()) == 1

    def _window(self, lo, hi):
        return prime_mask(lo, hi)

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

    def _window(self, lo, hi):
        out = np.zeros(hi - lo, dtype=bool)
        v = 1
        while v < hi:
            if v >= lo:
                out[v - lo] = True
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

    def _window(self, lo, hi):
        out = self.base.indicator(lo, hi)
        _mark_prime_squares(out, lo, hi)
        return out

    def to_json(self):
        return {"kind": "squarefree_augmented", "base": self.base.to_json()}


def _residues(m: int, d: np.ndarray) -> np.ndarray:
    """m % d for a Python int m >= 0 and every d of an array of positive
    integers below 2^32, as uint64: Horner's rule over the base-2^32 digits
    of m, high to low, so m itself, which may pass int64, never meets numpy."""
    d = d.astype(np.uint64)
    r = np.zeros_like(d)
    for shift in range(32 * ((m.bit_length() - 1) // 32), -1, -32):
        r <<= np.uint64(32)
        r |= np.uint64((m >> shift) & 0xFFFFFFFF)
        r %= d
    return r


class OmegaBounded(OrderSet):
    """n with Omega(n/gcd(m,n)) > r, or a factor of n/gcd(m,n) outside L.

    The complement (the n kept by dominant sums) consists of d*q with d | m
    and q built from at most r primes of L.
    """

    kind = "omega_bounded"
    closed_under_nat_multiplication = True

    def __init__(self, r: int, ell_set: ListSource | CongruenceSource, m: int):
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

    def _window(self, lo, hi):
        # Omega(q) and the primes of q for q = n/gcd(m, n), from the window's
        # n alone, a block at a time.  The primes p up to the root of the
        # window end and their powers are divided out of n; p^k | n puts p
        # into q once k > ord_p(m).  What is left of n above 1 is its one
        # larger prime, which is in q unless it divides m.  So no array
        # outside the window is built, and m is never factored: only its
        # primes up to the root are divided out, and the rest of it is read
        # through _residues.
        small = _primes_to(math.isqrt(hi - 1))
        m_ord, rest = {}, self.m
        for p in small:
            if rest % p == 0:
                m_ord[p] = e = ord_p(rest, p)
                rest //= p**e
        member = np.empty(hi - lo, dtype=bool)
        for a in range(lo, hi, SIEVE_BLOCK):
            b = min(a + SIEVE_BLOCK, hi)
            rem = np.arange(a, b, dtype=np.int32)
            omega = np.zeros(b - a, dtype=np.int8)
            bad = member[a - lo : b - lo]
            bad[:] = False
            for p in small:
                e, k, pk = m_ord.get(p, 0), 1, p
                while pk < b:
                    rem[-a % pk :: pk] //= p
                    if k > e:
                        omega[-a % pk :: pk] += 1
                        if k == e + 1 and not self.ell_set.contains_prime(p):
                            bad[-a % pk :: pk] = True
                    k, pk = k + 1, pk * p
            big = np.flatnonzero(rem > 1)
            if rest > 1:
                big = big[_residues(rest, rem[big]) != 0]
            omega[big] += 1
            bad |= omega > self.r
            bad[big[~self.ell_set.contains_primes(rem[big])]] = True
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
    "congruence_primes": prime_source_from_json,  # same spec and class as the source
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


class DensityEstimate(namedtuple("DensityEstimate", "limit member_count total_count")):
    __slots__ = ()

    def __new__(cls, limit: int, member_count: int, total_count: int):
        if member_count > total_count:
            raise InvariantViolation("prime-sets: member_count > total_count")
        return super().__new__(cls, limit, member_count, total_count)

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

    Induced sets take every m_p from one mult_orders call, as int32, and
    once a seeded sample of CROSS_CHECKS of them agrees with scalar
    mult_order, count membership window by window.  The m_p lie all over
    [1, limit], so they are sorted in place, and each window of
    DENSITY_WINDOW integers gathers its own m_p from the order set's
    indicator over that window: the sieve table and the primes are dropped
    first, and no array as long as limit is built beyond the orders.
    """
    if limit > SIEVE_CAPACITY:
        raise CapacityError(f"prime-sets: density limit {limit} over capacity")
    table = sieve_primes(limit)
    odd_primes = table.primes[1:]  # primes[0] is 2
    total = odd_primes.size
    if isinstance(pset, ExplicitFinitePrimes):
        listed = np.array([p for p in pset.primes if p <= limit], dtype=np.int64)
        members = np.count_nonzero(np.isin(odd_primes, listed))
        return DensityEstimate(limit, int(members), total)
    orders = mult_orders(odd_primes, table)
    checks = [(int(odd_primes[i]), int(orders[i]))
              for i in random.Random(0).sample(range(total), min(CROSS_CHECKS, total))]
    del table, odd_primes  # only the orders are read from here on
    for p, bulk in checks:
        expect = mult_order(p)
        if bulk != expect:
            raise InvariantViolation(f"prime-sets: bulk order {bulk} of {p} "
                                     f"disagrees with mult_order {expect}")
    orders.sort()
    edges = [*range(0, limit + 1, DENSITY_WINDOW), limit + 1]
    # int32 needles, as the orders are: wider ones would cast all of them.
    cuts = orders.searchsorted(np.array(edges, dtype=np.int32)).tolist()
    members = 0
    for lo, hi, a, b in zip(edges, edges[1:], cuts, cuts[1:]):
        window = pset.order_set.indicator(lo, hi)
        members += np.count_nonzero(window[orders[a:b] - lo])
    return DensityEstimate(limit, int(members), total)
