"""Factorizations of 2^m - 1 with a persistent, verified cache.

factor_mersenne peels the factors of 2^d - 1 for the proper divisors d of
m and hands the primitive part to integers.factor_by_trial, the package's
one factoring routine; exponents run to MERSENNE_CAPACITY.
primitive_primes reads the primitive class of m from the cache line of m
alone, by one order test per prime.

The cache file is line-delimited JSON, one object per line:

    {"m": 29, "factors": [[233, 1], [1103, 1], [2089, 1]]}

Every entry is re-verified by an exact product check on load; a complete
line that is malformed or fails the check is a hard error naming the line
number.  An unterminated final line of the overlay file, left by a writer
cut off mid-line, is skipped and counted in `FactorCache.torn_lines`; the
next flush, which holds an exclusive `flock` on the overlay, cuts it off
before appending and fsyncs the file.  A seed cache for all m <= 128,
generated by this same engine with a generous budget, ships inside the
package.  Partial factorizations are never cached.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from collections import namedtuple
from importlib import resources
from itertools import chain

from .errors import BudgetError, CacheMissError, CapacityError, InvariantViolation
from .integers import (
    FACTORIZE_BUDGET,
    MR_PROVEN_BOUND,
    ORDERS,
    divisors,
    factor_by_trial,
    factorize,
    progression_segments,
)

SEED_RESOURCE = "mersenne_m128.jsonl"
# The largest exponent factor_mersenne accepts.  Primality tests run outside
# the budget, and one on the Mersenne prime 2^2203 - 1 alone takes 1.6 s.
MERSENNE_CAPACITY = 1000


class MersenneFactorization(namedtuple("MersenneFactorization", "m factors")):
    """Complete factorization of 2^m - 1, product-checked at construction.

    `factors` lists ascending (prime, exponent) pairs; `certified` says all
    prime factors are below the proven Miller-Rabin bound.
    """

    __slots__ = ()

    def __new__(cls, m: int, factors: tuple[tuple[int, int], ...]):
        prod = 1
        last = 1
        for p, e in factors:
            if p <= last or e < 1:
                raise InvariantViolation(
                    f"mersenne-factors: factors of m={m} not ascending/positive"
                )
            last = p
            prod *= p**e
        if prod != (1 << m) - 1:
            raise InvariantViolation(
                f"mersenne-factors: product check failed for m={m}"
            )
        return super().__new__(cls, m, factors)

    @property
    def certified(self) -> bool:
        return not self.factors or self.factors[-1][0] < MR_PROVEN_BOUND

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]

    def to_json(self) -> str:
        return json.dumps(
            {"m": self.m, "factors": [list(pe) for pe in self.factors]},
            separators=(",", ":"),
        )


def _from_json_line(line: str, lineno: int, source: str) -> MersenneFactorization:
    try:
        obj = json.loads(line)
        m = int(obj["m"])
        factors = tuple((int(p), int(e)) for p, e in obj["factors"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(
            f"mersenne-factors: {source} line {lineno}: malformed entry ({exc})"
        ) from exc
    try:
        fz = MersenneFactorization(m=m, factors=factors)
    except InvariantViolation as exc:
        raise ValueError(
            f"mersenne-factors: {source} line {lineno}: failed the product check"
        ) from exc
    return fz


class FactorCache:
    """Append-only store of verified factorizations.

    Entries from the packaged seed file are always available.  When `path`
    is given, entries from that file are loaded on top and new complete
    factorizations are appended there on flush().  Only verified entries
    are ever inserted.  A cache belongs to one thread; writers in other
    processes are serialized by the exclusive flock that flush() takes.
    """

    def __init__(self, path: str | None = None, load_seed: bool = True):
        self.path = path
        self._entries: dict[int, MersenneFactorization] = {}
        self._dirty: list[int] = []
        self.torn_lines = 0  # unterminated final overlay lines skipped on load
        if load_seed:
            seed = resources.files("orbitgrowth.data").joinpath(SEED_RESOURCE)
            self._load_text(seed.read_text(encoding="utf-8"), source=SEED_RESOURCE)
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except FileNotFoundError:
                text = ""
            # A writer cut off mid-line leaves an unterminated final line:
            # it is skipped and counted, while every complete line is checked.
            body, _, torn = text.rpartition("\n")
            if torn.strip():
                self.torn_lines += 1
            self._load_text(body, source=path)

    def _load_text(self, text: str, source: str) -> None:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            fz = _from_json_line(line, lineno, source)
            self._entries[fz.m] = fz

    def __contains__(self, m: int) -> bool:
        return m in self._entries

    def get(self, m: int) -> MersenneFactorization:
        try:
            return self._entries[m]
        except KeyError:
            raise CacheMissError(m) from None

    def put(self, fz: MersenneFactorization) -> None:
        if fz.m not in self._entries:
            self._entries[fz.m] = fz
            self._dirty.append(fz.m)

    def flush(self) -> int:
        """Append dirty entries to the backing file; returns count written."""
        if self.path is None or not self._dirty:
            self._dirty.clear()
            return 0
        batch = "".join(self._entries[m].to_json() + "\n" for m in self._dirty)
        with open(self.path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            end = fh.seek(0, os.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    # Every writer holds the flock, so an unterminated
                    # tail seen here is a dead write: cut it off, or the
                    # batch would be glued onto it.
                    fh.seek(0)
                    fh.truncate(fh.read().rfind(b"\n") + 1)
            fh.write(batch.encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
        n = len(self._dirty)
        self._dirty.clear()
        return n

    def exponents(self) -> list[int]:
        return sorted(self._entries)


def factor_mersenne(
    m: int,
    cache: FactorCache | None = None,
    budget: float = FACTORIZE_BUDGET,
) -> MersenneFactorization:
    """Complete verified factorization of 2^m - 1, for 1 <= m <=
    MERSENNE_CAPACITY and a budget of at least 0 seconds.

    Strategy: peel the algebraic part using cached/recursive factorizations
    of 2^d - 1 for proper divisors d | m, then factor the primitive part
    with integers.factor_by_trial: trial division, until the part left is
    prime, by the primes p = 1 (mod m) up to 10^7, sieved from that
    progression (any new prime must have order exactly m) with each
    sieving prime set up once, and for each composite piece left one
    Pollard p - 1 step (stages 1 and 2, stage 2 stopping at the first
    segment that splits) with multiplier 2m, then Brent rho, all under the
    time budget.  The budget covers the whole call: recursive calls get the
    time that is left.  When it runs out, the BudgetError carries a
    MersennePartial for this m whose factors and cofactors multiply to
    2^m - 1.
    """
    if m < 1:
        raise ValueError(f"mersenne-factors: exponent must be >= 1, got {m}")
    if m > MERSENNE_CAPACITY:
        raise CapacityError(f"mersenne-factors: exponent {m} exceeds capacity "
                            f"bound {MERSENNE_CAPACITY}")
    if not budget >= 0:
        raise ValueError(f"mersenne-factors: budget must be >= 0 seconds, got {budget}")
    if cache is not None and m in cache:
        return cache.get(m)
    deadline = time.monotonic() + budget
    found: dict[int, int] = {}

    def out_of_time(cofactors: list[int]) -> BudgetError:
        cofactors = sorted(cofactors)
        return BudgetError(
            f"mersenne-factors: budget exhausted for m={m}; "
            f"composite cofactor(s) {cofactors} remain",
            partial=MersennePartial(m, dict(found), tuple(cofactors)),
        )

    remaining = (1 << m) - 1
    for d in divisors(m)[:-1]:
        if d == 1:
            continue
        try:
            sub = factor_mersenne(d, cache, max(0.0, deadline - time.monotonic()))
        except BudgetError:
            raise out_of_time([remaining]) from None
        for p in sub.primes():
            while remaining % p == 0:
                remaining //= p
                found[p] = found.get(p, 0) + 1

    # Primitive primes are 1 mod m (and odd), so the trial divisors are the
    # primes of 1 + step, 1 + 2 step, ... with step m or 2m accordingly;
    # p - 1 takes 2m on top of its smooth part.
    step = m if m % 2 == 0 else 2 * m
    candidates = chain.from_iterable(progression_segments(1 + step, 10**7 + 1, step))
    try:
        found.update(factor_by_trial(remaining, candidates, 2 * m, deadline))
    except BudgetError as exc:
        primitive, cofactors = exc.partial
        found.update(primitive)
        raise out_of_time(cofactors) from None

    fz = MersenneFactorization(m=m, factors=tuple(sorted(found.items())))
    if cache is not None:
        cache.put(fz)
    return fz


# Carried by BudgetError: what was split before the deadline, as the prime
# `factors` {p: e} and the composite `cofactors` left.
MersennePartial = namedtuple("MersennePartial", "m factors cofactors")


def primitive_primes(m: int, cache: FactorCache) -> frozenset[tuple[int, int]]:
    """{(p, e_p)} for the primes of multiplicative order exactly m, which
    are registered in the order memo integers.ORDERS.

    Read from the cache line of m alone: a prime p of 2^m - 1 has order
    exactly m when 2^(m/q) != 1 (mod p) for every prime q | m.  For a
    primitive p the cached exponent is e_p itself, since p = 1 (mod m)
    forces p > m, hence ord_p(m) = 0.
    """
    maximal = [m // q for q in factorize(m)]  # the largest proper divisors
    members = frozenset((p, e) for p, e in cache.get(m).factors
                        if all(pow(2, d, p) != 1 for d in maximal))
    ORDERS.register_class(m, members)
    return members
