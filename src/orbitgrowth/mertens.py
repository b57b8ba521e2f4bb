"""Exact periodic-point counts, orbit counts and Mertens sums, plus the
dominant-term evaluators that need no factorizations at all.

Two evaluation regimes:

  * exact mode: F(n), O(n) and M_S(N) = sum O(n) 2^-n as exact rationals,
    up to N = EXACT_CEILING = 10^4, a few seconds.  No factorization of
    2^n - 1 is read: a finite S lifts its members' exponents, and an
    induced S multiplies the primitive parts Phi_d(2) / gcd(Phi_d(2), d)
    of the orders d | n in M.  The ceiling must stay below 14284: past
    it, str() of a value over 2^N passes Python's default limit of 4300
    digits.
  * dominant mode: sum_{n <= N, n not in M} 1/n by membership sieving with
    a 96-fractional-bit fixed-point accumulator; the only ingredient is the
    order set, never a factorization.  The accumulator asks for the mask of
    surviving n one window of at most _WINDOW integers at a time, the order
    set's indicator over that window, inverted in place, so no array as
    long as N is built.  It finds each term floor(2^96 / n), n < 2^31, in
    two uint64 divisions by 2^63 and by the remainder times 2^33, and
    combines the sums of the two as exact Python ints.

squarefree_slope is a dominant sum too: the squarefree n are those outside
squarefree_augmented over the empty list.  The decomposition of F_S(N) into
strata, one for each mbar_n that occurs, takes any order set; it removes
S from 2^mbar - 1 once per stratum and lifts the rest from j = n / mbar,
while the direct sum removes S from each 2^n - 1 whole, so the two code
paths cross-validate each other.  Both ask the order set for membership,
which it decides once per n and remembers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .arith import SIEVE_CAPACITY, np
from .errors import CapacityError, ContractError, InvariantViolation
from .fitting import _linear_fit
from .integers import ORDERS, cyclotomic_eval2, divisors, factorize, moebius, ord_p_mersenne
from .sets import (
    ExplicitFinitePrimes,
    ExplicitList,
    InducedPrimes,
    OrderSet,
    PrimeSet,
    SquarefreeAugmented,
)

FRAC_BITS = 96
_SCALE = 1 << FRAC_BITS
# Integers per window that the accumulator asks to be marked, and terms per
# _fixed_point_terms call within it.
_WINDOW = 1 << 19
_CHUNK = 1 << 16

EXACT_CEILING = 10_000


class MertensSeries(namedtuple("MertensSeries", "label mode samples")):
    """Grid of (N, value) samples; exact rationals or fixed-point dyadics.
    `mode` is "exact" or "dominant"."""

    __slots__ = ()

    def __new__(cls, label: str, mode: str, samples: list[tuple[int, Fraction]]):
        if mode not in ("exact", "dominant"):
            raise ContractError(f"mertens-engine: unknown mode {mode!r}")
        last_n = 0
        last_v = None
        for n, v in samples:
            if n <= last_n:
                raise InvariantViolation("mertens-engine: sample grid not increasing")
            if last_v is not None and v < last_v:
                raise InvariantViolation("mertens-engine: series values decreased")
            last_n, last_v = n, v
        return super().__new__(cls, label, mode, samples)

    def value_at(self, n: int) -> Fraction:
        for g, v in self.samples:
            if g == n:
                return v
        raise KeyError(f"no sample at N={n}")

    def float_samples(self) -> list[tuple[int, float]]:
        return [(n, float(v)) for n, v in self.samples]


RemainderBound = namedtuple("RemainderBound", "n bound_r bound_q")


def _normalize_prime_set(s) -> PrimeSet:
    if isinstance(s, PrimeSet):
        return s
    if s is None:
        return ExplicitFinitePrimes([])
    return ExplicitFinitePrimes(sorted(s))


# ---------------------------------------------------------------------------
# The strata: n is charged to mbar_n, the lcm of the orders of M it realizes.


def _realized_divisors(n: int, oset: OrderSet) -> list[int]:
    """The divisors of n in M that are the order of some prime: all but 1
    and 6, since 2^1 - 1 and 2^6 - 1 have no primitive prime.  The order
    set decides each d once, however many series and n ask."""
    return [d for d in divisors(n) if d not in (1, 6) and oset.contains(d)]


def mbar_of(n: int, oset: OrderSet) -> int:
    """lcm of the realized orders in M dividing n (empty lcm = 1)."""
    return math.lcm(*_realized_divisors(n, oset))


def _removal(n: int, pset: PrimeSet) -> int:
    """prod_{p in S} p^{ord_p(2^n - 1)}, the S-part of 2^n - 1.

    A finite S lifts each member's exponent with ord_p_mersenne.  An
    induced S = {p : m_p in M} needs no factorization of 2^n - 1: by Bang
    and Zsigmondy the primes of order d, with multiplicity, multiply to
    Phi_d(2) / gcd(Phi_d(2), d), since the one other prime that can divide
    Phi_d(2) is the largest prime of d, and only once.  Lifting the
    exponent, ord_p(2^n - 1) = e_p + ord_p(n), adds the p^{ord_p(n)}.
    """
    if isinstance(pset, ExplicitFinitePrimes):
        return math.prod(p ** ord_p_mersenne(p, n) for p in pset.primes)
    if isinstance(pset, InducedPrimes):
        out = _lifted(n, n, pset.order_set)
        for d in _realized_divisors(n, pset.order_set):
            out *= _primitive_part(d)
        return out
    raise ContractError(f"mertens-engine: unsupported prime-set kind {pset.kind!r}")


@lru_cache(maxsize=EXACT_CEILING)
def _primitive_part(d: int) -> int:
    """Phi_d(2) / gcd(Phi_d(2), d), the product of the primes of order d
    with multiplicity.  The cache keeps one value per d, so at the ceiling
    at most sum_{d <= 10^4} phi(d) bits, about 3.8 MB."""
    phi = cyclotomic_eval2(d)
    return phi // math.gcd(phi, d)


def _lifted(j: int, mbar: int, oset: OrderSet) -> int:
    """prod p^{ord_p(j)} over the odd primes p | j whose order m_p is in M
    and divides mbar.  By lifting the exponent this is the S-part of
    2^(mbar j) - 1 over that of 2^mbar - 1 when mbar is the stratum of
    mbar j, and with j = mbar the S-part of 2^mbar - 1 over its primitive
    parts."""
    out = 1
    for p, e in factorize(j).items():
        if p > 2:
            m = ORDERS.order(p)
            if mbar % m == 0 and oset.contains(m):
                out *= p**e
    return out


def periodic_points(n: int, s) -> int:
    """F(n) = (2^n - 1) prod_{p in S} |2^n - 1|_p, as an exact integer."""
    if n < 1:
        raise ContractError(f"mertens-engine: period must be >= 1, got {n}")
    return _periodic_points(n, _normalize_prime_set(s))


def _periodic_points(n: int, pset: PrimeSet) -> int:
    q, r = divmod((1 << n) - 1, _removal(n, pset))
    if r:
        raise InvariantViolation(
            f"mertens-engine: |2^{n}-1|_S removal not exact (S={pset.label()})"
        )
    return q


def orbit_count(n: int, s) -> int:
    """O(n) = (1/n) sum_{d|n} mu(n/d) F(d); checked non-negative integer."""
    total = 0
    for d in divisors(n):
        total += moebius(n // d) * periodic_points(d, s)
    return _orbits(n, total)


def _orbits(n: int, total: int) -> int:
    """O(n) = total / n for total = sum_{d|n} mu(n/d) F(d), checked to be a
    non-negative integer."""
    q, r = divmod(total, n)
    if r or q < 0:
        raise InvariantViolation(
            f"mertens-engine: orbit count at n={n} is not a non-negative integer"
        )
    return q


def mertens_exact(
    n_max: int,
    s,
    orders: object = None,
    cache: object = None,
) -> MertensSeries:
    """M_S(N) = sum_{n <= N} O(n) 2^-n for every N <= n_max, exactly.

    F(1..n_max) are computed once each, and Möbius inversion over that list
    gives every O(n), as orbit_count does for one n.  The sum is kept as one
    integer numerator over 2^N, num_N = 2 num_{N-1} + O(N).  The entropy
    log 2 is hardwired through e^{-hn} = 2^{-n}.  `orders` and `cache` are
    ignored: perfbench/ops.py still passes an order table and a factor
    cache positionally.
    """
    if n_max < 1:
        raise ContractError("mertens-engine: n_max must be >= 1")
    if n_max > EXACT_CEILING:
        raise ContractError(
            f"mertens-engine: exact mode ceiling is {EXACT_CEILING}, got n_max={n_max}"
        )
    pset = _normalize_prime_set(s)
    mu = [0] + [moebius(j) for j in range(1, n_max + 1)]
    totals = [0] * (n_max + 1)  # totals[n] = sum_{d|n} mu(n/d) F(d)
    for d in range(1, n_max + 1):
        f = _periodic_points(d, pset)
        for j in range(1, n_max // d + 1):
            totals[d * j] += mu[j] * f
    num = 0
    samples = []
    for n in range(1, n_max + 1):
        num = 2 * num + _orbits(n, totals[n])
        samples.append((n, Fraction(num, 1 << n)))
    return MertensSeries(label=pset.label(), mode="exact", samples=samples)


def default_grid(n_max: int, start: int = 10) -> list[int]:
    """Half-decade grid up to n_max, always ending at n_max."""
    grid = []
    k = 0
    while True:
        g = int(round(10 ** (k / 2)))
        if g > n_max:
            break
        if g >= start:
            grid.append(g)
        k += 1
    if not grid or grid[-1] != n_max:
        grid.append(n_max)
    return sorted(set(grid))


def _sample_grid(n_max: int, grid: list[int] | None) -> list[int]:
    """The sorted grid of a dominant-mode series, default_grid(n_max) if
    none is given; a grid point below 1 is a usage error."""
    if n_max < 1:
        raise ContractError("mertens-engine: n_max must be >= 1")
    if not grid:
        return default_grid(n_max)
    if min(grid) < 1:
        raise ContractError(f"mertens-engine: grid points must be >= 1, got {min(grid)}")
    return sorted(set(grid))


def dominant_sum(
    n_max: int,
    oset: OrderSet,
    grid: list[int] | None = None,
) -> MertensSeries:
    """sum_{n <= N, n not in M} 1/n over a grid, by membership sieving.

    Requires M closed under multiplication by the naturals; that closure is
    exactly what reduces every |2^n - 1|_S factor on the surviving n to 1.
    _harmonic_fixed_point asks for one window of n at a time; each
    indicator call returns a new array, so the window's indicator is
    inverted in place into the mask of its surviving n.  Accumulation is
    fixed point with 96 fractional bits (term error is one ulp, so the
    total error is below N * 2^-96).
    """
    if not oset.closed_under_nat_multiplication:
        raise ContractError(
            "mertens-engine: order set is not closed under multiplication by N; "
            "use decompose_lcm_closed instead"
        )
    if n_max > SIEVE_CAPACITY:
        raise CapacityError(
            f"mertens-engine: n_max {n_max} over capacity {SIEVE_CAPACITY}")
    grid = _sample_grid(n_max, grid)
    if grid[-1] > n_max:
        raise ContractError("mertens-engine: grid extends past n_max")

    def keep(lo: int, hi: int) -> np.ndarray:
        mask = oset.indicator(lo, hi)
        return np.logical_not(mask, out=mask)

    samples = [(g, Fraction(acc, _SCALE))
               for g, acc in zip(grid, _harmonic_fixed_point(keep, grid))]
    return MertensSeries(label=oset.label(), mode="dominant", samples=samples)


def _harmonic_fixed_point(keep, grid: list[int]) -> list[int]:
    """sum floor(2^96 / n) over the kept n in [1, g] for each g of the
    increasing grid, where keep(lo, hi) is the boolean mask over [lo, hi)
    of the kept n.  The sums are exact integers, so callers divide by 2^96
    exactly (as Fraction or correctly rounded float).

    [1, grid[-1]] is walked in windows of at most _WINDOW integers, each
    ending at the next grid point if that comes first, so every grid point
    closes at a window edge.  The terms of each _CHUNK integers of a window
    are their nonzero offsets, read as uint64, plus their start; only
    window- and chunk-sized arrays are made.  Each chunk goes to
    _fixed_point_terms, which takes n < 2^31; the callers keep the grid
    within SIEVE_CAPACITY, below that.
    """
    acc = 0
    lo = 1
    out = []
    for g in grid:
        while lo <= g:
            hi = min(lo + _WINDOW, g + 1)
            mask = keep(lo, hi)
            for a in range(0, hi - lo, _CHUNK):
                n = mask[a : a + _CHUNK].nonzero()[0].view(np.uint64)
                n += np.uint64(lo + a)
                acc += _fixed_point_terms(n)
            lo = hi
        out.append(acc)
    return out


def _fixed_point_terms(n: np.ndarray) -> int:
    """sum floor(2^96 / n) over a uint64 array of fewer than 2^31 terms
    1 <= n < 2^31, as an exact int.

    Each term is found in two uint64 divisions: q = 2^63 // n, r = 2^63 % n,
    and floor(2^96 / n) = q 2^33 + (r 2^33) // n, floor-exact because
    n < 2^31 keeps r 2^33 below 2^64; n = 1 needs no special case.  The
    sum of the q, each at most 2^63, can pass 2^64: its wrapped uint64 sum
    fixes it modulo 2^64, and the exact sum of q >> 32, taken in place,
    gives the rest.  The second divisions, each below 2^33, sum exactly.
    The work arrays are updated in place: a fresh one per step costs page
    faults, as freed arrays of this size go back to the system.
    """
    top = int(n.max(initial=0))
    if top >= 1 << 31:
        raise CapacityError(f"mertens-engine: fixed-point terms need n < 2^31, got {top}")
    q = np.empty_like(n)
    r = np.empty_like(n)
    np.divmod(np.uint64(1 << 63), n, out=(q, r))
    wrapped = int(q.sum())
    q >>= np.uint64(32)
    high = int(q.sum()) << 32
    r <<= np.uint64(33)
    np.floor_divide(r, n, out=r)
    first = high + (wrapped - high) % (1 << 64)
    return (first << 33) + int(r.sum())


# ---------------------------------------------------------------------------
# The squarefree harmonic slope.


SquarefreeSlope = namedtuple("SquarefreeSlope", "n_max total slope samples")


def squarefree_slope(n_max: int) -> SquarefreeSlope:
    """Sum of 1/n over squarefree n <= N and its slope against log N.

    The squarefree n are exactly those outside squarefree_augmented over
    the empty list, a set closed under multiplication by the naturals, so
    the sum is that set's dominant_sum, which checks n_max.  Sampled on
    the dyadic grid; the regression uses points >= 2^10 to skip the early
    transient (below two grid points the slope is NaN).
    """
    grid = []
    g = 64
    while g < n_max:
        grid.append(g)
        g *= 2
    grid.append(n_max)
    series = dominant_sum(n_max, SquarefreeAugmented(ExplicitList([])), grid)
    samples = series.float_samples()
    fit_pts = [(g, v) for g, v in samples if g >= 1024]
    if len(fit_pts) < 2:
        fit_pts = samples
    if len(fit_pts) < 2:
        slope = math.nan
    else:
        slope, _, _ = _linear_fit([math.log(g) for g, _ in fit_pts],
                                  [v for _, v in fit_pts])
    return SquarefreeSlope(
        n_max=n_max,
        total=series.samples[-1][1],
        slope=slope,
        samples=tuple(samples),
    )


def decompose_lcm_closed(
    n_max: int,
    oset: OrderSet,
    orders: object = None,
    cache: object = None,
) -> tuple[MertensSeries, list[int]]:
    """F_S(N) assembled stratum by stratum, and the sorted strata: the
    mbar_n that occur for n <= N.  Any order set is taken; the name is
    historical, from when only lcm-closed sets were.  `orders` and `cache`
    are ignored: perfbench/ops.py still passes an order table and a factor
    cache positionally.

    Each n is charged to the stratum of mbar_n = lcm of the realized orders
    in M dividing n.  A prime p of S divides 2^n - 1 exactly when m_p is
    one of those orders, that is when m_p divides mbar; so writing
    n = mbar * j turns the term into (|2^mbar - 1|_S / mbar) * |j|_S' / j,
    with S' the odd primes p | j with m_p | mbar in M, whose exponents
    lifting adds.  A stratum's denominator mbar * |2^mbar - 1|_S^-1 is
    built the first time its mbar turns up.  The result must agree exactly
    with the direct summation f_series_direct, which removes the S-part of
    each 2^n - 1 whole.  Both sample default_grid(n_max).
    """
    pset = InducedPrimes(oset)
    grid = set(_sample_grid(n_max, None))
    strata: dict[int, int] = {}  # mbar -> mbar |2^mbar - 1|_S^-1
    acc = Fraction(0)
    samples = []
    for n in range(1, n_max + 1):
        mbar = mbar_of(n, oset)
        if mbar not in strata:
            strata[mbar] = mbar * _removal(mbar, pset)
        j = n // mbar
        acc += Fraction(1, strata[mbar] * j * _lifted(j, mbar, oset))
        if n in grid:
            samples.append((n, acc))
    series = MertensSeries(label=oset.label(), mode="dominant", samples=samples)
    return series, sorted(strata)


def f_series_direct(
    n_max: int,
    s,
    orders: object = None,
    cache: object = None,
) -> MertensSeries:
    """F_S(N) = sum_{n <= N} |2^n - 1|_S / n summed term by term, exactly,
    sampled on default_grid(n_max).  `orders` and `cache` are ignored:
    perfbench/ops.py still passes an order table and a factor cache
    positionally."""
    grid = set(_sample_grid(n_max, None))
    pset = _normalize_prime_set(s)
    acc = Fraction(0)
    samples = []
    for n in range(1, n_max + 1):
        acc += Fraction(1, n * _removal(n, pset))
        if n in grid:
            samples.append((n, acc))
    return MertensSeries(label=pset.label(), mode="dominant", samples=samples)


_LN2 = math.log(2.0)


def remainder_bounds(n: int) -> RemainderBound:
    """Closed-form tail bounds at N = n.

    bound_r dominates |R_S(N) - C_S| via the geometric tails
    2^-N/(1 - 1/2) + 2^{-N/2}/(1 - 2^{-1/2}); bound_q dominates the
    non-dominant stratum tail via 4 * integral_N^inf 2^{-sqrt(t)} dt, using
    phi(n) >= sqrt(n) beyond the sixth term.
    """
    if n < 6:
        raise ContractError(f"mertens-engine: remainder bounds need N >= 6, got {n}")
    bound_r = 2.0 ** (-n) / 0.5 + 2.0 ** (-n / 2) / (1.0 - 2.0 ** (-0.5))
    rt = math.sqrt(n)
    bound_q = 4.0 * 2.0 * (rt / _LN2 + 1.0 / _LN2**2) * 2.0 ** (-rt)
    return RemainderBound(n=n, bound_r=bound_r, bound_q=bound_q)
