"""Exact leading coefficients, bounds, greedy and recursive constructions.

Everything here produces either a number (exact rational where the theory
gives one) or a certified trace of a construction run at desk scale.
Giant prime intervals are never enumerated: the interval recursion is
verified under an idealized/perturbed error model whose per-step error
amplitude is the derived bound a' * 100^(-2^(n/4)).  The module builds on
the integer core and the factor cache only, never on arrays; the interval
prime sets are in `sets` and the squarefree slope in `mertens`.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import (
    BudgetError,
    CapacityError,
    ContractError,
    InfeasibleError,
    InvariantViolation,
)
from .integers import ORDERS, is_probable_prime, ord_p_mersenne
from .mersenne import FactorCache, primitive_primes

class ExactConstant(namedtuple("ExactConstant", "value error_bound", defaults=(None,))):
    """An exact rational value; error_bound present iff it truncates a series."""

    __slots__ = ()

    def __float__(self) -> float:
        return float(self.value)


# ---------------------------------------------------------------------------
# Exact leading coefficients for finite S.

# Distinct lcms the k_S walk may hold.  Its cost is that dict: the odd
# primes to 150 reach 13 648 lcms in under a second, those to 200 reach
# 441 008 in about 30 s.
K_EXACT_STRATA = 1 << 15


def k_exact_finite_s(s) -> ExactConstant:
    """The exact rational coefficient of log N in the Mertens sum of finite S,
    given as an iterable of odd primes.

    k_S is the mean value of f(n) = prod_{p in S} |2^n - 1|_p, and
    |2^n - 1|_p = p^-(e_p + ord_p(n)) when m_p | n and 1 otherwise.  Writing
    f(n) = prod_p (1 + [m_p | n](|2^n - 1|_p - 1)) and expanding over the
    subsets T of S, with L_T = lcm{m_p : p in T}, the n = L_T j carry density
    1 / L_T, and the mean of p^-ord_p(j) is p / (p + 1), so

        k_S = sum_T (1 / L_T) prod_{p in T} (1 / d_p - 1),
        d_p = p^(ord_p(2^L_T - 1) - 1) (p + 1).

    The primes are added in descending order: every later m_q divides
    q - 1 < p, so ord_p(L_T) is final when p joins T.  The walk keeps one
    num/den per lcm, in which subsets of equal lcm merge over the lcm of
    their denominators, and one Fraction reduces the sum.  After each prime
    the walk raises CapacityError if it holds more than K_EXACT_STRATA lcms,
    so at most about twice that many are ever made.
    """
    primes = sorted(set(int(p) for p in s))
    if any(p == 2 for p in primes):
        raise ContractError("constants: 2 is never a member of S")
    for p in primes:
        if not is_probable_prime(p):
            raise ContractError(f"constants: {p} is not prime")
    terms = {1: (1, 1)}  # L_T -> the sum over the T seen so far, as num/den
    for p in reversed(primes):
        m = ORDERS.order(p)
        for lcm, (num, den) in list(terms.items()):
            key = math.lcm(lcm, m)
            d = p ** (ord_p_mersenne(p, key) - 1) * (p + 1)
            term = (num * (1 - d), den * d)
            terms[key] = _add_over_lcm(terms[key], term) if key in terms else term
        if len(terms) > K_EXACT_STRATA:
            raise CapacityError(
                f"constants: the k_S walk passed {K_EXACT_STRATA} lcm strata")
    total = (0, 1)
    for lcm, (num, den) in terms.items():
        total = _add_over_lcm(total, (num, den * lcm))
    return ExactConstant(Fraction(*total))


def _add_over_lcm(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The sum of two num/den pairs, over the lcm of their denominators."""
    joint = math.lcm(a[1], b[1])
    return a[0] * (joint // a[1]) + b[0] * (joint // b[1]), joint


def k_order_bounds(ells) -> tuple[Fraction, dict[int, Fraction]]:
    """Upper bound for the coefficient of an order-class set, and the
    per-prime lower-bound multipliers (1 - 1/ell)."""
    ells = sorted(set(int(l) for l in ells))
    for l in ells:
        if not is_probable_prime(l):
            raise ContractError(f"constants: order {l} is not prime")
    upper = Fraction(1)
    for l in ells:
        upper *= 1 - Fraction(1, l) + Fraction(1, l * ((1 << l) - 1))
    multipliers = {l: 1 - Fraction(1, l) for l in ells}
    return upper, multipliers


# ---------------------------------------------------------------------------
# Greedy construction of dense coefficient values.


GreedyStep = namedtuple("GreedyStep", "ell accepted k_candidate k_after")


class GreedyTrace(namedtuple("GreedyTrace",
                             "target eps decisions terminal k_final chosen")):
    __slots__ = ()

    def __new__(cls, target: Fraction, eps: Fraction, decisions: list[GreedyStep],
                terminal: bool, k_final: Fraction, chosen: tuple[int, ...]):
        last = None
        for step in decisions:
            if step.accepted:
                if last is not None and step.k_after > last:
                    raise InvariantViolation("constants: greedy k increased")
                last = step.k_after
        if terminal and not target <= k_final < target + eps:
            raise InvariantViolation("constants: terminal greedy outside window")
        return super().__new__(cls, target, eps, decisions, terminal, k_final, chosen)


def _next_prime(n: int) -> int:
    n += 1
    while not is_probable_prime(n):
        n += 1
    return n


def greedy_L(
    k,
    eps,
    cache: FactorCache,
    cap: int = 127,
) -> GreedyTrace:
    """Greedy selection of prime orders whose class-set coefficient lands in
    [k, k + eps).

    Candidates are scanned in increasing order and accepted exactly when the
    coefficient stays >= k.  Before running, the upper-bound product over the
    primes in [l0, cap] (l0 the first prime past 1 + k/eps) must already sit
    below k, certifying that the desk-scale cap suffices; otherwise this
    fails loudly rather than running an uncertifiable search.
    """
    k = Fraction(k)
    eps = Fraction(eps)
    if not (0 < k < 1) or eps <= 0:
        raise ContractError("constants: need 0 < k < 1 and eps > 0")

    ell0 = _next_prime(math.floor(1 + k / eps))
    certifier, _ = k_order_bounds(
        l for l in range(ell0, cap + 1) if is_probable_prime(l))
    if certifier >= k:
        raise BudgetError(
            f"constants: candidate cap {cap} cannot certify (k, eps)="
            f"({k}, {eps}); the bound product over [{ell0}, {cap}] is "
            f"{float(certifier):.6f} >= k"
        )

    def class_primes(ell: int) -> list[int]:
        return sorted(p for p, _ in primitive_primes(ell, cache))

    chosen: list[int] = []
    union: list[int] = []
    k_cur = Fraction(1)
    decisions: list[GreedyStep] = []
    terminal = False
    l = 2
    while l <= cap:
        if k <= k_cur < k + eps:
            terminal = True
            break
        cand_set = union + class_primes(l)
        k_cand = k_exact_finite_s(cand_set).value
        accepted = k_cand >= k
        if accepted:
            chosen.append(l)
            union = sorted(cand_set)
            k_cur = k_cand
        decisions.append(
            GreedyStep(ell=l, accepted=accepted, k_candidate=k_cand, k_after=k_cur)
        )
        l = _next_prime(l)
    if not terminal and k <= k_cur < k + eps:
        terminal = True
    trace = GreedyTrace(
        target=k,
        eps=eps,
        decisions=decisions,
        terminal=terminal,
        k_final=k_cur,
        chosen=tuple(chosen),
    )
    if not terminal:
        raise BudgetError(
            f"constants: greedy exhausted candidates <= {cap} outside the window",
            partial=trace,
        )
    return trace


# ---------------------------------------------------------------------------
# The transcendental series over ell-power orders.


class TranscendentalSeries(namedtuple(
        "TranscendentalSeries", "ell terms constant convergents term_values")):
    __slots__ = ()

    @property
    def tail_bound(self) -> Fraction:
        return self.constant.error_bound


def transcendental_series(
    ell: int, terms: int, cache: FactorCache
) -> TranscendentalSeries:
    """Partial sums of sum_e (ell-1) / (ell^{e+1} (2^{ell^e} - 1)) * prod p/(p+1)
    over the primes p dividing 2^{ell^e} - 1, with a rigorous tail bound."""
    if ell < 3 or not is_probable_prime(ell):
        raise ContractError("constants: ell must be an odd prime")
    if terms < 1:
        raise ContractError("constants: need at least one term")
    term_values = []
    convergents = []
    acc = Fraction(0)
    for e in range(terms):
        q = ell**e
        mers = (1 << q) - 1
        term = Fraction(ell - 1, ell ** (e + 1) * mers)
        for p in cache.get(q).primes():
            term *= Fraction(p, p + 1)
        term_values.append(term)
        acc += term
        convergents.append(acc)
    tail = Fraction(1, 1 << (ell**terms - 1))
    constant = ExactConstant(acc, error_bound=tail)
    return TranscendentalSeries(
        ell=ell,
        terms=terms,
        constant=constant,
        convergents=tuple(convergents),
        term_values=tuple(term_values),
    )


# ---------------------------------------------------------------------------
# The interval-length recursion, idealized and perturbed.

# The largest n_max rn_recursion accepts.  The error bound 100^(-2^(n/4))
# is carried as an exact Fraction whose size doubles every 4 steps: a cold
# perturbed `construct rn` takes 0.2 s at n = 40, 1.0 s at 56 and about
# 12 s at 64 (idealized 6 s; 2-vCPU shared Xeon).
RN_CAPACITY = 64


# r_n is the float exp of log_r_n, the exact exponent (a' - sum b)/2, for
# reporting; r_cap is delta / R_n, and big_r is R_n.
RecursionStep = namedtuple(
    "RecursionStep", "n r_n log_r_n b_n eta partial_sum r_cap big_r")


class RecursionTrace(namedtuple(
        "RecursionTrace",
        "delta y a_prime mode steps ratio_ok sandwich_ok interval_ok f_bound_ok x")):
    """The steps of one run and its invariants: ratio_ok, 1 < r_n <
    1 + delta/R_n at every step; sandwich_ok, a'(1 - 2^-n -/+ f(n))
    brackets the partial sums; interval_ok, the modeled log-weight sums
    decay like 2^(-n/2); f_bound_ok, f(n) < 2^-(n+2) on the whole range."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return self.ratio_ok and self.sandwich_ok and self.interval_ok and self.f_bound_ok


def _mpf_to_fraction(v) -> Fraction:
    """Exact dyadic rational equal to an mpmath float (no double rounding)."""
    sign, man, exp, _ = v._mpf_
    if man == 0:
        return Fraction(0)
    fr = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -fr if sign else fr


# The section 9 enclosures are pure functions of their argument, and
# rn_recursion calls on the same (delta, Y) ask for the same ones, so both
# are memoized per process: every n up to RN_CAPACITY, and the latest
# RN_CAPACITY + 1 log1p arguments, as many as one call asks for.
@lru_cache(maxsize=RN_CAPACITY)
def _g_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Rational lower/upper enclosures of 100^(-2^(n/4))."""
    if n % 4 == 0:
        g = Fraction(1, 100 ** (2 ** (n // 4)))
        return g, g
    import mpmath  # deferred: only these bounds need it, and it is slow to import

    with mpmath.workprec(160):
        g = _mpf_to_fraction(
            mpmath.power(100, -mpmath.power(2, mpmath.mpf(n) / 4))
        )
    slack = Fraction(1, 1 << 100)
    return g * (1 - slack), g * (1 + slack)


@lru_cache(maxsize=RN_CAPACITY + 1)
def _log1p_fraction_lower(q: Fraction) -> Fraction:
    """A rational lower bound of log(1 + q) tight to ~2^-150."""
    import mpmath

    with mpmath.workprec(200):
        f = _mpf_to_fraction(
            mpmath.log1p(mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator))
        )
    return f * (1 - Fraction(1, 1 << 150))


def a_prime_window(delta: Fraction, y: int) -> tuple[Fraction, Fraction]:
    """The admissible interval for a': (delta/(5Y), (4/3) log(1 + delta/Y))."""
    lo = delta / (5 * y)
    hi = Fraction(4, 3) * _log1p_fraction_lower(delta / y)
    return lo, hi


# The sign of eta_n under each sign pattern, from n and the seeded rng.
_SIGNS = {
    "plus": lambda n, rng: 1,
    "minus": lambda n, rng: -1,
    "alternating": lambda n, rng: 1 if n % 2 else -1,
    "random": lambda n, rng: rng.choice((-1, 1)),
}
# |eta_n| as a share of its bound a' g(n): none in idealized mode, and
# strictly inside the bound in perturbed mode.
_ETA_SCALE = {"idealized": Fraction(0), "perturbed": 1 - Fraction(1, 1 << 20)}


def rn_recursion(
    delta,
    y: int,
    n_max: int,
    mode: str = "idealized",
    a_prime=None,
    c=None,
    x: int | None = None,
    seed: int = 0,
    sign_pattern: str = "plus",
) -> RecursionTrace:
    """Run the interval-length recursion r_n for n = 1..n_max, with
    1 <= n_max <= RN_CAPACITY, and check its three invariants.

    R_n = floor(2^(n/2) Y) exactly (via isqrt of Y^2 2^n), and b_n is the
    recursion value (a' - sum_{j<n} b_j)/2 plus a measurement error eta_n.
    In perturbed mode |eta_n| sits just inside a' * 100^(-2^(n/4)), signed
    by `sign_pattern` ("plus", "minus", "alternating", "random").  Idealized
    mode is the zero error under any pattern: the partial sums equal
    a'(1 - 2^-n) exactly, and any failure is a bug.

    The giant intervals (2^(R_n), 2^(R_n r_n)] are never enumerated; the
    third invariant is checked against the modeled interval sum, with the
    ln 2 of both sides cancelled: R_n r_n |b_n| <= 4 a' Y 2^(-floor(n/2)).

    a' is a_prime, or derived with Y from a target product c over the blocks
    X = x (default 3) < m <= Y, or else the middle of its window at Y.
    """
    delta = Fraction(delta)
    if not (0 < delta <= 1):
        raise ContractError("constants: delta must be in (0, 1]")
    if y < 2:
        raise ContractError("constants: Y must be >= 2")
    if mode not in _ETA_SCALE:
        raise ContractError(f"constants: unknown recursion mode {mode!r}")
    if sign_pattern not in _SIGNS:
        raise ContractError(f"constants: unknown sign pattern {sign_pattern!r}")
    if n_max < 1:
        raise ContractError(f"constants: n_max must be >= 1, got {n_max}")
    if n_max > RN_CAPACITY:
        raise CapacityError(
            f"constants: n_max {n_max} exceeds capacity bound {RN_CAPACITY}"
        )
    if x is not None and c is None:
        raise ContractError("constants: x (--x) is read only by the c route; "
                            "give c (--c) too")
    if c is not None and a_prime is not None:
        raise ContractError("constants: give a' (--a-prime) or c (--c), not both")
    if c is not None:
        # The c route derives its own cut Y; the y argument is ignored then.
        a_prime, y = _a_prime_from_c(Fraction(c), delta, x if x is not None else 3)
    lo, hi = a_prime_window(delta, y)
    if a_prime is None:
        a_prime = (lo + hi) / 2
    a_prime = Fraction(a_prime)
    if not (lo < a_prime < hi):
        raise ContractError(
            f"constants: a'={float(a_prime):.6g} outside the window "
            f"({float(lo):.6g}, {float(hi):.6g})"
        )

    rng = random.Random(seed)
    sign_of = _SIGNS[sign_pattern]
    eta_scale = _ETA_SCALE[mode]

    steps: list[RecursionStep] = []
    partial = Fraction(0)
    ratio_ok = sandwich_ok = interval_ok = f_bound_ok = True
    f_hat_lo = Fraction(0)  # sum of lower g_j 2^j, scaled by 2^-n on use
    f_hat_hi = Fraction(0)

    for n in range(1, n_max + 1):
        big_r = math.isqrt(y * y << n)
        log_r = (a_prime - partial) / 2
        g_lo, g_hi = _g_bounds(n)
        eta = sign_of(n, rng) * eta_scale * a_prime * g_lo
        b_n = log_r + eta
        partial += b_n
        f_hat_lo = f_hat_lo / 2 + g_lo
        f_hat_hi = f_hat_hi / 2 + g_hi

        # (1) 1 < r_n < 1 + delta/R_n, compared on exponents.
        ratio_ok &= 0 < log_r < _log1p_fraction_lower(Fraction(delta, big_r))
        # (2) the sandwich around a'(1 - 2^-n).
        center = a_prime * (1 - Fraction(1, 1 << n))
        if mode == "idealized" and partial != center:
            raise InvariantViolation(
                f"constants: idealized recursion drifted at n={n}"
            )
        sandwich_ok &= abs(partial - center) < a_prime * f_hat_lo
        # (3) modeled interval log-weight sum.
        r_n = math.exp(log_r)
        interval_ok &= big_r * Fraction(r_n) * abs(b_n) <= Fraction(
            4 * a_prime * y, 1 << n // 2
        )
        # f(n) < 2^-(n+2), via the upper enclosure of f.
        f_bound_ok &= f_hat_hi < Fraction(1, 4)

        steps.append(
            RecursionStep(
                n=n,
                r_n=r_n,
                log_r_n=log_r,
                b_n=b_n,
                eta=eta,
                partial_sum=partial,
                r_cap=float(delta) / big_r,
                big_r=big_r,
            )
        )

    if mode == "idealized" and not (ratio_ok and interval_ok and f_bound_ok):
        raise InvariantViolation("constants: idealized recursion broke an invariant")
    return RecursionTrace(
        delta=delta,
        y=y,
        a_prime=a_prime,
        mode=mode,
        steps=steps,
        ratio_ok=ratio_ok,
        sandwich_ok=sandwich_ok,
        interval_ok=interval_ok,
        f_bound_ok=f_bound_ok,
        x=x,
    )


def _a_prime_from_c(
    c: Fraction, delta: Fraction, x: int
) -> tuple[Fraction, int]:
    """Extract (a', Y) from a target product c under the modeled interval sums.

    The modeled sum over (2^m, 2^(m+delta)] is log(1 + delta/m); Y is the
    unique natural with sum_{X<m<=Y} < log c <= sum_{X<m<=Y+1}, and a' is
    log c minus the blocks X < m < Y minus the modeled
    (2^(Y+delta/4), 2^(Y+delta)] block.
    """
    if c <= 1:
        raise ContractError("constants: c must exceed 1")
    a = math.log(float(c))
    d = float(delta)
    total = 0.0
    m = x + 1
    while total + math.log1p(d / m) < a:
        total += math.log1p(d / m)
        m += 1
        if m > 10**7:
            raise ContractError("constants: c too large for the modeled sums")
    y = m - 1
    if y <= x:
        raise ContractError(
            "constants: X too large for this c; no interval blocks fit below it"
        )
    below_y = total - math.log1p(d / y)
    spent = below_y + math.log1p(0.75 * d / (y + d / 4))
    return Fraction(a - spent), y


# ---------------------------------------------------------------------------
# Greedy subset with a prescribed product of (1 + 1/p).


# via_search is False when the plain greedy pass already landed.
ProductSubsetResult = namedtuple(
    "ProductSubsetResult", "chosen achieved target eps sum_logp_over_p via_search")


def greedy_product_subset(pool, c, eps) -> ProductSubsetResult:
    """A subset L' of the pool with prod (1 + 1/p) in (c(1 - eps), c].

    The plain greedy scan (largest factors first) runs first; on a finite
    desk-scale pool its quantized increments can strand the product short of
    the window, in which case an exact branch-and-bound over the remaining
    subset lattice finishes the job.  All window comparisons are exact
    rational arithmetic.
    """
    pool = sorted(set(int(p) for p in pool))
    for p in pool:
        if not is_probable_prime(p):
            raise ContractError(f"constants: pool element {p} is not prime")
    c = Fraction(c)
    eps = Fraction(eps)
    if c <= 1:
        raise ContractError("constants: c must exceed 1")
    if not (0 < eps < 1):
        raise ContractError("constants: eps must be in (0, 1)")
    lo_edge = c * (1 - eps)

    total = Fraction(1)
    for p in pool:
        total *= 1 + Fraction(1, p)
    if total < c:
        raise InfeasibleError(
            f"constants: pool product {float(total):.6f} cannot reach c={float(c):.6f}",
            best=total,
        )

    factors = [(p, 1 + Fraction(1, p)) for p in pool]  # ascending p

    def finish(chosen: list[int], achieved: Fraction, via_search: bool):
        s = sum(math.log(p) / p for p in chosen)
        return ProductSubsetResult(
            chosen=tuple(sorted(chosen)),
            achieved=achieved,
            target=c,
            eps=eps,
            sum_logp_over_p=s,
            via_search=via_search,
        )

    prod = Fraction(1)
    greedy: list[int] = []
    for p, f in factors:
        if prod * f <= c:
            prod *= f
            greedy.append(p)
            if lo_edge < prod:
                return finish(greedy, prod, via_search=False)

    # Exact search, largest factors first, pruned by suffix products.
    suffix = [Fraction(1)] * (len(factors) + 1)
    for i in range(len(factors) - 1, -1, -1):
        suffix[i] = suffix[i + 1] * factors[i][1]

    best = [prod]
    stack = [(0, Fraction(1), ())]
    while stack:
        i, prod, picked = stack.pop()
        if lo_edge < prod <= c:
            return finish(list(picked), prod, via_search=True)
        if i == len(factors) or prod * suffix[i] <= lo_edge:
            if prod > best[0] and prod <= c:
                best[0] = prod
            continue
        stack.append((i + 1, prod, picked))  # skip p_i
        f = factors[i][1]
        if prod * f <= c:
            stack.append((i + 1, prod * f, picked + (factors[i][0],)))
    raise InfeasibleError(
        f"constants: no subset lands in ({float(lo_edge):.9f}, {float(c):.9f}]; "
        f"closest from below is {float(best[0]):.9f}",
        best=best[0],
    )


# ---------------------------------------------------------------------------
# Greedy subsequence tracking a target function.


SubsequenceReport = namedtuple(
    "SubsequenceReport",
    "selected_count selected_sum sup_error final_error start_x max_weight max_drift")


def greedy_subsequence(
    weights,
    theta,
    x_max: int,
) -> SubsequenceReport:
    """Select indices greedily so the running sum tracks theta from below.

    weights[n] >= 0 for 1 <= n <= x_max; include n exactly when the running
    sum plus weights[n] stays <= theta(n).  Tracking starts where theta
    first becomes positive.  The sup deviation is checked against
    max(sup of the weights, sup of the unit-step drift of theta).
    """
    if len(weights) < x_max + 1:
        raise ContractError("constants: weights array shorter than x_max")
    s = 0.0
    sup_err = 0.0
    start_x = None
    max_w = 0.0
    max_drift = 0.0
    prev_theta = None
    count = 0
    for n in range(1, x_max + 1):
        th = theta(n)
        if start_x is None:
            if th <= 0:
                prev_theta = th
                continue
            start_x = n
        if prev_theta is not None:
            max_drift = max(max_drift, th - prev_theta)
        prev_theta = th
        w = float(weights[n])
        if w > 0:
            max_w = max(max_w, w)
            if s + w <= th:
                s += w
                count += 1
        sup_err = max(sup_err, abs(s - th))
    if start_x is None:
        return SubsequenceReport(0, 0.0, 0.0, 0.0, x_max + 1, 0.0, 0.0)
    final_err = abs(s - theta(x_max))
    allowance = max(max_w, max_drift) + 1e-12
    if sup_err > allowance:
        raise InvariantViolation(
            f"constants: greedy subsequence deviated {sup_err:.6f} > {allowance:.6f}"
        )
    return SubsequenceReport(
        selected_count=count,
        selected_sum=s,
        sup_error=sup_err,
        final_error=final_err,
        start_x=start_x,
        max_weight=max_w,
        max_drift=max_drift,
    )
