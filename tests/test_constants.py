import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitgrowth import constants
from orbitgrowth.arith import sieve_primes
from orbitgrowth.constants import (
    a_prime_window,
    greedy_L,
    greedy_product_subset,
    greedy_subsequence,
    k_exact_finite_s,
    k_order_bounds,
    rn_recursion,
    transcendental_series,
)
from orbitgrowth.errors import (
    BudgetError,
    CapacityError,
    ContractError,
    InfeasibleError,
    InvariantViolation,
)
from orbitgrowth.fitting import _linear_fit, fit_model
from orbitgrowth.integers import OrderTable, moebius, ord_p
from orbitgrowth.mersenne import primitive_primes
from orbitgrowth.mertens import EXACT_CEILING, dominant_sum, mertens_exact
from orbitgrowth.reproduce import SQUAREFREE_GRID
from orbitgrowth.sets import (
    CongruenceSource,
    ExplicitFinitePrimes,
    ExplicitList,
    OmegaBounded,
    SquarefreeAugmented,
    interval_L,
)


def k_exact_reference(primes: list[int]) -> Fraction:
    """k_S as one Fraction per term, the reference for the integer walk,
    over a fresh order memo."""
    if not primes:
        return Fraction(1)
    orders = OrderTable()
    m_of = {p: orders.order(p) for p in primes}
    mbars = {1}
    for m in sorted(set(m_of.values())):
        mbars |= {math.lcm(m, c) for c in mbars}
    total = Fraction(0)
    for mbar in sorted(mbars):
        s_m = [p for p in primes if mbar % m_of[p] == 0]
        denom = mbar
        kprime = Fraction(1)
        for p in s_m:
            denom *= p ** (orders.exponent(p) + ord_p(mbar, p))
            kprime *= Fraction(p, p + 1)
        weight = Fraction(1, denom)
        dvals = sorted(
            {m_of[p] // math.gcd(m_of[p], mbar) for p in primes if p not in s_m}
        )
        inner = Fraction(0)
        for bits in range(1 << len(dvals)):
            l = 1
            sign = 1
            for i, d in enumerate(dvals):
                if bits >> i & 1:
                    l = math.lcm(l, d)
                    sign = -sign
            val = 1
            for p in s_m:
                val *= p ** ord_p(l, p)
            inner += sign * Fraction(1, l * val)
        total += weight * kprime * inner
    return total


ODD_PRIMES_BELOW_2000 = sieve_primes(2000).primes[1:].tolist()
ODD_PRIMES_BELOW_1000 = [p for p in ODD_PRIMES_BELOW_2000 if p < 1000]


class TestKExact:
    def test_flagship(self):
        assert k_exact_finite_s([3, 7]).value == Fraction(269, 576)

    def test_empty(self):
        assert k_exact_finite_s([]).value == 1

    def test_second_walk_computes_no_order(self, empty_orders, count_orders):
        # The walk reads each m_p from the process's one memo.
        primes = [3, 5, 7, 11, 13, 17, 31, 127]
        first = k_exact_finite_s(primes).value
        assert sorted(count_orders) == primes
        count_orders.clear()
        assert k_exact_finite_s(primes).value == first
        assert count_orders == []

    def test_single_3(self):
        # T = {} and T = {3}, L = 2, d_3 = 4: 1 + (1/2)(1/4 - 1)
        assert k_exact_finite_s([3]).value == Fraction(5, 8)

    def test_single_7(self):
        assert k_exact_finite_s([7]).value == Fraction(17, 24)

    def test_wieferich_member(self):
        # e_1093 = 2, so the order stratum carries 1093^-2.
        expect = Fraction(363, 364) + Fraction(1, 364 * 1093 * 1094)
        assert k_exact_finite_s([1093]).value == expect

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(ODD_PRIMES_BELOW_2000), max_size=6,
                    unique=True), st.booleans())
    @example([], False)
    @example([3, 7], True)
    @example([3, 5, 17, 257], False)  # orders 2, 4, 8, 16: equal lcms merge
    @example([3, 73], False)  # m_73 = 9: ord_3(L) = 2 when 3 joins
    @example([3, 19], False)  # m_19 = 18, likewise
    @example([1093, 3511], False)  # both Wieferich primes: e_p = 2
    @example([3, 5, 7, 11, 13, 17, 31, 127], False)  # the exact_cache primes
    def test_matches_fraction_reference(self, primes, wieferich):
        # 1093 is the Wieferich prime below 2000: e_1093 = 2.
        s = sorted(set(primes) | ({1093} if wieferich else set()))
        assert k_exact_finite_s(s).value == k_exact_reference(s)

    def test_in_unit_interval(self):
        rng = random.Random(0)
        pool = [3, 5, 7, 11, 13, 17, 23, 31, 73, 89, 127]
        for _ in range(25):
            s = rng.sample(pool, rng.randint(1, 4))
            k = k_exact_finite_s(s).value
            assert 0 < k < 1

    def test_rejects_2(self):
        with pytest.raises(ContractError):
            k_exact_finite_s([2, 3])

    def test_twenty_orders(self):
        # The odd primes to 73 have 20 distinct orders and 516 lcms.  Subsets
        # of equal lcm merge over the lcm of their denominators; a walk
        # merging by product spends over 4 s here.
        primes = ODD_PRIMES_BELOW_2000[:20]
        assert primes[-1] == 73
        start = time.perf_counter()
        k = k_exact_finite_s(primes).value
        assert time.perf_counter() - start < 1.0
        assert k == Fraction(
            199930154550532743807504998858174294308219,
            712763263132544902563532033769361899520000)
        # The cap counts the walk's lcms, not the orders: 79 (a 21st
        # order) and the odd primes to 150 (13 648 lcms) are taken.  Each
        # prime added lowers f(n) = prod |2^n - 1|_p, so k falls.
        k_79 = k_exact_finite_s(primes + [79]).value
        to_150 = [p for p in ODD_PRIMES_BELOW_2000 if p <= 150]
        assert 0 < k_exact_finite_s(to_150).value < k_79 < k

    def test_walk_capacity(self):
        # The odd primes to 200 would reach 441 008 lcms in about 30 s; the
        # walk stops once it holds more than K_EXACT_STRATA, here in 0.2 s.
        to_200 = [p for p in ODD_PRIMES_BELOW_2000 if p <= 200]
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"{constants.K_EXACT_STRATA} lcm"):
            k_exact_finite_s(to_200)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("s", [
        [3], [5], [7], [3, 5], [3, 7], [1093], [31, 127], [3, 73],
        [5, 17, 257], [7, 73, 127], [3, 5, 7, 11, 13, 17, 31, 127],
    ], ids=str)
    def test_matches_series_slope(self, s):
        # k_S is the slope of M_S(N) against log N, which the exact series
        # reaches through F(n) and Moebius inversion, not through the
        # subset expansion.  Fitted over N in [40, 120], it lands within
        # 0.01 of k_S; the offsets seen are -0.0035 to -0.0062.
        series = mertens_exact(120, ExplicitFinitePrimes(s))
        ns = np.arange(40, 121)
        vs = np.array([float(series.value_at(int(n))) for n in ns])
        slope, _, _ = _linear_fit(np.log(ns.astype(float)), vs)
        assert abs(slope - float(k_exact_finite_s(s).value)) < 0.01

    @pytest.mark.parametrize("s", [
        [3, 7],
        sorted(random.Random(2).sample(ODD_PRIMES_BELOW_1000, 4)),
        sorted(random.Random(3).sample(ODD_PRIMES_BELOW_1000, 4)),
    ], ids=str)
    def test_series_flat_to_the_ceiling(self, s):
        # M_S(N) - k_S log N settles.  From N = 2000 to the exact ceiling it
        # spread by 1.8e-4 on {3, 7} and by 1.4e-4 to 7.2e-4 on the sets of
        # seeds 0 to 3; a k_S off by 1 % spreads it by 0.008 to 0.017.
        series = mertens_exact(EXACT_CEILING, ExplicitFinitePrimes(s))
        k = float(k_exact_finite_s(s).value)
        offsets = [float(series.value_at(n)) - k * math.log(n)
                   for n in (2000, 3162, 5000, EXACT_CEILING)]
        assert max(offsets) - min(offsets) < 2e-3

    def test_slope_confirmation_single_3(self):
        # |2^n - 1|_{3} = 3^-(1 + v3(n)) for even n; slope fit to 1e5.
        n_max = 10**5
        w = np.zeros(n_max + 1)
        w[1:] = 1.0 / np.arange(1, n_max + 1)
        level = 2
        while level <= n_max:
            w[level::level] /= 3.0
            level *= 3
        cum = np.cumsum(w)
        grid = [10**3, 3163, 10**4, 31623, 10**5]
        a = np.array([[1.0, math.log(g)] for g in grid])
        b = np.array([cum[g] for g in grid])
        coef, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert abs(coef[1] - 0.625) < 0.01


class TestOrderBounds:
    def test_single_3(self):
        upper, mult = k_order_bounds([3])
        assert upper == Fraction(5, 7)
        assert mult[3] == Fraction(2, 3)

    def test_empty(self):
        upper, mult = k_order_bounds([])
        assert upper == 1 and mult == {}

    def test_upper_bound_holds(self, cache):
        for ells in ([3], [5], [3, 5], [3, 7]):
            union = []
            for l in ells:
                union.extend(p for p, _ in primitive_primes(l, cache))
            k = k_exact_finite_s(union).value
            upper, _ = k_order_bounds(ells)
            assert k <= upper

    def test_lower_multiplier_holds(self, cache):
        # (1 - 1/l) k_L <= k_{L + {l}}
        def class_set(ells):
            out = []
            for l in ells:
                out.extend(p for p, _ in primitive_primes(l, cache))
            return out

        for base, ell in (([], 3), ([3], 5), ([3], 7), ([5], 3)):
            k_before = k_exact_finite_s(class_set(base)).value
            k_after = k_exact_finite_s(class_set(base + [ell])).value
            assert (1 - Fraction(1, ell)) * k_before <= k_after


class TestGreedy:
    def test_window_09(self, cache):
        trace = greedy_L(Fraction(9, 10), Fraction(1, 20), cache)
        assert trace.terminal
        assert Fraction(9, 10) <= trace.k_final < Fraction(19, 20)
        assert trace.chosen == (11,)

    def test_window_075(self, cache):
        trace = greedy_L(Fraction(3, 4), Fraction(1, 10), cache)
        assert trace.terminal
        assert Fraction(3, 4) <= trace.k_final < Fraction(17, 20)

    def test_trivial_window(self, cache):
        # 1 < k + eps already: the empty selection terminates immediately.
        trace = greedy_L(Fraction(99, 100), Fraction(1, 10), cache)
        assert trace.terminal and trace.chosen == ()
        assert trace.k_final == 1

    def test_per_step_lower_bound(self, cache):
        trace = greedy_L(Fraction(9, 10), Fraction(1, 20), cache)
        k_before = Fraction(1)
        for step in trace.decisions:
            assert (1 - Fraction(1, step.ell)) * k_before <= step.k_candidate
            if step.accepted:
                k_before = step.k_after

    def test_uncertifiable_target_fails_loudly(self, cache):
        with pytest.raises(BudgetError):
            greedy_L(Fraction(999, 1000), Fraction(1, 10**6), cache)


class TestTranscendental:
    def test_convergents(self, cache):
        ts = transcendental_series(3, 3, cache)
        assert ts.convergents == (
            Fraction(2, 3),
            Fraction(25, 36),
            Fraction(25, 36) + Fraction(1, 7992),
        )

    def test_strictly_increasing(self, cache):
        ts = transcendental_series(3, 4, cache)
        for a, b in zip(ts.convergents, ts.convergents[1:]):
            assert a < b

    def test_tail_dominates_next_term(self, cache):
        four = transcendental_series(3, 4, cache)
        three = transcendental_series(3, 3, cache)
        assert four.term_values[3] < three.tail_bound

    def test_tail_bound_value(self, cache):
        ts = transcendental_series(3, 4, cache)
        assert ts.tail_bound == Fraction(1, 1 << 80)

    def test_five_terms_feasible(self, cache):
        ts = transcendental_series(3, 5, cache)  # e = 4 needs 2^81 - 1
        assert ts.convergents[3] < ts.convergents[4]

    def test_cache_miss_beyond_seed(self, cache):
        from orbitgrowth.errors import CacheMissError

        with pytest.raises(CacheMissError):
            transcendental_series(3, 6, cache)  # e = 5 needs 2^243 - 1

    def test_rejects_even_ell(self, cache):
        with pytest.raises(ContractError):
            transcendental_series(2, 3, cache)


ALL_PRIMES = CongruenceSource(2, [0, 1])


def landau_count(x: int, r: int, source=ALL_PRIMES) -> int:
    """|{n <= x : Omega(n) = r, every prime factor in source}|, counted from
    omega_bounded sets with m = 1: their non-members in [1, x] are exactly
    the n with Omega(n) <= r and every prime factor in source."""
    def kept(k: int) -> int:
        if k == 0:
            return 1
        return x - int(np.count_nonzero(OmegaBounded(k, source, 1).indicator(1, x + 1)))

    return kept(r) - kept(r - 1)


class TestLandau:
    # Landau's count of integers with r prime factors from a prescribed set
    # is what the omega_bounded order set is built on.
    def test_semiprimes_to_100(self):
        brute = sum(
            1
            for n in range(2, 101)
            if omega_brute(n) == 2
        )
        assert landau_count(100, 2) == brute == 34

    def test_r1_is_prime_count(self, table_1e6):
        assert landau_count(10**6, 1) == len(table_1e6.primes) == 78498

    def test_exact_vs_asymptotic_band(self):
        # (x / log x) (log log x)^(r-1) / (r-1)! for r = 2 over all primes.
        x = 10**6
        asym = x / math.log(x) * math.log(math.log(x))
        assert 0.8 <= landau_count(x, 2) / asym <= 1.2

    def test_congruence_source(self):
        src = CongruenceSource(4, [1])
        got = landau_count(200, 2, source=src)
        brute = 0
        for n in range(2, 201):
            fac = factor_brute(n)
            if sum(fac.values()) == 2 and all(p % 4 == 1 for p in fac):
                brute += 1
        assert got == brute


def omega_brute(n: int) -> int:
    total = 0
    d = 2
    while d * d <= n:
        while n % d == 0:
            total += 1
            n //= d
        d += 1
    return total + (1 if n > 1 else 0)


def factor_brute(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestIntervals:
    def test_half_delta_sums(self):
        records = interval_L(0.5, 15, 24)
        for rec in records:
            assert abs(rec.sum_logp_over_p - 0.5 * math.log(2)) < 0.06

    def test_dyadic_tiling(self):
        # sanity mode: fluctuation shrinks with m, ~0.05 already at m = 6
        records = interval_L(1.0, 6, 14)
        for rec in records:
            assert abs(rec.sum_logp_over_p - math.log(2)) < 0.06
        # delta = 1 tiles: consecutive intervals meet exactly
        for a, b in zip(records, records[1:]):
            assert a.hi == b.lo

    def test_empty_interval_accepted(self):
        records = interval_L(0.04, 5, 5)
        assert records[0].prime_count == 0
        assert records[0].sum_logp_over_p == 0.0


class TestRecursion:
    def test_idealized_closed_form(self):
        trace = rn_recursion(Fraction(1, 2), 50, 40, mode="idealized")
        for step in trace.steps:
            assert step.partial_sum == trace.a_prime * (
                1 - Fraction(1, 1 << step.n)
            )
        assert trace.all_ok

    @pytest.mark.parametrize("pattern", ["plus", "minus", "alternating", "random"])
    def test_perturbed_invariants(self, pattern):
        trace = rn_recursion(
            Fraction(1, 2), 50, 40, mode="perturbed", sign_pattern=pattern
        )
        assert trace.ratio_ok and trace.sandwich_ok
        assert trace.interval_ok and trace.f_bound_ok

    def test_seeded_reproducibility(self):
        a = rn_recursion(Fraction(1, 2), 50, 20, mode="perturbed",
                         sign_pattern="random", seed=7)
        b = rn_recursion(Fraction(1, 2), 50, 20, mode="perturbed",
                         sign_pattern="random", seed=7)
        assert [s.b_n for s in a.steps] == [s.b_n for s in b.steps]

    def test_f1_bound(self):
        assert 100 ** -(2 ** 0.25) < 2**-3

    def test_window_rejection(self):
        lo, hi = a_prime_window(Fraction(1, 2), 50)
        with pytest.raises(ContractError):
            rn_recursion(Fraction(1, 2), 50, 10, a_prime=hi * 2)
        with pytest.raises(ContractError):
            rn_recursion(Fraction(1, 2), 50, 10, a_prime=lo / 2)

    def test_c_route(self):
        trace = rn_recursion(Fraction(1, 2), 50, 30, mode="perturbed",
                             c=Fraction(4, 3), x=3)
        assert trace.all_ok
        assert trace.y != 50  # Y is derived from c, not taken from the argument

    def test_x_without_c_is_contract_error(self):
        # x is the start X of the c route's blocks; alone it would change
        # nothing.
        with pytest.raises(ContractError, match=r"x \(--x\).*c \(--c\)"):
            rn_recursion(Fraction(1, 2), 50, 4, x=7)

    def test_c_with_a_prime_is_contract_error(self):
        # The c route derives a' itself, so a given a' would be dropped.
        with pytest.raises(ContractError, match=r"--a-prime.*--c"):
            rn_recursion(Fraction(1, 2), 50, 4, a_prime=Fraction(1, 100),
                         c=Fraction(4, 3))

    @pytest.mark.parametrize("mode", ["idealized", "perturbed"])
    def test_unknown_sign_pattern_raises(self, mode):
        with pytest.raises(ContractError, match="unknown sign pattern"):
            rn_recursion(Fraction(1, 2), 50, 4, mode=mode, sign_pattern="bogus")

    @pytest.mark.parametrize("pattern", ["plus", "minus", "alternating", "random"])
    def test_widened_error_breaks_all_but_the_sandwich(self, pattern, monkeypatch):
        # An error amplitude of 8 a' (g = 8) drives b_1 far from a'/2: the
        # interval sum overshoots at n = 1, r_2 leaves (1, 1 + delta/R_2) and
        # f(1) = 8 passes 1/4.  The sandwich still holds: D_n = partial_n -
        # a'(1 - 2^-n) obeys D_n = D_(n-1)/2 + eta_n with |eta_n| < a' g_lo(n),
        # so |D_n| < a' f_lo(n) whatever g is; only an eta past its own bound
        # could break it.
        monkeypatch.setattr(constants, "_g_bounds", lambda n: (Fraction(8), Fraction(8)))
        trace = rn_recursion(Fraction(1, 2), 50, 8, mode="perturbed",
                             sign_pattern=pattern, seed=3)
        assert (trace.ratio_ok, trace.interval_ok, trace.f_bound_ok) == (False,) * 3
        assert trace.sandwich_ok and not trace.all_ok

    def test_idealized_broken_invariant_raises(self, monkeypatch):
        monkeypatch.setattr(constants, "_g_bounds", lambda n: (Fraction(8), Fraction(8)))
        with pytest.raises(InvariantViolation, match="broke an invariant"):
            rn_recursion(Fraction(1, 2), 50, 8, mode="idealized")

    def test_big_r_is_floor_of_sqrt(self):
        trace = rn_recursion(Fraction(1, 2), 50, 12, mode="idealized")
        for step in trace.steps:
            assert step.big_r == math.isqrt(50 * 50 << step.n)

    def test_section9_evaluates_each_bound_once(self, monkeypatch):
        # check_section9 runs four recursions on the same (1/2, 50, 40):
        # two mpmath powers for each of the 30 n not divisible by 4, and a
        # log1p for delta/Y and for each delta/R_n.
        import mpmath

        from orbitgrowth.reproduce import check_section9

        calls = Counter()
        for name in ("power", "log1p"):
            def counted(*args, _name=name, _real=getattr(mpmath, name)):
                calls[_name, args] += 1
                return _real(*args)
            monkeypatch.setattr(mpmath, name, counted)
        constants._g_bounds.cache_clear()
        constants._log1p_fraction_lower.cache_clear()
        passed, _ = check_section9()
        assert passed
        assert set(calls.values()) == {1}
        assert Counter(name for name, _ in calls) == {"power": 60, "log1p": 41}

    @pytest.mark.parametrize("mode", ["idealized", "perturbed"])
    def test_repeat_run_equals_the_first(self, mode):
        constants._g_bounds.cache_clear()
        constants._log1p_fraction_lower.cache_clear()
        first = rn_recursion(Fraction(1, 2), 50, 40, mode=mode,
                             sign_pattern="alternating")
        assert rn_recursion(Fraction(1, 2), 50, 40, mode=mode,
                            sign_pattern="alternating") == first


class TestProductSubset:
    def test_window_on_small_pool(self):
        pool = [p for p in range(3, 98) if all(p % q for q in range(2, p))]
        res = greedy_product_subset(pool, Fraction(3, 2), Fraction(1, 1000))
        assert Fraction(3, 2) * Fraction(999, 1000) < res.achieved <= Fraction(3, 2)

    def test_exact_single_factor(self):
        res = greedy_product_subset([3, 5, 7], Fraction(4, 3), Fraction(1, 1000))
        assert res.chosen == (3,)
        assert res.achieved == Fraction(4, 3)
        assert not res.via_search

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            greedy_product_subset([3, 5], 10, Fraction(1, 1000))


class TestSubsequence:
    def test_prime_harmonic_tracks_half_loglog(self, table_1e6):
        x_max = 10**6
        w = np.zeros(x_max + 1)
        primes = table_1e6.primes
        w[primes] = 1.0 / primes
        report = greedy_subsequence(
            w, lambda x: 0.5 * math.log(math.log(x)) if x >= 2 else -1.0, x_max
        )
        assert report.final_error < 0.1

    def test_zero_target_selects_nothing(self):
        w = np.ones(101)
        report = greedy_subsequence(w, lambda x: 0.0, 100)
        assert report.selected_count == 0

    def test_full_budget_harmonic(self):
        x_max = 10**4
        w = np.zeros(x_max + 1)
        w[1:] = 1.0 / np.arange(1, x_max + 1)
        report = greedy_subsequence(w, math.log, x_max)
        # everything except n = 1 fits under log n: tracking starts at 2
        # and picks all x_max - 1 weights from there on
        assert report.start_x == 2
        assert report.selected_count == x_max - 1
        assert report.selected_sum == pytest.approx(float(w[2:].sum()))
        assert report.final_error < 1.0


# The squarefree n are the n >= 1 outside this set, so their harmonic sum
# is its dominant sum.
NON_SQUAREFREE = SquarefreeAugmented(ExplicitList([]))


class TestSquarefree:
    def test_count_to_100(self):
        # The 61 squarefree n <= 100.
        non_squarefree = NON_SQUAREFREE.indicator(0, 101)
        assert int(np.count_nonzero(~non_squarefree[1:])) == 61

    def test_unit_sum(self):
        assert dominant_sum(1, NON_SQUAREFREE).value_at(1) == 1

    def test_slope_at_1e6(self):
        grid = [g for g in SQUAREFREE_GRID if g < 10**6] + [10**6]
        series = dominant_sum(10**6, NON_SQUAREFREE, grid=grid)
        # 11 points over 2.99 decades, short of the strict grid contract.
        slope = fit_model(series.float_samples(), "k_log", strict=False).k
        assert abs(slope - 6 / math.pi**2) < 0.01
        # The exact least-squares slope of the float samples, rounded once.
        assert slope == 0.6079169113492685
        # Pinned bit for bit from the accumulator that listed whole grid
        # segments; the last segment, (2^19, 10^6], holds 289201 terms and
        # so spans several conversion chunks.
        assert series.value_at(10**6) == Fraction(748129049326425230915469102589, 1 << 96)

    def test_samples_match_moebius_oracle(self):
        # The n outside the set are exactly those with mu(n) != 0: each
        # sample is the sum of floor(2^96 / n) over them, over 2^96.
        n_max = 3000
        grid = [64 << k for k in range(6)] + [n_max]
        series = dominant_sum(n_max, NON_SQUAREFREE, grid=grid)
        total, expected = 0, []
        for n in range(1, n_max + 1):
            if moebius(n):
                total += (1 << 96) // n
            if n in grid:
                expected.append((n, Fraction(total, 1 << 96)))
        assert series.samples == expected

    def test_short_series_are_refused_not_fitted(self):
        # A series too short for a slope is refused by fit_model: 7 points
        # over 1.67 decades fail the strict grid contract, and 2 points or
        # 1 fail even without it.
        grid = [64 << k for k in range(6)] + [3000]
        samples = dominant_sum(3000, NON_SQUAREFREE, grid=grid).float_samples()
        with pytest.raises(ContractError, match="7 over 1.67"):
            fit_model(samples, "k_log")
        assert fit_model(samples, "k_log", strict=False).n_samples == 7
        for n_max, grid in ((100, [64, 100]), (1, [1])):
            series = dominant_sum(n_max, NON_SQUAREFREE, grid=grid)
            assert [n for n, _ in series.samples] == grid
            with pytest.raises(ContractError, match="at least 4 samples"):
                fit_model(series.float_samples(), "k_log", strict=False)
