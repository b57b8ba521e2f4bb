import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitgrowth import sets
from orbitgrowth.arith import SIEVE_CAPACITY
from orbitgrowth.errors import CapacityError, ContractError
from orbitgrowth.integers import OrderTable, divisors, is_probable_prime
from orbitgrowth.mertens import (
    _CHUNK,
    _SCALE,
    _WINDOW,
    _fixed_point_terms,
    _harmonic_fixed_point,
    decompose_lcm_closed,
    default_grid,
    dominant_sum,
    f_series_direct,
    mbar_of,
    mertens_exact,
    orbit_count,
    periodic_points,
    remainder_bounds,
    s_mbar,
)
from orbitgrowth.sets import (
    ComplementMultiplesOf,
    CompositeNumbers,
    EllPowers,
    ExplicitFinitePrimes,
    ExplicitList,
    InducedPrimes,
    MultiplesOf,
    PrimeNumbers,
)
from test_sets import ALL_KINDS


ODD_PRIMES_BELOW_200 = [p for p in range(3, 200) if is_probable_prime(p)]


def necklace_orbit_count(n: int) -> int:
    """Brute-force count of orbits of length exactly n of the full system:
    cycles of the doubling map on Z/(2^n - 1)."""
    modulus = (1 << n) - 1
    seen = set()
    orbits = 0
    for x in range(modulus):
        if x in seen:
            continue
        cycle = []
        y = x
        while y not in seen:
            seen.add(y)
            cycle.append(y)
            y = 2 * y % modulus
        if len(cycle) == n:
            orbits += 1
    return orbits


class TestPeriodicPoints:
    def test_full_system(self, orders, cache):
        assert periodic_points(4, []) == 15

    def test_invert_3(self, orders, cache):
        assert periodic_points(4, [3], orders) == 5

    def test_invert_3_7(self, orders, cache):
        assert periodic_points(6, [3, 7], orders) == 1

    def test_divides_mersenne(self, orders, cache):
        for n in range(1, 41):
            for s in ([], [3], [3, 7]):
                assert ((1 << n) - 1) % periodic_points(n, s, orders) == 0

    def test_adding_2_changes_nothing(self, orders, cache):
        # |2^n - 1|_2 = 1: the 2-part of an odd number is trivial.
        for n in range(1, 41):
            assert ord_2_of_mersenne(n) == 0
        a = mertens_exact(40, ExplicitFinitePrimes([3, 7]), orders, cache)
        b = mertens_exact(40, ExplicitFinitePrimes([2, 3, 7]), orders, cache)
        assert a.samples == b.samples


def ord_2_of_mersenne(n: int) -> int:
    value = (1 << n) - 1
    e = 0
    while value % 2 == 0:
        value //= 2
        e += 1
    return e


class TestOrbitCounts:
    def test_necklace_oracle(self, orders, cache):
        for n in range(1, 13):
            assert orbit_count(n, [], orders) == necklace_orbit_count(n)

    def test_unit(self, orders):
        assert orbit_count(1, [], orders) == 1

    def test_destroyed_two_cycle(self, orders):
        # F(1) = F(2) = 1 once 3 is inverted
        assert orbit_count(2, [3], orders) == 0

    def test_moebius_round_trip(self, orders, cache):
        sets = [
            [],
            [3],
            [3, 7],
            InducedPrimes(MultiplesOf(ells=[3])),
        ]
        for s in sets:
            for n in range(1, 41):
                total = sum(
                    d * orbit_count(d, s, orders, cache) for d in divisors(n)
                )
                assert total == periodic_points(n, s, orders, cache)

    @settings(max_examples=60, deadline=None)
    @given(s=st.lists(st.sampled_from(ODD_PRIMES_BELOW_200), max_size=6,
                      unique=True),
           n=st.integers(1, 120))
    def test_moebius_round_trip_on_random_finite_sets(self, s, n):
        orders = OrderTable()
        total = sum(d * orbit_count(d, s, orders) for d in divisors(n))
        assert total == periodic_points(n, s, orders)


class TestMertensExact:
    # mertens_exact computes each F(n) once and inverts over that list;
    # orbit_count is the scalar path, one F(d) per divisor d of each n.
    @pytest.mark.parametrize("s", [
        [],
        [3, 7],
        [3, 5, 7, 11, 13, 17, 31, 127],
        InducedPrimes(MultiplesOf(ells=[3])),
        InducedPrimes(ComplementMultiplesOf(3)),
    ], ids=["empty", "3,7", "eight_primes", "multiples_of_3",
            "complement_multiples_of_3"])
    def test_matches_scalar_orbit_counts(self, s, cache):
        orders = OrderTable()
        series = mertens_exact(120, s, orders, cache)
        acc = Fraction(0)
        for n in range(1, 121):
            acc += Fraction(orbit_count(n, s, orders, cache), 1 << n)
            assert series.value_at(n) == acc, n

    def test_empty_system_small(self, orders, cache):
        series = mertens_exact(4, [], orders, cache)
        assert series.value_at(4) == Fraction(19, 16)

    def test_first_sample_is_half_orbit(self, orders, cache):
        for s in ([], [3], [3, 7]):
            series = mertens_exact(1, s, orders, cache)
            assert series.value_at(1) == Fraction(orbit_count(1, s, orders), 2)

    def test_regression_sentinel_37(self, orders, cache):
        # Frozen from this engine: the step from N=100 to N=120 tracks
        # k_{3,7} log(120/100) (the growth is logarithmic, so the gap is
        # ~0.085, far from zero).
        series = mertens_exact(120, [3, 7], orders, cache)
        diff = float(series.value_at(120) - series.value_at(100))
        assert abs(diff - 0.0852789292451261) < 1e-12
        assert abs(diff - float(Fraction(269, 576)) * math.log(1.2)) < 0.01

    def test_ceiling(self, orders, cache):
        with pytest.raises(ContractError):
            mertens_exact(121, [], orders, cache)

    def test_sandwich_inner_outer(self, orders, cache):
        # 233 is one of the three primes of order 29: S^o induced by no
        # order lies inside S, S-bar induced by the order 29 around it.
        s = ExplicitFinitePrimes([233])
        inner = InducedPrimes(ExplicitList([]))
        outer = InducedPrimes(ExplicitList([29]))
        m_mid = mertens_exact(40, s, orders, cache)
        m_inner = mertens_exact(40, inner, orders, cache)  # S^o, fewer removals
        m_outer = mertens_exact(40, outer, orders, cache)  # S-bar, more removals
        for n in range(1, 41):
            assert (
                m_outer.value_at(n) <= m_mid.value_at(n) <= m_inner.value_at(n)
            )


class TestDominant:
    def test_exclude_multiples_of_3(self):
        series = dominant_sum(10, MultiplesOf(ells=[3]), grid=[10])
        expect = sum(Fraction(1, n) for n in (1, 2, 4, 5, 7, 8, 10))
        assert abs(series.value_at(10) - expect) < Fraction(1, 1 << 80)

    def test_empty_order_set_is_harmonic(self):
        series = dominant_sum(10, ExplicitList([]), grid=[10])
        h10 = sum(Fraction(1, n) for n in range(1, 11))
        assert abs(series.value_at(10) - h10) < Fraction(1, 1 << 80)

    def test_prime_harmonic_constant(self):
        series = dominant_sum(10**6, CompositeNumbers(), grid=[10**6])
        value = float(series.value_at(10**6))
        # Mertens: sum 1/p = loglog N + 0.2614972... (prime-harmonic oracle)
        assert abs(value - (math.log(math.log(10**6)) + 0.2614972128)) < 1e-3

    def test_contract_error_directs_to_decomposition(self):
        with pytest.raises(ContractError, match="decompose"):
            dominant_sum(100, EllPowers(3))


def scalar_fixed_point(keep, grid):
    """The accumulator as one Python-int floor division per term: the
    reference the uint64-digit version must match exactly."""
    acc = 0
    pos = 0
    out = []
    for g in grid:
        hi = int(np.searchsorted(keep, g, side="right"))
        for n in keep[pos:hi].tolist():
            acc += _SCALE // n
        pos = hi
        out.append(acc)
    return out


def assert_terms_match_scalar(terms):
    """The digit kernel against the scalar reference, on explicit terms."""
    terms = np.asarray(terms, dtype=np.uint64)
    assert _fixed_point_terms(terms) == sum(_SCALE // n for n in terms.tolist())


def window_walk(mask, asked=None):
    """keep(lo, hi) over a whole mask: a fresh copy of mask[lo:hi], after
    checking that the window is nonempty, at most _WINDOW long and inside
    the mask; each (lo, hi) is appended to `asked` when given."""
    def keep(lo, hi):
        assert 1 <= lo < hi <= mask.size and hi - lo <= _WINDOW, (lo, hi)
        if asked is not None:
            asked.append((lo, hi))
        return mask[lo:hi].copy()

    return keep


def assert_matches_scalar(keep, grid):
    """The window walker on the mask of keep against the scalar reference
    on keep itself; the mask runs to the last grid point or term.  The
    windows asked for tile [1, grid[-1]] in order, one closing at each grid
    point."""
    keep = np.asarray(keep, dtype=np.int64)
    mask = np.zeros(max(grid[-1], keep.max(initial=0)) + 1, dtype=bool)
    mask[keep] = True
    asked = []
    assert (_harmonic_fixed_point(window_walk(mask, asked), grid)
            == scalar_fixed_point(keep, grid))
    ends = [hi for _, hi in asked]
    assert [lo for lo, _ in asked] == [1] + ends[:-1] and ends[-1] == grid[-1] + 1
    assert set(g + 1 for g in grid) <= set(ends)


class TestFixedPointAccumulator:
    def test_empty(self):
        assert _fixed_point_terms(np.array([], dtype=np.uint64)) == 0
        assert_matches_scalar([], [1, 10])
        assert _harmonic_fixed_point(window_walk(np.zeros(6, dtype=bool)), [5]) == [0]

    def test_unit_term(self):
        assert _fixed_point_terms(np.array([1], dtype=np.uint64)) == _SCALE
        assert _harmonic_fixed_point(window_walk(np.array([False, True])), [1]) == [_SCALE]
        assert_matches_scalar([1, 2, 3, 7], [1, 2, 7])

    @pytest.mark.parametrize("length", [_CHUNK - 1, _CHUNK, _CHUNK + 1,
                                        _WINDOW - 1, _WINDOW, _WINDOW + 1])
    def test_chunk_edges(self, length):
        # A mask of length + 1 entries is a walk of length integers; its
        # last chunk, and its second window if any, may be one integer.
        keep = np.arange(1, length + 1)
        assert_matches_scalar(keep, [length])
        assert_matches_scalar(keep, sorted({1, _CHUNK - 1, _CHUNK, length}))
        assert_matches_scalar(3 * keep, [3 * length])

    @pytest.mark.parametrize("edge", [_CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 1,
                                      _WINDOW, _WINDOW + 1, 2 * _WINDOW, 2 * _WINDOW + 1])
    def test_grid_points_on_window_edges(self, edge):
        keep = np.arange(1, 3 * _WINDOW, 5)
        grid = [edge - 1, edge, edge + 1, 3 * _WINDOW]
        assert_matches_scalar(keep, grid)

    def test_empty_windows(self):
        # Whole windows with no term between terms, and after the last.
        keep = [1, 3, _WINDOW + 2, 4 * _WINDOW + 7]
        assert_matches_scalar(keep, [2 * _WINDOW, 4 * _WINDOW + 7, 6 * _WINDOW])

    def test_grid_before_between_and_after_terms(self):
        keep = [5, 9, 10, 400, 401]
        assert_matches_scalar(keep, [1, 4, 5, 7, 9, 10, 100, 401, 10**6])

    def test_terms_near_sieve_capacity(self):
        assert_terms_match_scalar(np.arange(SIEVE_CAPACITY - 3000, SIEVE_CAPACITY + 1, 7))

    def test_largest_term(self):
        assert_terms_match_scalar([2, 2**31 - 5, 2**31 - 1])
        assert_terms_match_scalar([1] + [2**31 - 1] * 1000)

    def test_powers_of_two(self):
        # 2^63 % n is 0 here, so the second division adds nothing.
        for e in range(31):
            assert_terms_match_scalar([1 << e])
        assert_terms_match_scalar([1 << e for e in range(31)] + [2**31 - 1])

    def test_unit_terms_wrap_the_first_division_sum(self):
        # Each floor(2^63 / 1) is 2^63, so the uint64 sum of the first
        # divisions wraps to 0; it is recovered from the shifted sum.
        terms = np.ones(1000, dtype=np.uint64)
        assert _fixed_point_terms(terms) == 1000 * _SCALE
        assert_terms_match_scalar([1] * 999 + [3])

    def test_term_past_2_pow_32_is_capacity_error(self):
        with pytest.raises(CapacityError):
            _fixed_point_terms(np.array([3, 2**32], dtype=np.uint64))

    def test_term_2_pow_31_is_capacity_error(self):
        with pytest.raises(CapacityError, match="n < 2\\^31"):
            _fixed_point_terms(np.array([3, 2**31], dtype=np.uint64))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 2**31 - 1), max_size=300))
    def test_matches_scalar_on_draws(self, terms):
        assert_terms_match_scalar(terms)

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.integers(1, 3 * _WINDOW), max_size=300),
           st.sets(st.integers(1, 3 * _WINDOW), min_size=1, max_size=8))
    def test_walker_matches_scalar_on_draws(self, terms, grid):
        assert_matches_scalar(sorted(terms), sorted(grid))


class TestSeriesDomain:
    # default_grid(n_max) is [n_max] for n_max < 1, a grid no series can
    # have, so such an n_max is a usage error before any work is done.
    @pytest.mark.parametrize("n_max", [0, -1, -10])
    def test_dominant_sum(self, n_max):
        for grid in (None, default_grid(n_max)):
            with pytest.raises(ContractError, match="n_max must be >= 1"):
                dominant_sum(n_max, MultiplesOf(ells=[3]), grid=grid)

    @pytest.mark.parametrize("n_max", [0, -1, -10])
    def test_decompose_lcm_closed(self, n_max, orders, cache):
        for oset in (EllPowers(3), ComplementMultiplesOf(3), ExplicitList([2, 3])):
            with pytest.raises(ContractError, match="n_max must be >= 1"):
                decompose_lcm_closed(n_max, oset, orders, cache)

    @pytest.mark.parametrize("n_max", [0, -1, -10])
    def test_f_series_direct(self, n_max, orders, cache):
        for s in ([3, 7], InducedPrimes(EllPowers(3))):
            with pytest.raises(ContractError, match="n_max must be >= 1"):
                f_series_direct(n_max, s, orders, cache)

    @pytest.mark.parametrize("low", [0, -5])
    def test_grid_point_below_1(self, low, monkeypatch):
        oset = MultiplesOf(ells=[3])

        def no_sieve(lo, hi):
            raise AssertionError("indicator built before the grid was checked")

        monkeypatch.setattr(oset, "indicator", no_sieve)
        with pytest.raises(ContractError, match="grid points must be >= 1"):
            dominant_sum(100, oset, grid=[low, 50])

    def test_smallest_n_max(self, orders, cache):
        assert dominant_sum(1, MultiplesOf(ells=[3])).samples == [(1, Fraction(1))]
        series, _ = decompose_lcm_closed(1, EllPowers(3), orders, cache)
        assert series.samples == f_series_direct(1, InducedPrimes(EllPowers(3)),
                                                 orders, cache).samples


class TestDecomposition:
    def test_ell_powers_matches_direct(self, orders, cache):
        oset = EllPowers(3)
        series, strata = decompose_lcm_closed(120, oset, orders, cache)
        direct = f_series_direct(120, InducedPrimes(oset), orders, cache)
        assert series.samples == direct.samples
        assert strata == [1, 3, 9, 27, 81]

    def test_complement_strata_are_ell_power_fibres(self, orders, cache):
        oset = ComplementMultiplesOf(3)
        series, _ = decompose_lcm_closed(100, oset, orders, cache)
        direct = f_series_direct(100, InducedPrimes(oset), orders, cache)
        assert series.samples == direct.samples
        # each stratum fibre {n : mbar_n = m} is {m * 3^e}
        for n in range(1, 101):
            m = mbar_of(n, oset)
            q = n // m
            assert n % m == 0
            while q % 3 == 0:
                q //= 3
            assert q == 1

    @pytest.mark.parametrize("oset", [MultiplesOf(ells=[2, 3]), MultiplesOf(ells=[6]),
                                      CompositeNumbers()],
                             ids=["2_and_3", "6_alone", "composite"])
    def test_stratum_6_exactly_when_2_and_3_are_members(self, oset, orders, cache):
        # n = 6 realizes the orders 2 and 3 but no prime has order 6, so 6
        # is a stratum of its own only when 2 and 3 are both members.
        series, strata = decompose_lcm_closed(60, oset, orders, cache)
        direct = f_series_direct(60, InducedPrimes(oset), orders, cache)
        assert series.samples == direct.samples
        assert (6 in strata) == (oset.contains(2) and oset.contains(3))

    def test_explicit_list_closure_and_slope(self, orders, cache):
        oset = ExplicitList([2, 3])
        series, strata = decompose_lcm_closed(1000, oset, orders, cache)
        assert strata == [1, 2, 3, 6]
        direct = f_series_direct(1000, ExplicitFinitePrimes([3, 7]), orders, cache)
        assert series.samples == direct.samples
        assert [n for n, _ in series.samples] == default_grid(1000)
        import numpy as np

        pts = series.float_samples()[2:]
        a = np.array([[1.0, math.log(n)] for n, _ in pts])
        b = np.array([v for _, v in pts])
        coef, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert abs(coef[1] - float(Fraction(269, 576))) < 0.02

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(1, 30), max_size=4),
           n_max=st.integers(1, 60))
    def test_explicit_lists_match_direct(self, values, n_max, orders, cache):
        oset = ExplicitList(values)
        series, _ = decompose_lcm_closed(n_max, oset, orders, cache)
        direct = f_series_direct(n_max, InducedPrimes(oset), orders, cache)
        assert series.samples == direct.samples

    def test_list_of_3_and_4_matches_direct(self, orders, cache):
        # 12 = lcm(3, 4) is a stratum, but 13, whose order is 12, is not in
        # S_12 = {5, 7}: the strata are not the list's lcm closure.
        oset = ExplicitList([3, 4])
        series, strata = decompose_lcm_closed(120, oset, orders, cache)
        assert strata == [1, 3, 4, 12]
        assert s_mbar(12, oset, cache, orders) == {5: 1, 7: 1}
        direct = f_series_direct(120, InducedPrimes(oset), orders, cache)
        assert series.samples == direct.samples

    def test_prime_numbers_matches_direct(self, orders, cache):
        oset = PrimeNumbers()
        series, strata = decompose_lcm_closed(100, oset, orders, cache)
        direct = f_series_direct(100, InducedPrimes(oset), orders, cache)
        assert series.samples == direct.samples
        assert strata[:8] == [1, 2, 3, 5, 6, 7, 10, 11]

    @pytest.mark.parametrize("n_max", [1, 60, 120])
    @pytest.mark.parametrize("oset", ALL_KINDS, ids=lambda oset: oset.kind)
    def test_every_kind_matches_direct(self, oset, n_max, orders, cache):
        # The strata are the mbar_n that occur, whatever closure M has.
        series, strata = decompose_lcm_closed(n_max, oset, orders, cache)
        direct = f_series_direct(n_max, InducedPrimes(oset), orders, cache)
        assert series.samples == direct.samples
        assert strata == sorted({mbar_of(n, oset) for n in range(1, n_max + 1)})


class TestMbar:
    def test_explicit(self):
        assert mbar_of(12, ExplicitList([2, 3])) == 6

    def test_coprime_gives_unit(self):
        assert mbar_of(35, ExplicitList([2, 3])) == 1

    def test_ell_powers(self, orders, cache):
        oset = EllPowers(3)
        assert mbar_of(18, oset) == 9
        assert s_mbar(9, oset, cache, orders) == {7: 1, 73: 1}

    def test_membership_decided_once_per_series(self, orders, cache, monkeypatch):
        # _member decides a factored d; the order set asks it once per d,
        # not once per divisor d of every n, so a fresh set per series sees
        # each d once.
        asked = []
        member = ComplementMultiplesOf._member
        monkeypatch.setattr(ComplementMultiplesOf, "_member",
                            lambda self, d, fac: asked.append(d) or member(self, d, fac))
        for run in (lambda o: mertens_exact(120, InducedPrimes(o), orders, cache),
                    lambda o: decompose_lcm_closed(120, o, orders, cache),
                    lambda o: f_series_direct(120, InducedPrimes(o), orders, cache)):
            asked.clear()
            run(ComplementMultiplesOf(3))
            assert asked and len(asked) == len(set(asked))

    def test_second_series_factors_no_d_again(self, orders, cache, monkeypatch):
        # The first series decides every d <= 120 the others ask about.
        oset = ComplementMultiplesOf(3)
        first, _ = decompose_lcm_closed(120, oset, orders, cache)
        factored = []
        factorize = sets.factorize
        monkeypatch.setattr(sets, "factorize",
                            lambda n: factored.append(n) or factorize(n))
        again = f_series_direct(120, InducedPrimes(oset), orders, cache)
        mertens_exact(120, InducedPrimes(oset), orders, cache)
        assert factored == []
        assert again.samples == first.samples


class TestRemainderBounds:
    def test_pinned_formula_at_40(self):
        rb = remainder_bounds(40)
        assert rb.bound_r == 2**-40 / (1 - 0.5) + 2**-20 / (1 - 2**-0.5)

    def test_monotone_decreasing(self):
        values = [remainder_bounds(n) for n in range(6, 200)]
        for a, b in zip(values, values[1:]):
            assert b.bound_r < a.bound_r
            assert b.bound_q < a.bound_q

    def test_domain(self):
        with pytest.raises(ContractError):
            remainder_bounds(5)

    def test_exact_vs_dominant_envelope(self, orders, cache):
        oset = MultiplesOf(ells=[3])
        grid = list(range(40, 121))
        exact = mertens_exact(120, InducedPrimes(oset), orders, cache)
        dom = dominant_sum(120, oset, grid=grid)
        gaps = {
            n: float(exact.value_at(n) - dom.value_at(n)) for n in grid
        }
        c_hat = gaps[120]
        margin = 1e-6
        for n in grid:
            rb = remainder_bounds(n)
            assert abs(gaps[n] - c_hat) <= rb.bound_r + rb.bound_q + margin


class TestSeriesContainer:
    def test_monotone_value_enforced(self):
        from orbitgrowth.mertens import MertensSeries
        from orbitgrowth.errors import InvariantViolation

        with pytest.raises(InvariantViolation):
            MertensSeries(label="x", mode="exact",
                          samples=[(1, Fraction(1)), (2, Fraction(0))])
        with pytest.raises(InvariantViolation):
            MertensSeries(label="x", mode="exact",
                          samples=[(2, Fraction(1)), (2, Fraction(2))])
