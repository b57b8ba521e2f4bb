import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitgrowth import mertens, sets
from orbitgrowth.arith import SIEVE_CAPACITY
from orbitgrowth.errors import CapacityError, ContractError
from orbitgrowth.integers import divisors, is_probable_prime, ord_p, ord_p_mersenne
from orbitgrowth.mersenne import primitive_primes
from orbitgrowth.mertens import (
    EXACT_CEILING,
    _CHUNK,
    _SCALE,
    _WINDOW,
    _fixed_point_terms,
    _harmonic_fixed_point,
    _removal,
    decompose_lcm_closed,
    default_grid,
    dominant_sum,
    f_series_direct,
    mbar_of,
    mertens_exact,
    orbit_count,
    periodic_points,
    remainder_bounds,
)
from orbitgrowth.sets import (
    ComplementMultiplesOf,
    CompositeNumbers,
    CongruenceSource,
    EllPowers,
    ExplicitFinitePrimes,
    ExplicitList,
    InducedPrimes,
    MultiplesOf,
    OmegaBounded,
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
    def test_full_system(self):
        assert periodic_points(4, []) == 15

    def test_invert_3(self):
        assert periodic_points(4, [3]) == 5

    def test_invert_3_7(self):
        assert periodic_points(6, [3, 7]) == 1

    def test_divides_mersenne(self):
        for n in range(1, 41):
            for s in ([], [3], [3, 7]):
                assert ((1 << n) - 1) % periodic_points(n, s) == 0

    def test_adding_2_changes_nothing(self):
        # |2^n - 1|_2 = 1: the 2-part of an odd number is trivial.
        for n in range(1, 41):
            assert ord_2_of_mersenne(n) == 0
        a = mertens_exact(40, ExplicitFinitePrimes([3, 7]))
        b = mertens_exact(40, ExplicitFinitePrimes([2, 3, 7]))
        assert a.samples == b.samples


def ord_2_of_mersenne(n: int) -> int:
    value = (1 << n) - 1
    e = 0
    while value % 2 == 0:
        value //= 2
        e += 1
    return e


class TestOrbitCounts:
    def test_necklace_oracle(self):
        for n in range(1, 13):
            assert orbit_count(n, []) == necklace_orbit_count(n)

    def test_unit(self):
        assert orbit_count(1, []) == 1

    def test_destroyed_two_cycle(self):
        # F(1) = F(2) = 1 once 3 is inverted
        assert orbit_count(2, [3]) == 0

    def test_moebius_round_trip(self):
        sets = [
            [],
            [3],
            [3, 7],
            InducedPrimes(MultiplesOf(ells=[3])),
        ]
        for s in sets:
            for n in range(1, 41):
                total = sum(
                    d * orbit_count(d, s) for d in divisors(n)
                )
                assert total == periodic_points(n, s)

    @settings(max_examples=60, deadline=None)
    @given(s=st.lists(st.sampled_from(ODD_PRIMES_BELOW_200), max_size=6,
                      unique=True),
           n=st.integers(1, 120))
    def test_moebius_round_trip_on_random_finite_sets(self, s, n):
        total = sum(d * orbit_count(d, s) for d in divisors(n))
        assert total == periodic_points(n, s)


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
    def test_matches_scalar_orbit_counts(self, s):
        series = mertens_exact(120, s)
        acc = Fraction(0)
        for n in range(1, 121):
            acc += Fraction(orbit_count(n, s), 1 << n)
            assert series.value_at(n) == acc, n

    def test_empty_system_small(self):
        series = mertens_exact(4, [])
        assert series.value_at(4) == Fraction(19, 16)

    def test_first_sample_is_half_orbit(self):
        for s in ([], [3], [3, 7]):
            series = mertens_exact(1, s)
            assert series.value_at(1) == Fraction(orbit_count(1, s), 2)

    def test_regression_sentinel_37(self):
        # Frozen from this engine: the step from N=100 to N=120 tracks
        # k_{3,7} log(120/100) (the growth is logarithmic, so the gap is
        # ~0.085, far from zero).
        series = mertens_exact(120, [3, 7])
        diff = float(series.value_at(120) - series.value_at(100))
        assert abs(diff - 0.0852789292451261) < 1e-12
        assert abs(diff - float(Fraction(269, 576)) * math.log(1.2)) < 0.01

    def test_ceiling(self):
        assert EXACT_CEILING == 10_000
        with pytest.raises(ContractError, match="ceiling"):
            mertens_exact(10_001, [])

    def test_sandwich_inner_outer(self):
        # 233 is one of the three primes of order 29: S^o induced by no
        # order lies inside S, S-bar induced by the order 29 around it.
        s = ExplicitFinitePrimes([233])
        inner = InducedPrimes(ExplicitList([]))
        outer = InducedPrimes(ExplicitList([29]))
        m_mid = mertens_exact(40, s)
        m_inner = mertens_exact(40, inner)  # S^o, fewer removals
        m_outer = mertens_exact(40, outer)  # S-bar, more removals
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
    def test_decompose_lcm_closed(self, n_max):
        for oset in (EllPowers(3), ComplementMultiplesOf(3), ExplicitList([2, 3])):
            with pytest.raises(ContractError, match="n_max must be >= 1"):
                decompose_lcm_closed(n_max, oset)

    @pytest.mark.parametrize("n_max", [0, -1, -10])
    def test_f_series_direct(self, n_max):
        for s in ([3, 7], InducedPrimes(EllPowers(3))):
            with pytest.raises(ContractError, match="n_max must be >= 1"):
                f_series_direct(n_max, s)

    @pytest.mark.parametrize("low", [0, -5])
    def test_grid_point_below_1(self, low, monkeypatch):
        oset = MultiplesOf(ells=[3])

        def no_sieve(lo, hi):
            raise AssertionError("indicator built before the grid was checked")

        monkeypatch.setattr(oset, "indicator", no_sieve)
        with pytest.raises(ContractError, match="grid points must be >= 1"):
            dominant_sum(100, oset, grid=[low, 50])

    def test_smallest_n_max(self):
        assert dominant_sum(1, MultiplesOf(ells=[3])).samples == [(1, Fraction(1))]
        series, _ = decompose_lcm_closed(1, EllPowers(3))
        direct = f_series_direct(1, InducedPrimes(EllPowers(3)))
        assert series.samples == direct.samples


class TestDecomposition:
    def test_ell_powers_matches_direct(self):
        oset = EllPowers(3)
        series, strata = decompose_lcm_closed(120, oset)
        direct = f_series_direct(120, InducedPrimes(oset))
        assert series.samples == direct.samples
        assert strata == [1, 3, 9, 27, 81]

    def test_complement_strata_are_ell_power_fibres(self):
        oset = ComplementMultiplesOf(3)
        series, _ = decompose_lcm_closed(100, oset)
        direct = f_series_direct(100, InducedPrimes(oset))
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
    def test_stratum_6_exactly_when_2_and_3_are_members(self, oset):
        # n = 6 realizes the orders 2 and 3 but no prime has order 6, so 6
        # is a stratum of its own only when 2 and 3 are both members.
        series, strata = decompose_lcm_closed(60, oset)
        direct = f_series_direct(60, InducedPrimes(oset))
        assert series.samples == direct.samples
        assert (6 in strata) == (oset.contains(2) and oset.contains(3))

    def test_explicit_list_closure_and_slope(self):
        oset = ExplicitList([2, 3])
        series, strata = decompose_lcm_closed(1000, oset)
        assert strata == [1, 2, 3, 6]
        direct = f_series_direct(1000, ExplicitFinitePrimes([3, 7]))
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
    def test_explicit_lists_match_direct(self, values, n_max):
        oset = ExplicitList(values)
        series, _ = decompose_lcm_closed(n_max, oset)
        direct = f_series_direct(n_max, InducedPrimes(oset))
        assert series.samples == direct.samples

    def test_list_of_3_and_4_matches_direct(self):
        # 12 = lcm(3, 4) is a stratum, but 13, whose order is 12, is not in
        # S: of 2^12 - 1 = 3^2 5 7 13 only 5 and 7 are removed, so the
        # strata are not the list's lcm closure.
        oset = ExplicitList([3, 4])
        series, strata = decompose_lcm_closed(120, oset)
        assert strata == [1, 3, 4, 12]
        assert _removal(12, InducedPrimes(oset)) == 5 * 7
        direct = f_series_direct(120, InducedPrimes(oset))
        assert series.samples == direct.samples

    def test_prime_numbers_matches_direct(self):
        oset = PrimeNumbers()
        series, strata = decompose_lcm_closed(100, oset)
        direct = f_series_direct(100, InducedPrimes(oset))
        assert series.samples == direct.samples
        assert strata[:8] == [1, 2, 3, 5, 6, 7, 10, 11]

    @pytest.mark.parametrize("n_max", [1, 60, 120])
    @pytest.mark.parametrize("oset", ALL_KINDS, ids=lambda oset: oset.kind)
    def test_every_kind_matches_direct(self, oset, n_max):
        # The strata are the mbar_n that occur, whatever closure M has.
        series, strata = decompose_lcm_closed(n_max, oset)
        direct = f_series_direct(n_max, InducedPrimes(oset))
        assert series.samples == direct.samples
        assert strata == sorted({mbar_of(n, oset) for n in range(1, n_max + 1)})


class TestRemoval:
    # The removal reads no factorization of 2^n - 1.  The factor cache's
    # route is its oracle: the primitive primes of every order d | n in M,
    # each with its lifted exponent ord_p(2^n - 1).
    @pytest.mark.parametrize("oset", ALL_KINDS, ids=lambda oset: oset.kind)
    def test_matches_primitive_primes_of_the_seed_cache(self, oset, cache):
        pset = InducedPrimes(oset)
        for n in range(1, 129):
            expect = math.prod(p ** ord_p_mersenne(p, n)
                               for d in divisors(n) if oset.contains(d)
                               for p, _ in primitive_primes(d, cache))
            assert _removal(n, pset) == expect, n

    def test_primitive_part_evaluated_once_per_order(self, monkeypatch):
        # Each Phi_d(2) / gcd(Phi_d(2), d) is kept, not evaluated again for
        # every n that d divides: the composite d to 120 but 6.
        evaluated = []
        real = mertens.cyclotomic_eval2
        monkeypatch.setattr(mertens, "cyclotomic_eval2",
                            lambda d: evaluated.append(d) or real(d))
        mertens._primitive_part.cache_clear()
        mertens_exact(120, InducedPrimes(CompositeNumbers()))
        assert sorted(evaluated) == [d for d in range(4, 121)
                                     if d != 6 and not is_probable_prime(d)]

    def test_wieferich_prime_past_the_seed_cache(self):
        # 1093 has order 364 and 1093^2 | 2^364 - 1, inside the primitive
        # part of Phi_364(2); lifting adds one more 1093 at n = 364 * 1093.
        pset = InducedPrimes(ExplicitList([364]))
        for n, e in ((364, 2), (364 * 1093, 3)):
            removal = _removal(n, pset)
            assert ((1 << n) - 1) % removal == 0
            assert ord_p(removal, 1093) == e
            assert _removal(n, ExplicitFinitePrimes([1093])) == 1093**e


class TestMbar:
    def test_explicit(self):
        assert mbar_of(12, ExplicitList([2, 3])) == 6

    def test_coprime_gives_unit(self):
        assert mbar_of(35, ExplicitList([2, 3])) == 1

    def test_ell_powers(self):
        oset = EllPowers(3)
        assert mbar_of(18, oset) == 9
        assert _removal(9, InducedPrimes(oset)) == 7 * 73

    def test_membership_decided_once_per_series(self, monkeypatch):
        # _member decides a factored d; the order set asks it once per d,
        # not once per divisor d of every n, so a fresh set per series sees
        # each d once.
        asked = []
        member = ComplementMultiplesOf._member
        monkeypatch.setattr(ComplementMultiplesOf, "_member",
                            lambda self, d, fac: asked.append(d) or member(self, d, fac))
        for run in (lambda o: mertens_exact(120, InducedPrimes(o)),
                    lambda o: decompose_lcm_closed(120, o),
                    lambda o: f_series_direct(120, InducedPrimes(o))):
            asked.clear()
            run(ComplementMultiplesOf(3))
            assert asked and len(asked) == len(set(asked))

    def test_second_series_factors_no_d_again(self, monkeypatch):
        # The first series decides every d <= 120 the others ask about.
        oset = ComplementMultiplesOf(3)
        first, _ = decompose_lcm_closed(120, oset)
        factored = []
        factorize = sets.factorize
        monkeypatch.setattr(sets, "factorize",
                            lambda n: factored.append(n) or factorize(n))
        again = f_series_direct(120, InducedPrimes(oset))
        mertens_exact(120, InducedPrimes(oset))
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

    def test_exact_vs_dominant_envelope(self):
        oset = MultiplesOf(ells=[3])
        grid = list(range(40, 121))
        exact = mertens_exact(120, InducedPrimes(oset))
        dom = dominant_sum(120, oset, grid=grid)
        gaps = {
            n: float(exact.value_at(n) - dom.value_at(n)) for n in grid
        }
        c_hat = gaps[120]
        margin = 1e-6
        for n in grid:
            rb = remainder_bounds(n)
            assert abs(gaps[n] - c_hat) <= rb.bound_r + rb.bound_q + margin


# M_S(N) - D_M(N), with D_M the dominant sum, read from this engine: equal
# to 12 digits from N = 500 to 2000.
PINNED_GAPS = {
    MultiplesOf(ells=[3]).label(): -0.823245483496,
    CompositeNumbers().label(): 0.299994448210,
    OmegaBounded(1, CongruenceSource(3, [1]), 1).label(): -0.502251123709,
}


class TestExactAgainstDominant:
    # On a set closed under multiplication by the naturals, the exact series
    # and the dominant sum differ by a constant plus a remainder that is
    # already below 1e-9 at N = 500: two independent routes to one series.
    @pytest.mark.parametrize(
        "oset", [o for o in ALL_KINDS if o.closed_under_nat_multiplication]
        + [MultiplesOf(ells=[3]), OmegaBounded(1, CongruenceSource(3, [1]), 1)],
        ids=lambda oset: oset.kind)
    def test_difference_is_constant(self, oset):
        exact = mertens_exact(1000, InducedPrimes(oset))
        dom = dominant_sum(1000, oset, grid=[500, 1000])
        gaps = [float(exact.value_at(n) - dom.value_at(n)) for n in (500, 1000)]
        assert abs(gaps[0] - gaps[1]) < 1e-9
        if oset.label() in PINNED_GAPS:
            assert abs(gaps[1] - PINNED_GAPS[oset.label()]) < 1e-9


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
