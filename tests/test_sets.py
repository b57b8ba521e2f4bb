import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitgrowth import sets
from orbitgrowth.arith import SIEVE_BLOCK, mult_orders, sieve_primes
from orbitgrowth.errors import ContractError, InvariantViolation
from orbitgrowth.integers import is_probable_prime, mult_order
from orbitgrowth.mersenne import primitive_primes
from orbitgrowth.sets import (
    WINDOW,
    ComplementMultiplesOf,
    CompositeNumbers,
    CongruenceSource,
    EllPowers,
    ExplicitFinitePrimes,
    ExplicitList,
    InducedPrimes,
    ListSource,
    MultiplesOf,
    OmegaBounded,
    PrimeList,
    PrimeNumbers,
    SquarefreeAugmented,
    estimate_density,
    order_set_from_json,
    prime_set_from_json,
    prime_mask,
)


def omega_reference(limit: int) -> np.ndarray:
    """Omega(n) for n in [0, limit], one slice per prime power up to limit:
    the loop the indicator's pass over the primes up to the root replaced."""
    omega = np.zeros(limit + 1, dtype=np.int8)
    for p in np.flatnonzero(prime_mask(0, limit + 1)).tolist():
        pk = p
        while pk <= limit:
            omega[pk::pk] += 1
            pk *= p
    return omega


def outside_reference(source, limit: int) -> np.ndarray:
    """True at n >= 2 with a prime factor source lacks, one slice per prime."""
    bad = np.zeros(limit + 1, dtype=bool)
    allowed = np.zeros(limit + 1, dtype=bool)
    allowed[source.primes_up_to(limit)] = True
    for p in np.flatnonzero(prime_mask(0, limit + 1)).tolist():
        if not allowed[p]:
            bad[p::p] = True
    return bad


SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@st.composite
def omega_bounded_specs(draw):
    if draw(st.booleans()):
        source = ListSource(draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=6)))
    else:
        modulus = draw(st.integers(2, 12))
        source = CongruenceSource(modulus, draw(st.lists(
            st.integers(0, modulus - 1), min_size=1, max_size=modulus)))
    return OmegaBounded(draw(st.integers(1, 4)), source, draw(st.integers(1, 60)))


@st.composite
def congruence_sources(draw):
    modulus = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 12, 30, 2**70]))
    return CongruenceSource(modulus, draw(st.lists(
        st.integers(0, min(modulus, 3000) - 1), min_size=1, max_size=6)))


prime_sources = st.one_of(
    st.lists(st.sampled_from(SMALL_PRIMES + [2999, 2**127 - 1]),
             max_size=6).map(ListSource),
    congruence_sources())


@st.composite
def base_order_sets(draw):
    """A valid order set of one of the nine kinds other than
    squarefree_augmented, with values past int64 now and then."""
    big = st.sampled_from([2**40, 2**70])
    kind = draw(st.sampled_from(sorted(sets._ORDER_KINDS)))
    if kind == "explicit_list":
        return ExplicitList(draw(st.lists(st.integers(1, 3000) | big, max_size=6)))
    if kind == "prime_list":
        return PrimeList(draw(st.lists(st.sampled_from(SMALL_PRIMES + [2999]),
                                       max_size=5)))
    if kind == "multiples_of":
        if draw(st.booleans()):
            return MultiplesOf(ells=draw(st.lists(st.integers(2, 60) | big,
                                                  min_size=1, max_size=4)))
        return MultiplesOf(ell_set=draw(prime_sources))
    if kind == "complement_multiples_of":
        return ComplementMultiplesOf(draw(st.integers(2, 60) | big))
    if kind == "composite_numbers":
        return CompositeNumbers()
    if kind == "prime_numbers":
        return PrimeNumbers()
    if kind == "ell_powers":
        return EllPowers(draw(st.integers(2, 12)))
    if kind == "congruence_primes":
        return draw(congruence_sources())
    return OmegaBounded(draw(st.integers(1, 4)), draw(prime_sources),
                        draw(st.integers(1, 60) | big))


@st.composite
def order_sets(draw):
    """A valid order set of any of the ten kinds."""
    base = draw(base_order_sets())
    return SquarefreeAugmented(base) if draw(st.booleans()) else base


BASE_KINDS = [
    ExplicitList([1, 2, 6, 28, 500, 4096, 10**9]),
    ExplicitList([2, 2**70]),
    PrimeList([2, 3, 5, 7, 499]),
    MultiplesOf(ells=[3, 5]),
    MultiplesOf(ells=[7, 31, 2**70]),
    MultiplesOf(ell_set=CongruenceSource(3, [1])),
    MultiplesOf(ell_set=ListSource([5, 11, 499, 2**127 - 1])),
    ComplementMultiplesOf(3),
    ComplementMultiplesOf(2**70),
    CompositeNumbers(),
    PrimeNumbers(),
    EllPowers(2),
    EllPowers(6),
    CongruenceSource(4, [1]),
    # m shares 2 and 3 with the source, and 5 is outside it.
    OmegaBounded(2, ListSource([2, 3, 7]), 2**3 * 3 * 5),
    OmegaBounded(1, CongruenceSource(4, [1, 3]), 12),
]
ALL_KINDS = BASE_KINDS + [SquarefreeAugmented(k) for k in BASE_KINDS]

# The non-squarefree n; the squarefree harmonic sum runs over the n outside it.
NON_SQUAREFREE = SquarefreeAugmented(ExplicitList([]))


# Every pair of naturals up to 60.
SMALL_PAIRS = [(a, b) for a in range(1, 61) for b in range(1, 61)]


def closure_break(oset, pairs):
    """The first (a, b) of pairs that breaks the multiplication closure oset
    claims, or None: a member a >= 2 with a*b not a member (b any natural;
    membership of 1 is bookkeeping for dominant sums, while closure concerns
    the orders M without 1 and 6).  A flag claimed False is not tested."""
    if not oset.closed_under_nat_multiplication:
        return None
    for a, b in pairs:
        if a >= 2 and oset.contains(a) and not oset.contains(a * b):
            return a, b
    return None


class TestSieveArrays:
    @pytest.mark.parametrize("build", [
        prime_mask,
        NON_SQUAREFREE.indicator,
        PrimeNumbers().indicator,
        CompositeNumbers().indicator,
    ], ids=["prime_mask", "non_squarefree", "prime_numbers", "composite_numbers"])
    def test_each_call_returns_a_new_array(self, build):
        for lo, hi in ((0, 1001), (500, 1001)):
            first = build(lo, hi)
            expect = first.copy()
            first[:] = ~first
            assert np.array_equal(build(lo, hi), expect)

    @pytest.mark.parametrize("oset", ALL_KINDS, ids=lambda oset: oset.kind)
    def test_indicator_returns_a_fresh_array(self, oset):
        # dominant_sum inverts each window's indicator in place.
        for lo, hi in ((0, 1001), (500, 1001)):
            first = oset.indicator(lo, hi)
            expect = first.copy()
            np.logical_not(first, out=first)
            second = oset.indicator(lo, hi)
            assert not np.shares_memory(first, second)
            assert np.array_equal(second, expect)

    @pytest.mark.parametrize("source", [
        ListSource([2, 3, 97, 101, 99991, 2**127 - 1]),
        CongruenceSource(4, [1, 3]),
        CongruenceSource(3, [1]),
        CongruenceSource(2**70, [1, 3, 7919, 2**70 - 1]),
    ], ids=["list", "congruence_odd", "congruence_1mod3", "congruence_past_int64"])
    def test_primes_up_to_is_sorted_int32(self, source):
        for limit in (1, 2, 3, 100, 10**5):
            got = source.primes_up_to(limit)
            expect = [p for p in range(2, limit + 1)
                      if is_probable_prime(p) and source.contains_prime(p)]
            assert got.dtype == np.int32 and got.tolist() == expect, limit
            assert source.contains_primes(got).all()


def congruence_reference(source, limit):
    """primes_up_to as a filter of every prime <= limit by its residue."""
    idx = np.flatnonzero(prime_mask(0, limit + 1))
    if source.modulus > limit:
        return idx[np.isin(idx, [r for r in source.residues if r <= limit])]
    return idx[np.isin(idx % source.modulus, source.residues)]


class TestCongruenceSource:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 64).flatmap(lambda m: st.tuples(
               st.just(m), st.sets(st.integers(0, m - 1), min_size=1))),
           st.integers(0, 2 * 10**5) | st.integers(0, 130))
    @example((2, {0}), 2)
    @example((3, {0, 2}), 3)
    @example((64, {2, 32}), 10**5)
    @example((61, {0, 1, 60}), 60)
    def test_matches_residue_filter(self, source, limit):
        # Each class prime to the modulus is sieved on its own progression;
        # 2 and the classes that share a factor with the modulus are not.
        modulus, residues = source
        source = CongruenceSource(modulus, residues)
        got = source.primes_up_to(limit)
        expect = congruence_reference(source, limit)
        assert got.dtype == np.int32 and np.array_equal(got, expect)


class TestIndicatorWindows:
    # Every kind's window form against its own whole mask, and against the
    # scalar membership test on short windows.  LIMIT's root is 200; 199 is
    # the class prime 1 mod 3 below it and 211 the one above, 199^2 = 39601
    # a prime square, and a window's root isqrt(hi - 1) splits the ells it
    # marks by slices from those it gathers.
    LIMIT = 40000
    EDGES = [(0, 1), (0, 2), (0, 50), (1, 2), (2, 3), (199, 200), (200, 201),
             (211, 212), (39601, 39602), (LIMIT, LIMIT + 1), (180, 230),
             (190, 215), (39590, 39612), (16120, 16140), (39000, 39601),
             (39000, 39602), (39000, 39603), (44 * 44, 45 * 45 + 1),
             (0, LIMIT + 1)]

    @staticmethod
    def windows():
        rng = random.Random(26)
        drawn = []
        for _ in range(24):
            lo = rng.randrange(0, TestIndicatorWindows.LIMIT + 1)
            hi = min(lo + rng.choice([1, 7, 60, 1000, 9000]), TestIndicatorWindows.LIMIT + 1)
            drawn.append((lo, hi))
        return TestIndicatorWindows.EDGES + drawn

    @pytest.mark.parametrize("oset", ALL_KINDS, ids=lambda oset: oset.kind)
    def test_window_matches_whole_mask_and_contains(self, oset):
        whole = oset.indicator(0, self.LIMIT + 1)
        assert whole.size == self.LIMIT + 1 and not whole[0]
        for lo, hi in self.windows():
            got = oset.indicator(lo, hi)
            assert got.dtype == bool and np.array_equal(got, whole[lo:hi]), (lo, hi)
            if hi - lo <= 60:
                assert [bool(got[n - lo]) for n in range(max(lo, 1), hi)] == [
                    oset.contains(n) for n in range(max(lo, 1), hi)], (lo, hi)

    # LIMIT + 1 is below WINDOW, so unpatched every window is one piece;
    # patched, the same windows are filled piece by piece, with piece edges
    # on either side of the edges above.
    @pytest.mark.parametrize("window", [64, 1000])
    @pytest.mark.parametrize("build", [prime_mask, *(o.indicator for o in ALL_KINDS)],
                             ids=["prime_mask", *(o.kind for o in ALL_KINDS)])
    def test_pieces_match_one_piece(self, build, window, monkeypatch):
        expect = [build(lo, hi) for lo, hi in self.windows()]
        monkeypatch.setattr(sets, "WINDOW", window)
        for (lo, hi), want in zip(self.windows(), expect):
            assert np.array_equal(build(lo, hi), want), (lo, hi)

    @pytest.mark.parametrize("build", [
        prime_mask, NON_SQUAREFREE.indicator, MultiplesOf(ells=[3]).indicator,
    ], ids=["prime_mask", "non_squarefree", "multiples_of"])
    @pytest.mark.parametrize("lo, hi", [(-1, 5), (5, 5), (6, 5)])
    def test_bad_window_is_contract_error(self, build, lo, hi):
        with pytest.raises(ContractError, match="window"):
            build(lo, hi)

    @pytest.mark.parametrize("source", [
        CongruenceSource(3, [1]),
        CongruenceSource(30, [1, 7, 11, 13, 17, 19, 23, 29]),
        ListSource([5, 11, 499, 1048573]),
    ], ids=["congruence_1mod3", "congruence_30", "list"])
    def test_multiples_across_spans_and_gathers(self, source, monkeypatch):
        # One slice per ell is the reference.  A window is marked in pieces
        # of WINDOW integers, each gathering about _GATHER products at once;
        # small pieces and gathers split single k's runs too.
        limit = 3 * sets.WINDOW + 5
        ref = np.zeros(limit + 1, dtype=bool)
        for ell in source.primes_up_to(limit).tolist():
            ref[ell::ell] = True
        oset = MultiplesOf(ell_set=source)
        assert np.array_equal(oset.indicator(0, limit + 1), ref)
        for lo, hi in ((sets.WINDOW - 3, 2 * sets.WINDOW + 3), (1, sets.WINDOW + 1),
                       (limit - 10, limit + 1)):
            assert np.array_equal(oset.indicator(lo, hi), ref[lo:hi]), (lo, hi)
        monkeypatch.setattr(sets, "WINDOW", 1000)
        monkeypatch.setattr(sets, "_GATHER", 100)
        assert np.array_equal(oset.indicator(0, 60001), ref[:60001])
        assert np.array_equal(oset.indicator(59000, 70001), ref[59000:70001])


class TestSourceMemo:
    @pytest.mark.parametrize("source", [
        lambda: CongruenceSource(3, [1]),
        lambda: CongruenceSource(12, [0, 2, 3, 5, 11]),
        lambda: CongruenceSource(2**70, [1, 3, 7919, 2**70 - 1]),
    ], ids=["1mod3", "shared_factors", "past_int64"])
    def test_any_order_of_limits_gives_the_fresh_answer(self, source):
        # A CongruenceSource keeps the primes it found and sieves on from
        # there; what it returns never depends on what it was asked before.
        limits = [10, 5000, 3, 2**18 + 1, 100, 2**22 + 7, 2**18, 0, 2**22 + 7]
        kept = source()
        views = []
        for limit in limits:
            got = kept.primes_up_to(limit)
            assert not got.flags.writeable
            assert np.array_equal(got, source().primes_up_to(limit)), limit
            views.append((limit, got.copy(), got))
        # Arrays handed out before the store grew still hold their primes.
        for limit, copy, view in views:
            assert np.array_equal(view, copy), limit

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**300), st.lists(st.integers(1, 2**32 - 1), min_size=1,
                                            max_size=40))
    def test_residues_of_a_big_m(self, m, d):
        got = sets._residues(m, np.array(d, dtype=np.int64))
        assert got.tolist() == [m % x for x in d]


class TestMembership:
    def test_multiples(self):
        m = MultiplesOf(ells=[3])
        assert m.contains(12)
        assert not m.contains(10)

    def test_composite_orders(self):
        s = InducedPrimes(CompositeNumbers())
        # m_7 = 3 and m_23 = m_89 = 11 are prime; m_5 = 4 is composite.
        assert not s.order_set.contains(mult_order(7))
        assert not s.order_set.contains(mult_order(23))
        assert not s.order_set.contains(mult_order(89))
        assert s.order_set.contains(mult_order(5))

    def test_ell_power_orders(self):
        s = InducedPrimes(EllPowers(3))
        assert s.order_set.contains(mult_order(73))  # m_73 = 9
        assert not s.order_set.contains(mult_order(5))

    def test_two_never_member(self):
        assert 2 not in ExplicitFinitePrimes([2, 3]).primes
        # Only the odd primes 3, 5, 7 are counted; m_3 = 2 and m_5 = 4 are even.
        est = estimate_density(InducedPrimes(MultiplesOf(ells=[2])), 10)
        assert (est.member_count, est.total_count) == (2, 3)

    def test_indicator_matches_scalar(self):
        specs = [
            MultiplesOf(ells=[3, 5]),
            ComplementMultiplesOf(3),
            CompositeNumbers(),
            PrimeNumbers(),
            EllPowers(3),
            SquarefreeAugmented(MultiplesOf(ells=[3])),
            CongruenceSource(3, [1]),
            OmegaBounded(2, CongruenceSource(4, [1, 3]), 12),
            OmegaBounded(1, ListSource([3, 5, 7]), 4),
            ExplicitList([1, 2, 6, 28, 500]),
            PrimeList([2, 3, 5, 7, 499]),
            MultiplesOf(ell_set=CongruenceSource(3, [1])),
            MultiplesOf(ell_set=ListSource([5, 11, 499])),
            MultiplesOf(ells=[7, 31, 37]),
        ]
        # MultiplesOf splits its ells at isqrt(limit), so the limits straddle
        # the square of 31, an ell of two specs.
        for limit in (500, 31 * 31 - 1, 31 * 31, 31 * 31 + 1):
            for spec in specs:
                ind = spec.indicator(0, limit + 1)
                assert len(ind) == limit + 1
                for n in range(1, limit + 1):
                    assert bool(ind[n]) == spec.contains(n), (spec.kind, limit, n)

    def test_omega_bounded_indicator_across_blocks(self):
        # The pass over the primes up to the root equals the every-prime
        # formula it replaced, across pieces (2 * SIEVE_BLOCK is four) and on
        # both sides of a prime square (isqrt(limit) reaches 1031 at 1031^2).
        for limit in (1031 * 1031 - 1, 1031 * 1031, 2 * SIEVE_BLOCK + 77):
            idx = np.arange(limit + 1, dtype=np.int64)
            omega, q = omega_reference(limit), np.ones(limit + 1, dtype=np.int64)
            for oset in (OmegaBounded(2, CongruenceSource(4, [1, 3]), 12),
                         OmegaBounded(1, ListSource([3, 5, 7]), 4),
                         OmegaBounded(3, ListSource([2, 1031]), 6)):
                q[1:] = idx[1:] // np.gcd(idx[1:], oset.m)
                expect = ((omega[q] > oset.r)
                          | outside_reference(oset.ell_set, limit)[q])
                expect[0] = False
                assert np.array_equal(oset.indicator(0, limit + 1), expect), (oset, limit)

    @settings(max_examples=100, deadline=None)
    @given(oset=omega_bounded_specs(), limit=st.integers(1, 3000))
    def test_omega_bounded_indicator_matches_contains(self, oset, limit):
        ind = oset.indicator(0, limit + 1)
        assert len(ind) == limit + 1 and not ind[0]
        assert [n for n in range(1, limit + 1) if ind[n] != oset.contains(n)] == []

    @settings(max_examples=60, deadline=None)
    @given(oset=order_sets(), limit=st.integers(1, 3000))
    @example(oset=MultiplesOf(ells=[3]), limit=1)
    @example(oset=SquarefreeAugmented(ComplementMultiplesOf(2)), limit=2)
    @example(oset=OmegaBounded(1, ListSource([3]), 2**70), limit=3)
    def test_three_membership_paths_agree(self, oset, limit):
        # The sieve and the scalar test give one answer for every kind, and
        # the JSON form loads back to the same set.
        ind = oset.indicator(0, limit + 1)
        assert len(ind) == limit + 1 and not ind[0]
        assert [n for n in range(1, limit + 1) if ind[n] != oset.contains(n)] == []
        spec = oset.to_json()
        assert order_set_from_json(spec).to_json() == spec

    @pytest.mark.parametrize("oset", [
        MultiplesOf(ell_set=CongruenceSource(3, [1])),
        MultiplesOf(ell_set=ListSource([3, 1048573, 1048583])),
        CongruenceSource(4, [1]),
    ], ids=["multiples_of_congruence", "multiples_of_list", "congruence_primes"])
    def test_membership_paths_at_the_block_edge(self, oset):
        # 1048573 and 1048583 are the primes on either side of SIEVE_BLOCK.
        limit = SIEVE_BLOCK + 1
        ind = oset.indicator(0, limit + 1)
        ns = list(range(SIEVE_BLOCK - 200, limit + 1))
        assert [n for n in ns if ind[n] != oset.contains(n)] == []

    def test_omega_bounded_m_past_int64(self):
        # Below 2^40, m = 2^70 and m = 2^40 divide out the same powers of 2.
        source = ListSource([3, 5])
        big, small = OmegaBounded(2, source, 2**70), OmegaBounded(2, source, 2**40)
        for limit in (1, 1000, SIEVE_BLOCK + 5):
            assert np.array_equal(big.indicator(0, limit + 1), small.indicator(0, limit + 1))
        spec = {"kind": "omega_bounded", "r": 2, "m": 2**70,
                "ell_set": source.to_json()}
        assert order_set_from_json(spec).to_json() == spec

    def test_omega_bounded_m_prime_past_1e5(self):
        # 100003, the least prime past 10^5, lies in the second segment of
        # m's trial division; 10^19 + 51 is a prime past the limit.
        limit, source = 300011, ListSource([3, 5])
        oset = OmegaBounded(1, source, 3 * 100003)
        ind = oset.indicator(0, limit + 1)
        diff = np.flatnonzero(ind != OmegaBounded(1, source, 3).indicator(0, limit + 1))
        assert diff.tolist() == [100003, 300009]
        far = OmegaBounded(1, source, 3 * 100003 * (10**19 + 51))
        assert np.array_equal(ind, far.indicator(0, limit + 1))
        assert [bool(ind[n]) for n in diff] == [oset.contains(int(n)) for n in diff]

    @pytest.mark.parametrize("ell", [2, 3, 4, 6, 9])
    def test_ell_powers_indicator_matches_contains(self, ell):
        # n = ell^e exactly, for a composite ell too.
        oset = EllPowers(ell)
        ind = oset.indicator(0, 5000 + 1)
        assert [n for n in range(1, 5001) if ind[n] != oset.contains(n)] == []
        assert np.flatnonzero(ind).tolist() == [ell**e for e in range(13)
                                                if ell**e <= 5000]


class TestClosureFlags:
    @settings(max_examples=200, deadline=None)
    @given(oset=order_sets(), limit=st.integers(2, 3000),
           picks=st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 10**4)),
                          min_size=1, max_size=30))
    def test_claimed_flags_hold(self, oset, limit, picks):
        # A member a from the sieve and any natural k: a*k is a member when
        # multiplication closure is claimed.  Each of the ten least members
        # times the ten least members and 1..10 comes first, then the picks.
        members = np.flatnonzero(oset.indicator(0, limit + 1)).tolist()
        if not members:
            return
        least = members[:10]
        pairs = [(a, b) for a in least for b in least + list(range(1, 11))]
        pairs += [(members[i % len(members)], k) for i, k in picks]
        assert closure_break(oset, pairs) is None, oset

    def test_multiples_closed(self):
        assert closure_break(MultiplesOf(ells=[3]), SMALL_PAIRS) is None

    def test_squarefree_augmented_closed(self):
        s = SquarefreeAugmented(MultiplesOf(ells=[3]))
        assert s.closed_under_nat_multiplication
        assert closure_break(s, SMALL_PAIRS) is None

    def test_false_flags_are_not_tested(self):
        # A flag claimed False only narrows what dominant_sum accepts, so
        # the check spends no membership test on it.
        calls = []

        class Recording(PrimeNumbers):
            def _member(self, n, fac):
                calls.append(n)
                return super()._member(n, fac)

        assert closure_break(Recording(), SMALL_PAIRS) is None
        assert calls == []

    def test_omega_bounded_closed(self):
        o = OmegaBounded(2, CongruenceSource(3, [1]), 6)
        assert closure_break(o, SMALL_PAIRS) is None

    def test_false_nat_claim_found_with_pair(self):
        # 1 * 3 is no member either, but the unit is not a closure witness.
        class Lying(ComplementMultiplesOf):
            closed_under_nat_multiplication = True

        assert closure_break(Lying(3), SMALL_PAIRS) == (2, 3)

    def test_loader_draws_no_random_numbers(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a spec load drew random numbers")

        monkeypatch.setattr(random, "Random", no_draws)
        for oset in ALL_KINDS:
            spec = {"kind": "induced", "order_set": oset.to_json()}
            assert prime_set_from_json(spec).to_json() == spec


class TestCorrespondence:
    def test_s_of_m_of_s_contains_s(self):
        rng = random.Random(0)
        pool = [int(p) for p in sieve_primes(10**4).primes[1:]]
        for _ in range(100):
            s = rng.sample(pool, rng.randint(1, 6))
            m_s = sorted({mult_order(p) for p in s})
            induced = InducedPrimes(ExplicitList(m_s))
            assert all(induced.order_set.contains(mult_order(p)) for p in s)

    def test_induced_idempotent(self):
        # S_{M_{S_M}} = S_M: membership agrees on a prime sample.
        base = InducedPrimes(MultiplesOf(ells=[3]))
        sample = [3, 5, 7, 73, 233, 331, 4051]
        m_realized = sorted({mult_order(p) for p in sample
                             if base.order_set.contains(mult_order(p))})
        again = InducedPrimes(ExplicitList(m_realized))
        for p in sample:
            if base.order_set.contains(mult_order(p)):
                assert again.order_set.contains(mult_order(p))

    def test_m_of_s_m_drops_1_and_6(self, cache):
        rng = random.Random(1)
        for _ in range(20):
            values = sorted(rng.sample(range(1, 65), rng.randint(1, 8)))
            realized = [
                m for m in values if primitive_primes(m, cache)
            ]
            assert realized == [m for m in values if m not in (1, 6)]


class TestDensity:
    def test_multiples_of_3(self):
        est = estimate_density(InducedPrimes(MultiplesOf(ells=[3])), 10**6)
        assert abs(est.ratio - 3 / 8) < 0.02

    def test_multiples_of_2(self):
        est = estimate_density(InducedPrimes(MultiplesOf(ells=[2])), 10**6)
        assert abs(est.ratio - 17 / 24) < 0.02

    def test_explicit_finite_vanishes(self):
        est = estimate_density(ExplicitFinitePrimes([3, 7]), 10**6)
        assert est.member_count == 2
        assert est.ratio < 1e-4

    def test_complement_multiples_density(self):
        # density of {p : 3 does not divide m_p} is 1 - 3/8 = 5/8
        est = estimate_density(InducedPrimes(ComplementMultiplesOf(3)), 10**6)
        assert abs(est.ratio - 5 / 8) < 0.02

    def test_ell_2_complement_is_not_the_odd_prime_formula(self):
        # {p : m_p odd} has density 1 - 17/24 = 7/24; the odd-prime product
        # formula would predict 1 - 2/3 = 1/3, which it visibly is not.
        # Empirical only: no exactness is claimed for the ell = 2 case.
        est = estimate_density(InducedPrimes(ComplementMultiplesOf(2)), 10**6)
        assert abs(est.ratio - 7 / 24) < 0.02
        assert abs(est.ratio - 1 / 3) > 0.02

    @pytest.mark.parametrize("pset,members", [
        (InducedPrimes(MultiplesOf(ells=[3])), 62),
        (ExplicitFinitePrimes([3, 7, 997, 1009, 2**127 - 1]), 3),
    ])
    def test_larger_table_counts_to_limit(self, pset, members):
        # No prime beyond the limit is counted, listed ones past 2^63 included.
        est = estimate_density(pset, 1000)
        assert (est.member_count, est.total_count) == (members, 167)

    def test_counts_match_scalar_orders(self, table_1e6):
        # The bulk orders and the indicator gather against scalar orders.
        limit = 20000
        for oset in (MultiplesOf(ells=[3]),
                     MultiplesOf(ell_set=CongruenceSource(3, [1])),
                     OmegaBounded(2, CongruenceSource(4, [1]), 6),
                     EllPowers(2)):
            pset = InducedPrimes(oset)
            odd = [p for p in table_1e6.primes[1:].tolist() if p <= limit]
            members = sum(oset.contains(mult_order(p)) for p in odd)
            est = estimate_density(pset, limit)
            assert (est.member_count, est.total_count) == (members, len(odd))

    # Limits around the first edge of the real window, where the m_p (all
    # below the limit) reach that edge at most; then narrow windows, so that
    # the m_p span many of them and sit on both sides of each edge.
    @pytest.mark.parametrize("window, limit", [
        *((WINDOW, WINDOW + d) for d in (-2, -1, 0, 1)),
        (WINDOW, 2 * 10**6), (1000, 999), (1000, 1001), (1000, 30011), (64, 5000)])
    def test_windowed_count_matches_one_mask(self, window, limit, monkeypatch):
        # The windowed gather against one indicator over (0, limit + 1),
        # each on its own order set, so no sieve state is shared.
        monkeypatch.setattr(sets, "WINDOW", window)
        edge_orders = [mult_order(p) for p in range(max(3, window - 300), window + 300)
                       if is_probable_prime(p)]
        specs = [{"kind": "multiples_of", "ells": [3]},
                 {"kind": "multiples_of",
                  "ell_set": {"kind": "congruence_primes", "modulus": 3, "residues": [1]}},
                 {"kind": "complement_multiples_of", "ell": 3},
                 {"kind": "ell_powers", "ell": 2},
                 {"kind": "explicit_list", "values": [2, 3, 4, 5, 10, *edge_orders]},
                 {"kind": "omega_bounded", "r": 2, "m": 6,
                  "ell_set": {"kind": "congruence_primes", "modulus": 4, "residues": [1]}},
                 {"kind": "complement_multiples_of", "ell": 2}]
        table = sieve_primes(limit)
        orders = mult_orders(table.primes[1:], table)
        for spec in specs:
            oset = order_set_from_json(spec)
            members = np.count_nonzero(oset.indicator(0, limit + 1)[orders])
            est = estimate_density(InducedPrimes(order_set_from_json(spec)), limit)
            assert (est.member_count, est.total_count) == (members, orders.size), spec

    def test_corrupted_bulk_orders_are_caught(self, monkeypatch):
        from orbitgrowth import sets

        real = sets.mult_orders
        monkeypatch.setattr(sets, "mult_orders",
                            lambda primes, table: 2 * real(primes, table))
        with pytest.raises(InvariantViolation, match="disagrees with mult_order"):
            estimate_density(InducedPrimes(MultiplesOf(ells=[3])), 10**5)


class TestJson:
    def test_roundtrip(self):
        specs = [
            MultiplesOf(ells=[3]),
            MultiplesOf(ell_set=CongruenceSource(3, [1])),
            SquarefreeAugmented(ComplementMultiplesOf(5)),
            OmegaBounded(2, CongruenceSource(4, [1]), 6),
            ExplicitList([2, 3]),
        ]
        for spec in specs:
            clone = order_set_from_json(spec.to_json())
            for n in (1, 5, 12, 30, 49, 450):
                assert clone.contains(n) == spec.contains(n)

    def test_prime_set_roundtrip(self):
        ps = prime_set_from_json({"kind": "explicit_finite", "primes": [3, 7]})
        assert 3 in ps.primes and 5 not in ps.primes
        ind = prime_set_from_json(
            {"kind": "induced", "order_set": {"kind": "multiples_of", "ells": [3]}}
        )
        assert ind.order_set.contains(mult_order(73))

    def test_congruence_primes_is_one_class(self):
        # The order-set kind and the multiples_of prime source load to one
        # class with one store of primes.
        spec = {"kind": "congruence_primes", "modulus": 4, "residues": [1, 3]}
        as_order_set = order_set_from_json(spec)
        as_source = order_set_from_json({"kind": "multiples_of", "ell_set": spec}).ell_set
        assert type(as_order_set) is type(as_source) is CongruenceSource
        for limit in (0, 2, 3, 100, 10**5):
            assert np.array_equal(as_order_set.primes_up_to(limit),
                                  as_source.primes_up_to(limit)), limit
        assert as_order_set.to_json() == as_source.to_json() == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            order_set_from_json({"kind": "mystery"})
        # Malformed specs are contract errors too, never a KeyError or an
        # AttributeError from deep inside a constructor.
        omega = {"kind": "omega_bounded", "r": 2, "m": 6,
                 "ell_set": {"kind": "list"}}
        for spec in (
            {"kind": "mystery"},
            [3, 7],
            {"kind": "induced"},
            {"kind": "induced", "order_set": omega},
            {"kind": "induced", "order_set": {"kind": "multiples_of", "ells": []}},
            # Wrongly typed fields.
            {"kind": "induced", "order_set": {"kind": "multiples_of", "ells": 3}},
            {"kind": "induced", "order_set": {"kind": "multiples_of", "ells": ["3"]}},
            {"kind": "induced", "order_set": {"kind": "explicit_list", "values": [1.5]}},
            {"kind": "induced", "order_set": {"kind": "prime_list", "primes": 7}},
            {"kind": "induced", "order_set": {"kind": "complement_multiples_of",
                                              "ell": "3"}},
            {"kind": "induced", "order_set": {"kind": "ell_powers", "ell": [2]}},
            {"kind": "induced", "order_set": {"kind": "congruence_primes",
                                              "modulus": 3, "residues": 1}},
            {"kind": "induced", "order_set": {"kind": "omega_bounded", "r": True,
                                              "m": 6, "ell_set": {"kind": "list",
                                                                  "primes": [3]}}},
            {"kind": "induced", "order_set": {"kind": "multiples_of", "ell_set": {
                "kind": "congruence_primes", "modulus": None, "residues": [1]}}},
            {"kind": "explicit_finite", "primes": "3,7"},
            # List prime sources hold primes only.
            *({"kind": "induced", "order_set": {"kind": "multiples_of", "ell_set": {
                "kind": "list", "primes": bad}}} for bad in ([4], [1], [0], [-3])),
        ):
            with pytest.raises(ContractError):
                prime_set_from_json(spec)
