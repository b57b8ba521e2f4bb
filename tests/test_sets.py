import math
import random

import numpy as np
import pytest

from orbitgrowth.arith import SIEVE_BLOCK, sieve_primes
from orbitgrowth.errors import ContractError, InvariantViolation
from orbitgrowth.mersenne import primitive_primes
from orbitgrowth.sets import (
    ComplementMultiplesOf,
    CompositeNumbers,
    CongruencePrimes,
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
    entropy,
    estimate_density,
    has_factor_outside,
    inner_outer,
    mbar_of,
    omega_array,
    order_set_from_json,
    prime_set_from_json,
    s_mbar,
)


class TestMembership:
    def test_multiples(self):
        m = MultiplesOf(ells=[3], verify=False)
        assert m.contains(12)
        assert not m.contains(10)

    def test_composite_orders(self, orders):
        s = InducedPrimes(CompositeNumbers(verify=False))
        # m_7 = 3 and m_23 = m_89 = 11 are prime; m_5 = 4 is composite.
        assert not s.contains(7, orders)
        assert not s.contains(23, orders)
        assert not s.contains(89, orders)
        assert s.contains(5, orders)

    def test_ell_power_orders(self, orders):
        s = InducedPrimes(EllPowers(3, verify=False))
        assert s.contains(73, orders)  # m_73 = 9
        assert not s.contains(5, orders)

    def test_two_never_member(self, orders):
        assert not ExplicitFinitePrimes([2, 3]).contains(2)
        assert not InducedPrimes(MultiplesOf(ells=[2], verify=False)).contains(2, orders)

    def test_indicator_matches_scalar(self):
        specs = [
            MultiplesOf(ells=[3, 5], verify=False),
            ComplementMultiplesOf(3, verify=False),
            CompositeNumbers(verify=False),
            PrimeNumbers(verify=False),
            EllPowers(3, verify=False),
            SquarefreeAugmented(MultiplesOf(ells=[3], verify=False), verify=False),
            CongruencePrimes(3, [1], verify=False),
            OmegaBounded(2, CongruenceSource(4, [1, 3]), 12, verify=False),
            OmegaBounded(1, ListSource([3, 5, 7]), 4, verify=False),
            ExplicitList([1, 2, 6, 28, 500], verify=False),
            PrimeList([2, 3, 5, 7, 499], verify=False),
            MultiplesOf(ell_set=CongruenceSource(3, [1]), verify=False),
            MultiplesOf(ell_set=ListSource([5, 11, 499]), verify=False),
        ]
        for spec in specs:
            ind = spec.indicator(500)
            for n in range(1, 501):
                assert bool(ind[n]) == spec.contains(n), (spec.kind, n)

    def test_omega_bounded_indicator_across_blocks(self):
        # The blockwise indicator equals the whole-array formula it replaced.
        limit = 2 * SIEVE_BLOCK + 77
        for oset in (OmegaBounded(2, CongruenceSource(4, [1, 3]), 12, verify=False),
                     OmegaBounded(1, ListSource([3, 5, 7]), 4, verify=False)):
            idx = np.arange(limit + 1, dtype=np.int64)
            q = np.ones(limit + 1, dtype=np.int64)
            q[1:] = idx[1:] // np.gcd(idx[1:], oset.m)
            expect = ((omega_array(limit)[q] > oset.r)
                      | has_factor_outside(oset.ell_set, limit)[q])
            expect[0] = False
            assert np.array_equal(oset.indicator(limit), expect)


class TestClosureFlags:
    def test_multiples_closed(self):
        m = MultiplesOf(ells=[3])
        assert m.closure_report.nat_multiplication_ok
        assert m.closure_report.lcm_ok

    def test_squarefree_augmented_closed(self):
        s = SquarefreeAugmented(MultiplesOf(ells=[3], verify=False))
        assert s.closed_under_nat_multiplication
        assert s.closure_report.nat_multiplication_ok

    def test_ell_powers_witness(self):
        e = EllPowers(3)
        assert e.closure_report.lcm_ok
        a, b = e.closure_report.nat_witness
        assert e.contains(a) and not e.contains(a * b)

    def test_complement_witness(self):
        c = ComplementMultiplesOf(3)
        assert c.closure_report.lcm_ok
        a, b = c.closure_report.nat_witness
        assert c.contains(a) and not c.contains(a * b)

    def test_omega_bounded_closed(self):
        o = OmegaBounded(2, CongruenceSource(3, [1]), 6)
        assert o.closure_report.nat_multiplication_ok
        assert o.closure_report.lcm_ok


class TestCorrespondence:
    def test_s_of_m_of_s_contains_s(self, orders):
        rng = random.Random(0)
        from orbitgrowth.arith import sieve_primes

        pool = [int(p) for p in sieve_primes(10**4).primes[1:]]
        for _ in range(100):
            s = rng.sample(pool, rng.randint(1, 6))
            m_s = sorted({orders.order(p) for p in s})
            induced = InducedPrimes(ExplicitList(m_s, verify=False))
            assert all(induced.contains(p, orders) for p in s)

    def test_induced_idempotent(self, orders):
        # S_{M_{S_M}} = S_M: membership agrees on a prime sample.
        base = InducedPrimes(MultiplesOf(ells=[3], verify=False))
        sample = [3, 5, 7, 73, 233, 331, 4051]
        m_realized = sorted({orders.order(p) for p in sample if base.contains(p, orders)})
        again = InducedPrimes(ExplicitList(m_realized, verify=False))
        for p in sample:
            if base.contains(p, orders):
                assert again.contains(p, orders)

    def test_m_of_s_m_drops_1_and_6(self, cache):
        rng = random.Random(1)
        for _ in range(20):
            values = sorted(rng.sample(range(1, 65), rng.randint(1, 8)))
            realized = [
                m for m in values if primitive_primes(m, cache)
            ]
            assert realized == [m for m in values if m not in (1, 6)]

    def test_inner_outer_single_member(self, orders, cache):
        inner, outer = inner_outer(ExplicitFinitePrimes([233]), orders, cache)
        assert inner.order_set.values == ()
        assert outer.order_set.values == (29,)

    def test_inner_outer_full_class(self, orders, cache):
        inner, outer = inner_outer(
            ExplicitFinitePrimes([233, 1103, 2089]), orders, cache
        )
        assert inner.order_set.values == (29,)
        assert outer.order_set.values == (29,)

    def test_inner_outer_empty(self, orders, cache):
        inner, outer = inner_outer(ExplicitFinitePrimes([]), orders, cache)
        assert inner.order_set.values == () and outer.order_set.values == ()


class TestMbar:
    def test_explicit(self):
        assert mbar_of(12, ExplicitList([2, 3], verify=False)) == 6

    def test_coprime_gives_unit(self):
        assert mbar_of(35, ExplicitList([2, 3], verify=False)) == 1

    def test_ell_powers(self, cache):
        oset = EllPowers(3, verify=False)
        assert mbar_of(18, oset) == 9
        assert set(s_mbar(9, oset, cache)) == {7, 73}


class TestDensity:
    def test_multiples_of_3(self, table_1e6, orders):
        est = estimate_density(
            InducedPrimes(MultiplesOf(ells=[3], verify=False)), 10**6, table_1e6
        )
        assert abs(est.ratio - 3 / 8) < 0.02

    def test_multiples_of_2(self, table_1e6, orders):
        est = estimate_density(
            InducedPrimes(MultiplesOf(ells=[2], verify=False)), 10**6, table_1e6
        )
        assert abs(est.ratio - 17 / 24) < 0.02

    def test_explicit_finite_vanishes(self, table_1e6):
        est = estimate_density(ExplicitFinitePrimes([3, 7]), 10**6, table_1e6)
        assert est.member_count == 2
        assert est.ratio < 1e-4

    def test_complement_multiples_density(self, table_1e6, orders):
        # density of {p : 3 does not divide m_p} is 1 - 3/8 = 5/8
        est = estimate_density(
            InducedPrimes(ComplementMultiplesOf(3, verify=False)), 10**6, table_1e6
        )
        assert abs(est.ratio - 5 / 8) < 0.02

    def test_ell_2_complement_is_not_the_odd_prime_formula(self, table_1e6):
        # {p : m_p odd} has density 1 - 17/24 = 7/24; the odd-prime product
        # formula would predict 1 - 2/3 = 1/3, which it visibly is not.
        # Empirical only: no exactness is claimed for the ell = 2 case.
        est = estimate_density(
            InducedPrimes(ComplementMultiplesOf(2, verify=False)), 10**6, table_1e6
        )
        assert abs(est.ratio - 7 / 24) < 0.02
        assert abs(est.ratio - 1 / 3) > 0.02

    @pytest.mark.parametrize("pset,members", [
        (InducedPrimes(MultiplesOf(ells=[3], verify=False)), 62),
        (ExplicitFinitePrimes([3, 7, 997, 1009, 2**127 - 1]), 3),
    ])
    def test_larger_table_counts_to_limit(self, pset, members):
        # A table sieved past the limit must not add primes beyond it.
        with_table = estimate_density(pset, 1000, sieve_primes(10**5))
        assert with_table == estimate_density(pset, 1000)
        assert (with_table.member_count, with_table.total_count) == (members, 167)

    def test_counts_match_scalar_orders(self, table_1e6, orders):
        # The bulk orders and the indicator gather against InducedPrimes.contains.
        limit = 20000
        for oset in (MultiplesOf(ells=[3], verify=False),
                     MultiplesOf(ell_set=CongruenceSource(3, [1]), verify=False),
                     OmegaBounded(2, CongruenceSource(4, [1]), 6, verify=False),
                     EllPowers(2, verify=False)):
            pset = InducedPrimes(oset)
            odd = [p for p in table_1e6.primes[1:].tolist() if p <= limit]
            members = sum(pset.contains(p, orders) for p in odd)
            est = estimate_density(pset, limit, table_1e6)
            assert (est.member_count, est.total_count) == (members, len(odd))

    def test_corrupted_bulk_orders_are_caught(self, table_1e6, monkeypatch):
        from orbitgrowth import sets

        real = sets.mult_orders
        monkeypatch.setattr(sets, "mult_orders",
                            lambda primes, table: 2 * real(primes, table))
        with pytest.raises(InvariantViolation, match="disagrees with mult_order"):
            estimate_density(InducedPrimes(MultiplesOf(ells=[3], verify=False)),
                             10**5, table_1e6)


class TestEntropy:
    def test_always_log_2(self):
        assert entropy(ExplicitFinitePrimes([])) == math.log(2)
        assert entropy(ExplicitFinitePrimes([3, 7])) == math.log(2)
        assert entropy(InducedPrimes(MultiplesOf(ells=[3], verify=False))) == math.log(2)


class TestJson:
    def test_roundtrip(self):
        specs = [
            MultiplesOf(ells=[3], verify=False),
            MultiplesOf(ell_set=CongruenceSource(3, [1]), verify=False),
            SquarefreeAugmented(ComplementMultiplesOf(5, verify=False), verify=False),
            OmegaBounded(2, CongruenceSource(4, [1]), 6, verify=False),
            ExplicitList([2, 3], verify=False),
        ]
        for spec in specs:
            clone = order_set_from_json(spec.to_json(), verify=False)
            for n in (1, 5, 12, 30, 49, 450):
                assert clone.contains(n) == spec.contains(n)

    def test_prime_set_roundtrip(self, orders):
        ps = prime_set_from_json({"kind": "explicit_finite", "primes": [3, 7]})
        assert ps.contains(3) and not ps.contains(5)
        ind = prime_set_from_json(
            {"kind": "induced", "order_set": {"kind": "multiples_of", "ells": [3]}},
            verify=False,
        )
        assert ind.contains(73, orders)

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
        ):
            with pytest.raises(ContractError):
                prime_set_from_json(spec)
