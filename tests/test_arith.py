import math
import random
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitgrowth import integers
from orbitgrowth.arith import (
    PRIME_WALK_BLOCK,
    SIEVE_BLOCK,
    SIEVE_CAPACITY,
    PrimeTable,
    _STRIKE_CUT,
    _pow_mod,
    mult_orders,
    sieve_primes,
)
from orbitgrowth.errors import BudgetError, CapacityError
from orbitgrowth.integers import (
    MR_PROVEN_BOUND,
    TRIAL_LIMIT,
    OrderTable,
    cyclotomic_eval2,
    divisors,
    euler_phi,
    factor_by_trial,
    factorize,
    is_probable_prime,
    moebius,
    mult_order,
    ord_p,
    ord_p_mersenne,
    progression_segments,
)
from orbitgrowth.sets import prime_mask


def mersenne_valuation(p: int, n: int) -> int:
    """Independent oracle: ord_p(2^n - 1), dividing the big integer out."""
    value, e = (1 << n) - 1, 0
    while value % p == 0:
        value //= p
        e += 1
    return e


def next_prime_from(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def trial_division_prime_count(limit: int) -> int:
    """Independent oracle: count primes <= limit by bare trial division."""
    count = 0
    for n in range(2, limit + 1):
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                break
        else:
            count += 1
    return count


def least_factor_by_trial_division(n: int) -> int:
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return d
    return n


def least_factor_reference(limit: int) -> np.ndarray:
    """Independent whole-table oracle: an ascending int64 sieve that only
    writes entries no smaller prime has claimed."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    unmarked = np.flatnonzero(spf == 0)
    unmarked = unmarked[unmarked >= 2]
    spf[unmarked] = unmarked
    return spf


# Residues of the n prime to 30: entry i of the least-factor table is for
# n = 30 (i >> 3) + WHEEL[i & 7].
WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)
# The first sieving prime above the cut strikes the whole table from the
# limit that is its square on.
WHOLE_TABLE_FROM = next_prime_from(_STRIKE_CUT + 1) ** 2
# The n of the first strike-block edge: SIEVE_BLOCK entries, 8 for each 30 n.
EDGE = 30 * SIEVE_BLOCK // 8


class TestSieve:
    # Blocks hold SIEVE_BLOCK entries for the n prime to 30, so their edges
    # sit at n = 30 k SIEVE_BLOCK / 8: EDGE - 1 and EDGE fill one block
    # exactly, EDGE + 1 and + 7 end just past the first edge.  prime_mask,
    # compared below, sieves pieces of sets.WINDOW = SIEVE_BLOCK / 2
    # integers, so the piece edges n = 2 k SIEVE_BLOCK are probed too;
    # 4 SIEVE_BLOCK + 7 and + 8 end just past the second of those, odd and
    # even.
    @pytest.mark.parametrize("limit", [2, 3, 4, 9, 10, 11, SIEVE_BLOCK - 1,
                                       SIEVE_BLOCK, SIEVE_BLOCK + 1,
                                       2 * SIEVE_BLOCK - 1, 2 * SIEVE_BLOCK,
                                       2 * SIEVE_BLOCK + 1, 4 * SIEVE_BLOCK + 7,
                                       4 * SIEVE_BLOCK + 8] + [
        EDGE + d for d in (-30, -29, -2, -1, 0, 1, 7, 29, 30)] + [
        WHOLE_TABLE_FROM + d for d in (-1, 0, 1, 30)])
    def test_least_factor_across_blocks(self, limit):
        table = sieve_primes(limit)
        spf = table.smallest_factor
        assert spf.dtype == np.uint16 and table.primes.dtype == np.int32
        assert spf.shape == (8 * (limit // 30) + sum(r <= limit % 30 for r in WHEEL),)
        n = np.arange(2, limit + 1)
        # Two bytes for each n <= limit prime to 30, n = 1 included.
        assert spf.nbytes == 2 * (1 + np.count_nonzero(np.gcd(n, 30) == 1))
        least = table.least_factors(n)
        # Scalar trial division on every n near a block edge and the top.
        edges = sorted(set(range(0, limit + 1, 2 * SIEVE_BLOCK))
                       | set(range(0, limit + 1, EDGE)) | {limit})
        probe = {k for edge in edges for k in range(edge - 200, edge + 40)}
        for k in sorted(k for k in probe if 2 <= k <= limit):
            expect = least_factor_by_trial_division(k)
            assert least[k - 2] == expect and table.least_factor(k) == expect, k
        assert np.array_equal(least, least_factor_reference(limit)[2:])
        assert np.array_equal(table.primes, n[least == n])
        assert np.array_equal(np.flatnonzero(prime_mask(0, limit + 1)), table.primes)

    # The walk that turns zero entries into primes steps PRIME_WALK_BLOCK
    # entries and the strike walk SIEVE_BLOCK, so the index-space edges sit
    # at n = 30 k PRIME_WALK_BLOCK / 8 and n = 30 k SIEVE_BLOCK / 8.
    WALK_EDGES = (30 * PRIME_WALK_BLOCK // 8, EDGE, 2 * EDGE)

    @pytest.mark.parametrize("limit", [2, 3, 4, 5, 25] + [
        edge + d for edge in WALK_EDGES
        for d in chain(range(-30, 0, 3), range(1, 31, 3), (-1, 30))])
    def test_primes_across_walk_edges(self, limit):
        primes = sieve_primes(limit).primes
        assert np.array_equal(primes, np.flatnonzero(prime_mask(0, limit + 1)))

    def test_least_factor_against_factorize(self):
        # Every n up to 10^5, and seeded n on both sides of each walk edge.
        reach = 3000
        table = sieve_primes(max(self.WALK_EDGES) + reach)
        rng = random.Random(2)
        near_edges = [edge + rng.randint(-reach, reach)
                      for edge in self.WALK_EDGES for _ in range(200)]
        for n in chain(range(2, 10**5 + 1), near_edges):
            assert table.least_factor(n) == min(factorize(n)), n

    def test_every_small_limit(self):
        # least_factors at x = limit reads past the table's last entry when
        # limit has a factor 2, 3 or 5; the answer must still be right.  To
        # 300, so every residue mod 30 is the top of some table.
        for limit in range(2, 301):
            table = sieve_primes(limit)
            expect = [least_factor_by_trial_division(k) for k in range(2, limit + 1)]
            assert table.least_factors(np.arange(2, limit + 1)).tolist() == expect
            assert [table.least_factor(k) for k in range(2, limit + 1)] == expect
            assert table.primes.tolist() == [k for k in range(2, limit + 1)
                                             if least_factor_by_trial_division(k) == k]

    def test_least_factors_on_uint64(self, table_1e6):
        # mult_orders passes uint64 chunks, and the odd parts of p - 1 it
        # factors include multiples of 3 and 9, and of 5 but not 3, which
        # the table holds no entry for either.
        x = np.array([3, 9, 15, 21, 45, 81, 999999, 999997, 5, 7, 49, 961,
                      25, 35, 125, 245, 999995], dtype=np.uint64)
        least = table_1e6.least_factors(x)
        assert least.dtype == np.uint64
        assert least.tolist() == [least_factor_by_trial_division(int(k)) for k in x]

    def test_small(self):
        assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]

    def test_smallest_case(self):
        assert sieve_primes(2).primes.tolist() == [2]

    def test_count_oracle_small(self):
        assert len(sieve_primes(10**4).primes) == trial_division_prime_count(10**4)

    def test_count_1e6(self, table_1e6):
        # 78498 frozen from a trial_division_prime_count(10**6) oracle run
        # at build time (the live oracle above covers 10**4).
        assert len(table_1e6.primes) == 78498

    def test_capacity(self):
        with pytest.raises(CapacityError):
            sieve_primes(10**9)
        with pytest.raises(CapacityError):
            sieve_primes(1)

    def test_least_factor(self, table_1e6):
        assert table_1e6.least_factor(91) == 7
        assert table_1e6.least_factor(97) == 97
        assert factorize(360) == {2: 3, 3: 2, 5: 1}


class TestMultOrder:
    def test_paper_anchor(self):
        # three primes share order 29
        assert mult_order(233) == 29
        assert mult_order(1103) == 29
        assert mult_order(2089) == 29

    @pytest.mark.parametrize("p,m", [(3, 2), (7, 3), (5, 4), (31, 5), (73, 9)])
    def test_small_orders(self, p, m):
        assert mult_order(p) == m
        # direct power iteration oracle
        x, k = 2 % p, 1
        while x != 1:
            x = 2 * x % p
            k += 1
        assert k == m

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mult_order(4)
        with pytest.raises(ValueError):
            mult_order(91)
        with pytest.raises(ValueError):
            mult_order(2)

    def test_divides_p_minus_1_bulk(self, table_1e6):
        primes = table_1e6.primes[1:]
        orders = mult_orders(primes, table_1e6)
        for p, m in zip(primes.tolist(), orders.tolist()):
            assert (p - 1) % m == 0

    def test_order_at_least_log2(self, table_1e6):
        primes = table_1e6.primes[1:2000]
        orders = mult_orders(primes, table_1e6)
        for p, m in zip(primes.tolist(), orders.tolist()):
            assert m >= math.log2(p)


class TestMultOrders:
    def test_every_odd_prime_below_1e5(self):
        table = sieve_primes(10**5)
        primes = table.primes[1:]
        bulk = mult_orders(primes, table)
        assert bulk.dtype == np.int32
        assert bulk.tolist() == [mult_order(p) for p in primes.tolist()]

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_matches_scalar_on_sieve_draws(self, table_1e6, data):
        odd = table_1e6.primes[1:].tolist()
        if data is None:  # the ends of the table: 3 and the largest prime
            drawn = [odd[0], odd[-1]]
        else:
            drawn = data.draw(st.lists(st.sampled_from(odd), min_size=1, max_size=50))
        bulk = mult_orders(np.array(drawn, dtype=np.int64), table_1e6)
        assert bulk.tolist() == [mult_order(p) for p in drawn]

    def test_empty(self, table_1e6):
        assert mult_orders(np.array([], dtype=np.int64), table_1e6).size == 0

    def test_two_strip_and_climb(self, table_1e6):
        # 65537 = 2^16 + 1 and 40961 = 5 * 2^13 + 1 take a long 2-strip;
        # 163 = 2 * 3^4 + 1 and 1459 = 2 * 3^6 + 1 a long climb in q = 3.
        # Then seeded primes p = 1 mod 8 and p = 1 mod 9 below 10^6.
        odd = table_1e6.primes[1:]
        rng = np.random.default_rng(13)
        drawn = [65537, 40961, 163, 1459]
        for mod in (8, 9):
            pool = odd[odd % mod == 1]
            drawn += rng.choice(pool, size=200, replace=False).tolist()
        bulk = mult_orders(np.array(drawn, dtype=np.int64), table_1e6)
        assert bulk.tolist() == [mult_order(p) for p in drawn]

    @pytest.mark.parametrize("bad", [[2], [9], [4], [1000003]])
    def test_domain(self, table_1e6, bad):
        # 2 and composites are refused, as is a prime past the table.
        with pytest.raises(ValueError):
            mult_orders(np.array(bad, dtype=np.int64), table_1e6)

    @pytest.mark.parametrize("residue", [3, 5, 7])
    def test_two_part_from_p_mod_8(self, table_1e6, residue):
        # No climb on q = 2 here: 2^a || m_p at p = 3, 5 mod 8, and m_p is
        # odd at p = 7 mod 8.
        odd = table_1e6.primes[1:]
        pool = odd[odd % 8 == residue]
        drawn = np.random.default_rng(residue).choice(pool, size=200, replace=False)
        bulk = mult_orders(drawn, table_1e6)
        assert bulk.tolist() == [mult_order(p) for p in drawn.tolist()]

    def test_anchors(self, table_1e6):
        # Each class mod 8; 73 = 1 mod 8 has an odd order; and at the Fermat
        # primes 17, 257 and 65537 the climb on q = 2 ends far below p - 1.
        anchors = {3: 2, 5: 4, 7: 3, 17: 8, 73: 9, 257: 16, 65537: 32}
        bulk = mult_orders(np.array(list(anchors), dtype=np.int64), table_1e6)
        assert bulk.tolist() == list(anchors.values())
        assert bulk.tolist() == [mult_order(p) for p in anchors]

    def test_top_of_capacity(self):
        # The largest residues, whose doubled squares come closest to 2^63.
        table = sieve_primes(SIEVE_CAPACITY)
        top = table.primes[-64:]
        bulk = mult_orders(top, table)
        assert bulk.tolist() == [mult_order(p) for p in top.tolist()]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(2, 2**31 - 1), st.integers(0, 2**31),
                              st.integers(0, 2**31 - 2)), min_size=1, max_size=50))
    @example([(3, 0, 0), (3, 0, 2), (7, 5, 1), (2**31 - 1, 2**31, 1),
              (2**31 - 1, 2**31 - 1, 2**31 - 2), (5, 1, 0)])
    def test_pow_mod_matches_builtin_pow(self, rows):
        # (mod, exp, base) with base < mod, exp = 0 and base = 1 included;
        # base 0 too, where the blend's base - 1 wraps.
        mod, exp, base = (np.array(col, dtype=np.uint64) for col in zip(*rows))
        base %= mod
        got = _pow_mod(base, exp, mod)
        assert got.tolist() == [pow(int(b), int(e), int(m))
                                for b, e, m in zip(base, exp, mod)]

    def test_table_past_headroom(self):
        # Checked before any work: a table with no least factors cannot be
        # read, so any other failure would show as an IndexError.
        table = PrimeTable(limit=2**31, primes=np.array([2, 3], dtype=np.int32),
                           smallest_factor=np.zeros(0, dtype=np.uint16))
        with pytest.raises(CapacityError):
            mult_orders(np.array([3], dtype=np.int64), table)


class TestMoebiusPhi:
    def test_unit(self):
        assert moebius(1) == 1
        assert euler_phi(1) == 1

    def test_squareful(self):
        assert moebius(12) == 0
        assert euler_phi(12) == 4

    def test_three_primes(self):
        # 30 = 2 * 3 * 5 by hand
        assert moebius(30) == -1
        assert euler_phi(30) == 8

    def test_domain(self):
        with pytest.raises(ValueError):
            moebius(0)
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_phi_is_unit_group_order(self):
        for n in range(1, 200):
            units = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
            assert euler_phi(n) == units


class TestValuations:
    def test_examples(self):
        assert ord_p(63, 3) == 2
        assert ord_p(63, 5) == 0
        assert ord_p(3**7 * 2, 3) == 7

    def test_domain(self):
        with pytest.raises(ValueError):
            ord_p(0, 3)

    def test_mersenne_examples(self):
        assert ord_p_mersenne(3, 6) == 2      # ord_3(63)
        assert ord_p_mersenne(5, 3) == 0      # m_5 = 4 does not divide 3
        assert ord_p_mersenne(1093, 364) == 2  # Wieferich: e_p = 2

    def test_order_computed_once(self, empty_orders, count_orders):
        # The process's one memo keeps m_p across calls.
        assert [ord_p_mersenne(1093, n) for n in range(1, 101)] == [0] * 100
        assert ord_p_mersenne(23, 11) == 1
        assert ord_p_mersenne(23, 22) == 1
        assert count_orders == [1093, 23]

    def test_against_big_integer_oracle(self, table_1e6):
        primes = [int(p) for p in table_1e6.primes[1:100]]
        for p in primes:
            for n in range(1, 65):
                assert ord_p_mersenne(p, n) == mersenne_valuation(p, n)

    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(3, 999983).map(next_prime_from), n=st.integers(1, 400))
    @example(p=1093, n=364)  # the Wieferich primes, where e_p = 2
    @example(p=1093, n=364 * 1093)
    @example(p=3511, n=1755)
    @example(p=3511, n=1755 * 3511)
    def test_big_integer_oracle_on_draws(self, p, n):
        assert ord_p_mersenne(p, n) == mersenne_valuation(p, n)


class TestCyclotomic:
    def test_examples(self):
        assert cyclotomic_eval2(1) == 1
        assert cyclotomic_eval2(6) == 3
        assert cyclotomic_eval2(29) == 536870911  # prime index: 2^29 - 1

    def test_product_identity(self):
        for n in range(1, 201):
            prod = 1
            for d in divisors(n):
                prod *= cyclotomic_eval2(d)
            assert prod == (1 << n) - 1

    def test_lower_bound(self):
        for n in range(3, 201):
            assert cyclotomic_eval2(n) >= 1 << max(euler_phi(n) - 2, 0)

    def test_gcd_with_earlier_divides_n(self):
        for n in range(2, 201):
            phi_n = cyclotomic_eval2(n)
            earlier = ((1 << n) - 1) // phi_n
            assert n % math.gcd(phi_n, earlier) == 0


def forty_base_test(n: int) -> bool:
    """The test is_probable_prime replaces below MR_PROVEN_BOUND: trial
    division by the primes to 37, then all 40 bases."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    return integers._strong_probable_prime(n, integers._MR_BASES)


class TestPrimality:
    def test_matches_sieve_to_1e6(self):
        primes = set(sieve_primes(10**6).primes.tolist())
        assert [n for n in range(10**6 + 1)
                if is_probable_prime(n) != (n in primes)] == []

    def test_false_on_every_psi(self):
        # Each psi is a strong pseudoprime to the first k bases, which is
        # why n = psi takes more of them.
        for psi, k in integers._MR_PSI:
            assert integers._strong_probable_prime(psi, integers._MR_BASES[:k])
            assert not is_probable_prime(psi), psi

    def test_matches_forty_bases_on_seeded_draws(self):
        rng = random.Random(20261019)

        def prime_below(bound: int) -> int:
            n = rng.randrange(2, bound)
            while not forty_base_test(n):
                n = rng.randrange(2, bound)
            return n

        draws = []
        for bits in range(2, MR_PROVEN_BOUND.bit_length() + 1):
            bound = min(1 << bits, MR_PROVEN_BOUND)
            draws += [rng.randrange(bound // 2, bound) for _ in range(20)]
            draws += [prime_below(bound) for _ in range(5)]
            half = max(3, math.isqrt(bound))
            draws += [prime_below(half) * prime_below(half) for _ in range(5)]
        assert all(n < MR_PROVEN_BOUND for n in draws)
        assert [n for n in draws if is_probable_prime(n) != forty_base_test(n)] == []


class TestFactorize:
    def test_returns_a_new_dict(self):
        first = factorize(360)
        first[2] = 99
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(360) is not factorize(360)

    def test_small_n_factored_once(self, monkeypatch):
        monkeypatch.setattr(integers, "_factored", {})
        runs = []
        real = integers.factor_by_trial
        monkeypatch.setattr(integers, "factor_by_trial",
                            lambda n, *rest: runs.append(n) or real(n, *rest))
        below = integers.FACTOR_MEMO_BOUND - 1
        above = integers.FACTOR_MEMO_BOUND + 1
        assert integers.FACTOR_MEMO_BOUND > 10**4  # the exact-mode ceiling
        for n in (below, below, 9240, 9240):
            prod = 1
            for p, e in factorize(n).items():
                prod *= p**e
            assert prod == n
        assert runs == [below, 9240]
        assert factorize(above) == factorize(above) == {5: 1, 29: 1, 113: 1}
        assert runs == [below, 9240, above, above]

    def test_matches_recomposition(self):
        # Past the 10^5 table and trial division: two products that p - 1
        # takes whole (gcd n), so rho splits them, a composite square, a
        # cube that p - 1 splits into p and a square, and a product that
        # p - 1 splits.
        for n in (2**20 + 1, 10**12 + 39, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19,
                  100003 * 100019, (2**31 - 1) * (2**61 - 1), 100003**2,
                  100003**3, 5625767248687 * 1000000007):
            fac = factorize(n)
            prod = 1
            for p, e in fac.items():
                assert is_probable_prime(p)
                prod *= p**e
            assert prod == n

    def test_deadline_partial_multiplies_back(self, monkeypatch):
        monkeypatch.setattr(integers, "FACTORIZE_BUDGET", 0)
        n = 70 * (10**19 + 51) * (10**20 + 39)
        with pytest.raises(BudgetError) as err:
            factorize(n)
        assert "deadline passed" in str(err.value)
        factors, cofactors = err.value.partial
        assert factors == {2: 1, 5: 1, 7: 1}
        prod = 1
        for p, e in factors.items():
            prod *= p**e
        for c in cofactors:
            prod *= c
        assert prod == n

    def test_matches_least_factor_table(self):
        # The core's trial division against the array sieve's least-factor
        # table, key order included, on every n just past TRIAL_LIMIT.
        limit = TRIAL_LIMIT + 50
        table = sieve_primes(limit)
        for n in range(1, limit + 1):
            expect, rest = [], n
            while rest > 1:
                p = table.least_factor(rest)
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                expect.append((p, e))
            assert list(factorize(n).items()) == expect, n

    def test_trial_division_stops_at_a_prime_part(self):
        # 2^131 - 1 = 263 * a 124-bit prime: after 263 the part left is
        # prime, so no candidate past 263 is drawn.
        n = (1 << 131) - 1
        drawn = []
        candidates = chain.from_iterable(progression_segments(263, 10**7 + 1, 262))
        got = factor_by_trial(n, (drawn.append(p) or p for p in candidates),
                              262, math.inf)
        assert got == {263: 1, n // 263: 1}
        assert drawn == [263]

    def test_progression_sieve_matches_primality(self):
        # factor_by_trial needs every prime of the progression among its
        # candidates: one the sieve drops is missed by trial division.
        # Steps 2, 4 and 6 have the sieving primes 3, 5 and 7 as terms; most
        # steps share a prime with the sieving primes.
        for step in range(2, 401, 2):
            got = list(chain.from_iterable(progression_segments(1 + step, 20001, step)))
            assert got == [c for c in range(1 + step, 20001, step)
                           if is_probable_prime(c)], step

    def test_progression_sieve_across_segments(self):
        # Step 2 from 3 to 2 * 10^5 spans four sieve segments.
        got = list(chain.from_iterable(progression_segments(3, 200_001, 2)))
        assert got == [c for c in range(3, 200_001, 2) if is_probable_prime(c)]

    def test_progression_sieve_at_trial_steps(self):
        # factor_mersenne's trial progressions to 10^7 for m = 131, 143 and
        # 148 each end in a short tail segment, sieved from the offsets the
        # full segment before it stopped at; step 2 from 10^6 + 1 sets up
        # every sieving prime at a start inside the odd numbers' later
        # segments.
        primes = sieve_primes(10**7).primes
        for step in (262, 286, 148):
            got = list(chain.from_iterable(progression_segments(1 + step, 10**7 + 1, step)))
            assert got == primes[primes % step == 1].tolist(), step
        got = list(chain.from_iterable(progression_segments(10**6 + 1, 10**7 + 1, 2)))
        assert got == primes[primes > 10**6].tolist()

    def test_progression_sets_up_each_prime_once(self, monkeypatch):
        # Step 286 to 10^7 is a full segment and a tail: each sieving prime
        # to isqrt(10^7) but 2, 11 and 13 takes one pow for both.
        calls = []
        monkeypatch.setattr(integers, "pow", lambda *a: calls.append(a) or pow(*a),
                            raising=False)
        for segment in progression_segments(287, 10**7 + 1, 286):
            list(segment)
        assert len(calls) == len(integers._primes_to(math.isqrt(10**7))) - 3

    def test_order_table_exponent_lifting(self):
        # e_p = ord_p(2^{m_p} - 1); spot-check by direct division.
        orders = OrderTable()
        for p in (3, 5, 7, 23, 89, 233, 1093, 3511):
            m = orders.order(p)
            value = (1 << m) - 1
            e = 0
            while value % p == 0:
                value //= p
                e += 1
            assert orders.exponent(p) == e

    def test_wieferich_exponents(self):
        orders = OrderTable()
        assert orders.exponent(1093) == 2
        assert orders.exponent(3511) == 2
