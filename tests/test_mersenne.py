import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from orbitgrowth import integers, mersenne
from orbitgrowth.errors import BudgetError, CacheMissError
from orbitgrowth.integers import (
    OrderTable,
    _pollard_pm1,
    cyclotomic_eval2,
    divisors,
    euler_phi,
)
from orbitgrowth.mersenne import (
    FactorCache,
    MersenneFactorization,
    factor_mersenne,
    primitive_primes,
)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestFactorization:
    def test_order_29_class(self, cache):
        fz = factor_mersenne(29, cache)
        assert fz.factors == ((233, 1), (1103, 1), (2089, 1))

    def test_unit(self, cache):
        assert factor_mersenne(1, cache).factors == ()

    def test_m11(self, cache):
        # 23 * 89 = 2047 by hand
        assert factor_mersenne(11, cache).factors == ((23, 1), (89, 1))

    def test_budget_exhausted_not_cached(self):
        fresh = FactorCache(load_seed=False)
        with pytest.raises(BudgetError) as err:
            factor_mersenne(101, fresh, budget=0.0)
        partial = err.value.partial
        assert partial.cofactors
        assert 101 not in fresh

    def test_budget_covers_recursion(self):
        # 2^137 - 1 is beyond rho at desk scale, so splitting it for the
        # divisor 137 of 274 runs out of time; the partial is the outer m's.
        t0 = time.monotonic()
        with pytest.raises(BudgetError) as err:
            factor_mersenne(274, FactorCache(), budget=0.2)
        assert time.monotonic() - t0 < 2.0
        partial = err.value.partial
        assert partial.m == 274
        prod = 1
        for p, e in partial.factors.items():
            prod *= p**e
        for c in partial.cofactors:
            prod *= c
        assert prod == (1 << 274) - 1

    def test_pm1_splits_139_within_budget(self):
        # 5625767248687 - 1 = 2 * 3^2 * 13 * 37 * 53 * 139 * 193 * 457 is
        # 10^4-smooth, so p - 1 finds it where rho alone ran out of time.
        fz = factor_mersenne(139, FactorCache(), budget=1.0)
        assert fz.factors == ((5625767248687, 1),
                              (123876132205208335762278423601, 1))

    def test_pm1_no_split_on_137(self):
        # Neither prime of 2^137 - 1 has a 10^4-smooth p - 1: g = 1.
        assert _pollard_pm1((1 << 137) - 1, 274, math.inf) is None

    def test_pm1_stage2_splits_143(self):
        # The primitive part of 2^143 - 1 past trial division is
        # 158822951431 * 5782172113400990737, and 158822951431 - 1 =
        # 2 * 3 * 5 * 11 * 13 * 43 * 860969: stage 1 misses 860969, a prime
        # in (PM1_BOUND, PM1_BOUND2], and stage 2 finds it.
        n = 158822951431 * 5782172113400990737
        assert _pollard_pm1(n, 286, math.inf) == 158822951431
        assert math.gcd(pow(3, 286 * integers._pm1_exponent, n) - 1, n) == 1

    def test_pm1_deadline_inside_stage2(self, monkeypatch):
        # The clock reads 0 at the stage-1 check and 10 at the first
        # stage-2 check, past the deadline 1.
        n = 158822951431 * 5782172113400990737
        readings = []

        def monotonic():
            readings.append(0.0 if not readings else 10.0)
            return readings[-1]

        monkeypatch.setattr(integers, "time", SimpleNamespace(monotonic=monotonic))
        with pytest.raises(BudgetError) as err:
            integers.factor_by_trial(3 * n, [3], 286, 1.0)
        assert "deadline passed" in str(err.value)
        assert readings == [0.0, 10.0]
        assert err.value.partial == ({3: 1}, [n])

    def test_pm1_stage2_stops_at_first_split(self, monkeypatch):
        # The primitive piece of 2^142 - 1 past trial division: 56409643 - 1
        # = 2 * 3^3 * 71 * 14713, and 14713 is in the first stage-2 segment,
        # so p - 1 returns after the stage-1 check and one segment's check.
        checks = []

        def monotonic():
            checks.append(0.0)
            return 0.0

        monkeypatch.setattr(integers, "time", SimpleNamespace(monotonic=monotonic))
        assert _pollard_pm1(56409643 * 13952598148481, 284, math.inf) == 56409643
        assert len(checks) == 2

    def test_pm1_gcd_n_falls_back_to_rho(self):
        # Both primes of 2^67 - 1 have a p - 1 that divides 134 E, so
        # g = n, p - 1 gives no split and rho finds the factors.
        n = (1 << 67) - 1
        assert _pollard_pm1(n, 134, math.inf) is None
        assert pow(3, 134 * integers._pm1_exponent, n) == 1
        fz = factor_mersenne(67, FactorCache(load_seed=False))
        assert fz.factors == ((193707721, 1), (761838257287, 1))

    def test_prime_primitive_part_is_not_trial_divided(self, cache, monkeypatch):
        # The primitive parts of 2^127 - 1, 2^129 - 1 and 2^133 - 1 are
        # prime, so no trial candidate is drawn for them; 2^131 - 1 = 263 *
        # a prime draws 263 and stops there.  Drawn candidates by m = k / 2.
        drawn = {}
        real = mersenne.factor_by_trial

        def counting(n, cands, k, *rest):
            seen = drawn.setdefault(k // 2, [])
            return real(n, (seen.append(p) or p for p in cands), k, *rest)

        monkeypatch.setattr(mersenne, "factor_by_trial", counting)
        assert factor_mersenne(127, None) == cache.get(127)
        for m in (129, 133):
            fz = factor_mersenne(m, None)
            assert math.prod(p**e for p, e in fz.factors) == (1 << m) - 1
            assert all(integers.is_probable_prime(p) for p in fz.primes())
        assert [drawn.get(m, []) for m in (127, 129, 133)] == [[], [], []]
        assert factor_mersenne(131, None).factors == ((263, 1), (((1 << 131) - 1) // 263, 1))
        assert drawn[131] == [263]

    def test_product_check_rejects_bad_entry(self):
        with pytest.raises(Exception):
            MersenneFactorization(m=11, factors=((23, 1), (97, 1)))

    def test_certified_is_the_largest_prime_below_the_proven_bound(self, cache):
        # 2^89 - 1 is a prime past MR_PROVEN_BOUND; 2^1 - 1 has no prime.
        assert [cache.get(m).certified for m in (1, 60, 89)] == [True, True, False]
        for m in range(1, 129):
            fz = cache.get(m)
            assert fz.certified == all(p < integers.MR_PROVEN_BOUND for p in fz.primes())


class TestCache:
    def test_seed_complete_and_verified(self, cache):
        assert cache.exponents() == list(range(1, 129))
        for m in (29, 64, 127, 128):
            fz = cache.get(m)
            prod = 1
            for p, e in fz.factors:
                prod *= p**e
            assert prod == (1 << m) - 1

    def test_seed_from_scratch(self, cache):
        # The packaged entries for 65..128 as this engine factors them with
        # no seed; m <= 64 is test_tools' regeneration check, and 2^101 - 1
        # (two primes of 43 and 59 bits, no trial divisor) is rho-bound at
        # about 4 s.
        fresh = FactorCache(load_seed=False)
        for m in range(65, 129):
            if m != 101:
                assert factor_mersenne(m, fresh) == cache.get(m), m

    def test_miss(self, cache):
        with pytest.raises(CacheMissError):
            cache.get(500)

    def test_corrupt_line_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"m": 11, "factors": [[23, 1], [97, 1]]}\n')
        with pytest.raises(ValueError, match="line 1"):
            FactorCache(path=str(path), load_seed=False)

    def test_append_flush_roundtrip(self, tmp_path):
        path = tmp_path / "user.jsonl"
        c1 = FactorCache(path=str(path), load_seed=False)
        fz = factor_mersenne(11, c1)
        assert c1.flush() == 1
        c2 = FactorCache(path=str(path), load_seed=False)
        assert c2.get(11).factors == fz.factors
        line = json.loads(path.read_text().splitlines()[0])
        assert line == {"m": 11, "factors": [[23, 1], [89, 1]]}

    def test_torn_final_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"m": 11, "factors": [[23, 1], [89, 1]]}\n'
                        '{"m": 130, "fac')
        c = FactorCache(path=str(path), load_seed=False)
        assert c.torn_lines == 1
        assert c.exponents() == [11]

    def test_unterminated_valid_line_is_torn(self, tmp_path):
        # Without its newline a line may be cut short, so it is not trusted.
        path = tmp_path / "torn.jsonl"
        path.write_text('{"m": 11, "factors": [[23, 1], [89, 1]]}')
        c = FactorCache(path=str(path), load_seed=False)
        assert c.torn_lines == 1
        assert c.exponents() == []

    def test_flush_after_torn_line_cuts_it_off(self, tmp_path):
        # Appending after the torn fragment would make one complete but
        # malformed line, and every later load would fail on it.
        path = tmp_path / "torn.jsonl"
        good = '{"m":11,"factors":[[23,1],[89,1]]}\n'
        path.write_text('{"m": 3, "factors": [[7, 1]]}\n{"m": 130, "fac')
        c = FactorCache(path=str(path), load_seed=False)
        factor_mersenne(11, c)
        assert c.flush() == 1
        assert path.read_text() == '{"m": 3, "factors": [[7, 1]]}\n' + good
        again = FactorCache(path=str(path), load_seed=False)
        assert again.exponents() == [3, 11] and again.torn_lines == 0

    def test_concurrent_appenders_write_whole_lines(self, tmp_path):
        # Three processes flush one entry at a time onto the same overlay.
        path = tmp_path / "shared.jsonl"
        script = (
            "import sys\n"
            "from orbitgrowth.mersenne import FactorCache\n"
            "seed = FactorCache()\n"
            "c = FactorCache(path=sys.argv[1], load_seed=False)\n"
            "for m in range(int(sys.argv[2]), int(sys.argv[3])):\n"
            "    c.put(seed.get(m))\n"
            "    assert c.flush() == 1\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        procs = [subprocess.Popen([sys.executable, "-c", script, str(path), lo, hi],
                                  env=env)
                 for lo, hi in (("1", "44"), ("44", "87"), ("87", "129"))]
        assert [p.wait(timeout=120) for p in procs] == [0, 0, 0]
        text = path.read_text()
        assert text.endswith("\n") and len(text.splitlines()) == 128
        c = FactorCache(path=str(path), load_seed=False)
        assert c.torn_lines == 0 and c.exponents() == list(range(1, 129))

    def test_flush_writes_batch_in_one_call(self, tmp_path, monkeypatch):
        from orbitgrowth import mersenne

        writes = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            real_write = fh.write
            fh.write = lambda text: writes.append(text) or real_write(text)
            return fh

        monkeypatch.setattr(mersenne, "open", recording_open, raising=False)
        path = tmp_path / "user.jsonl"
        c = FactorCache(path=str(path), load_seed=False)
        factor_mersenne(11, c)
        factor_mersenne(13, c)
        assert c.flush() == 2
        assert len(writes) == 1
        monkeypatch.undo()
        assert FactorCache(path=str(path), load_seed=False).exponents() == [11, 13]


def primitive_product(n: int, cache) -> int:
    """(2^n - 1)^*, the product of the primes of order exactly n with their
    exponents."""
    return math.prod(p**e for p, e in primitive_primes(n, cache))


class TestPrimitive:
    def test_zsigmondy_exceptions(self, cache):
        assert primitive_primes(1, cache) == frozenset()
        assert primitive_primes(6, cache) == frozenset()

    def test_order_29(self, cache):
        assert {p for p, _ in primitive_primes(29, cache)} == {233, 1103, 2089}

    def test_m4(self, cache):
        assert primitive_primes(4, cache) == frozenset({(5, 1)})

    def test_zsigmondy_full_range(self, cache):
        empty = [m for m in range(1, 129) if not primitive_primes(m, cache)]
        assert empty == [1, 6]

    def test_primitive_part_examples(self, cache):
        assert primitive_product(6, cache) == 1
        assert primitive_product(11, cache) == 2047
        assert primitive_product(4, cache) == 5

    def test_primitive_part_vs_cyclotomic(self, cache):
        # (2^n - 1)^* = Phi_n(2) / gcd(Phi_n(2), n) >= Phi_n(2) / n: by Bang
        # and Zsigmondy, besides the primes of order n, Phi_n(2) holds at
        # most the largest prime of n, once, and the gcd is it.  The exact
        # series remove an induced set's primes by this identity.
        for n in range(1, 129):
            phi = cyclotomic_eval2(n)
            assert primitive_product(n, cache) == phi // math.gcd(phi, n), n

    def test_valuation_bound_at_primitive_set(self, cache):
        # |2^n - 1|_S <= n / 2^(phi(n) - 2) for S containing the class of n:
        # equivalently n * (2^n - 1)^* >= 2^(phi(n) - 2).
        for n in range(2, 65):
            assert n * primitive_product(n, cache) >= 1 << max(euler_phi(n) - 2, 0)

    def test_multiple_primitive_primes_exist(self, cache):
        multi = [m for m in range(2, 65) if len(primitive_primes(m, cache)) >= 2]
        assert len(multi) >= 1

    def test_exponent_consistency_with_lifting(self, cache):
        # cached exponent of p in 2^m - 1 equals e_p + ord_p(m)
        from orbitgrowth.integers import ord_p

        orders = OrderTable()
        for m in range(2, 129):
            for p, e in cache.get(m).factors:
                if p > 10**6:
                    continue
                assert e == orders.exponent(p) + ord_p(m, p)

    def test_class_from_its_own_line(self, cache):
        # The order test needs the line of m alone, not those of its divisors.
        alone = FactorCache(load_seed=False)
        alone.put(cache.get(60))
        assert primitive_primes(60, alone) == primitive_primes(60, cache)
        assert alone.exponents() == [60]

    def test_matches_divisor_walk(self, cache):
        # The primes of 2^m - 1 that divide no 2^d - 1 with d | m, d < m.
        for m in range(1, 129):
            earlier = {p for d in divisors(m)[:-1] for p in cache.get(d).primes()}
            walk = {(p, e) for p, e in cache.get(m).factors if p not in earlier}
            assert primitive_primes(m, cache) == walk, m

    def test_order_class_registers(self, cache, empty_orders, count_orders):
        # The class goes into the process's order memo, which then answers
        # m_p and e_p of its members without computing an order.
        members = primitive_primes(29, cache)
        assert dict(members) == {233: 1, 1103: 1, 2089: 1}
        assert [empty_orders.order(p) for p, _ in sorted(members)] == [29] * 3
        assert [empty_orders.exponent(p) for p, _ in sorted(members)] == [1] * 3
        assert count_orders == []
