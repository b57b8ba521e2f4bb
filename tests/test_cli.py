import argparse
import ast
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import orbitgrowth
from orbitgrowth import constants, fitting, integers
from orbitgrowth.arith import sieve_primes
from orbitgrowth.cli import build_parser, main
from orbitgrowth.constants import rn_recursion
from orbitgrowth.integers import mult_order

SRC = str(Path(orbitgrowth.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cold_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cold(*argv, timeout=60):
    """The CLI as a fresh process, as a user runs it."""
    return subprocess.run([sys.executable, "-m", "orbitgrowth.cli", *argv],
                          env=cold_env(), capture_output=True, text=True,
                          timeout=timeout)


class TestBasicCommands:
    def test_k_exact_flagship(self, capsys):
        code, out, _ = run(capsys, "k-exact", "--set", "3,7")
        assert code == 0
        assert out.strip() == "269/576"

    def test_order(self, capsys):
        code, out, _ = run(capsys, "order", "--prime", "233")
        assert code == 0
        assert out.strip() == "29"

    def test_series_exact_empty_set(self, capsys, tmp_path):
        spec = tmp_path / "empty.json"
        spec.write_text('{"kind": "explicit_finite", "primes": []}\n')
        code, out, _ = run(capsys, "series", "--spec", str(spec),
                           "--n-max", "4", "--mode", "exact")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "N,value,mode,bound_R,bound_Q"
        assert rows[-1].startswith("4,19/16,exact")

    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "--exponent", "29")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[0])
        assert payload["factors"] == [[233, 1], [1103, 1], [2089, 1]]
        assert payload["certified"] is True

    def test_set_density(self, capsys, tmp_path):
        spec = tmp_path / "set.json"
        spec.write_text('{"kind": "explicit_finite", "primes": [3, 7]}\n')
        code, out, _ = run(capsys, "set-density", "--spec", str(spec),
                           "--limit", "1000")
        assert code == 0
        payload = json.loads(out)
        assert payload["member_count"] == 2
        assert payload["total_count"] == 167  # odd primes <= 1000

    def test_sieve_csv(self, capsys, tmp_path):
        out_path = tmp_path / "primes.csv"
        code, out, _ = run(capsys, "sieve", "--limit", "10",
                           "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().splitlines() == ["2", "3", "5", "7"]

    def test_sieve_binary(self, capsys, tmp_path):
        import numpy as np

        out_path = tmp_path / "primes.bin"
        code, _, _ = run(capsys, "sieve", "--limit", "10",
                         "--out", str(out_path), "--format", "binary")
        assert code == 0
        assert np.fromfile(out_path, dtype="<u8").tolist() == [2, 3, 5, 7]

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_sieve_out_past_one_chunk(self, capsys, tmp_path, fmt):
        # 78499 primes, more than one 2^16 chunk of the streamed writer; the
        # file is the one the whole array would give.
        out_path = tmp_path / "primes"
        code, out, _ = run(capsys, "sieve", "--limit", "1000003",
                           "--out", str(out_path), "--format", fmt)
        assert code == 0
        assert out == f"primes <= 1000003: 78499\nwrote {out_path} ({fmt})\n"
        primes = sieve_primes(1000003).primes
        if fmt == "csv":
            expect = "".join(f"{p}\n" for p in primes.tolist()).encode()
        else:
            expect = primes.astype("<u8").tobytes()
        assert out_path.read_bytes() == expect

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        cache_path = tmp_path / "cache.jsonl"
        monkeypatch.setenv("ORBITGROWTH_CACHE", str(cache_path))
        code, _, _ = run(capsys, "factor", "--exponent", "29")
        assert code == 0
        # 29 is in the seed, so nothing new is written ...
        assert not cache_path.exists() or not cache_path.read_text()
        code, out, _ = run(capsys, "factor", "--exponent", "139",
                           "--budget", "60")
        assert code == 0
        # ... but a fresh exponent lands in the env-pointed file.
        written = [json.loads(ln) for ln in cache_path.read_text().splitlines()]
        assert any(entry["m"] == 139 for entry in written)

    def test_greedy_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, out, _ = run(capsys, "greedy", "--target", "3/4",
                           "--eps", "1/10", "--trace", str(trace_path))
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert payload["terminal"] is True
        assert payload["chosen"] == [5]

    def test_series_transcendental(self, capsys):
        code, out, _ = run(capsys, "series-transcendental",
                           "--ell", "3", "--terms", "2")
        assert code == 0
        assert "value 25/36" in out

    def test_construct_rn(self, capsys):
        code, out, _ = run(capsys, "construct", "rn", "--delta", "1/2",
                           "--y", "50", "--n-max", "12",
                           "--mode", "perturbed", "--sign", "alternating")
        assert code == 0
        assert "ratio=True sandwich=True intervals=True f-bound=True" in out

    def test_construct_rn_columns_aligned(self, capsys):
        # Header and rows end each column at the same offset, also where a
        # value takes all 23 characters of 18 significant digits.
        code, out, _ = run(capsys, "construct", "rn", "--delta", "1/2",
                           "--n-max", "12", "--mode", "perturbed")
        assert code == 0
        table = out.splitlines()[1:-1]
        ends = [[m.end() for m in re.finditer(r"\S+(?: \S+)*", line)]
                for line in table]
        assert len(table) == 10 and "0.000940986202162837028" in out
        assert all(e == ends[0] for e in ends), ends

    def test_reproduce_section9(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--theorem", "section9")
        assert code == 0
        assert out.startswith("PASS")


class TestPipelines:
    def test_series_to_fit_roundtrip(self, capsys, tmp_path):
        spec = tmp_path / "mult3.json"
        spec.write_text(
            '{"kind": "induced", "order_set": '
            '{"kind": "multiples_of", "ells": [3]}}\n'
        )
        csv_path = tmp_path / "series.csv"
        code, _, _ = run(capsys, "series", "--spec", str(spec),
                         "--n-max", "1000000", "--mode", "dominant",
                         "--out", str(csv_path))
        assert code == 0
        report_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "fit", "--in", str(csv_path),
                           "--model", "k_log", "--out", str(report_path))
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["model"] == "k_log"
        assert abs(payload["k"] - 2 / 3) < 0.01

    def test_construct_seed_any_integer(self, capsys):
        # --seed reaches random.Random, which takes negative seeds and seeds
        # past int64, and the same seed gives the same bytes.
        for seed in ("-1", "0", str(2**70)):
            outs = []
            for _ in range(2):
                code, out, err = run(capsys, "construct", "rn", "--delta", "1/2",
                                     "--n-max", "10", "--mode", "perturbed",
                                     "--sign", "random", "--seed", seed)
                assert code == 0, err
                outs.append(out)
            assert outs[0] == outs[1], seed

    def test_byte_identical_outputs(self, capsys):
        _, out1, _ = run(capsys, "k-exact", "--set", "3,7")
        _, out2, _ = run(capsys, "k-exact", "--set", "3,7")
        assert out1 == out2
        _, r1, _ = run(capsys, "construct", "rn", "--delta", "1/2",
                       "--n-max", "10", "--mode", "perturbed",
                       "--sign", "random", "--seed", "5")
        _, r2, _ = run(capsys, "construct", "rn", "--delta", "1/2",
                       "--n-max", "10", "--mode", "perturbed",
                       "--sign", "random", "--seed", "5")
        assert r1 == r2


class TestConstructOut:
    # sha256 of `construct rn --delta 1/2 --out F` files: the exact values
    # and the file format are a contract.
    DIGESTS = {
        ("perturbed", "41", "plus"):
            "0ec49d72598750a9089e7bf929659306b5dcbb15d366ea1cf8a8dca7129c2f0c",
        ("perturbed", "41", "minus"):
            "226111d65fa168144350a4ac39485a457f4cb71c28fbe28bc286aa025191879e",
        ("perturbed", "41", "alternating"):
            "8ee378e93cdd6d69853ba8e0ee7f03532582129f44840b44644c37459ed3bbe6",
        ("perturbed", "41", "random"):
            "e903945bfda8e5f6e8a8611ef0d3618ea840287fff2ddbc1bdb6f907e0b277c5",
        ("idealized", "56", "plus"):
            "f9d77d23c7c3768170d2b3512e5f166a239e2b104290a5ff0ef56866f2c60b2b",
    }

    @pytest.mark.parametrize("mode, n_max, sign", sorted(DIGESTS))
    def test_out_file_is_pinned(self, capsys, tmp_path, mode, n_max, sign):
        out = tmp_path / "rn.json"
        code, _, err = run(capsys, "construct", "rn", "--delta", "1/2", "--mode", mode,
                           "--n-max", n_max, "--sign", sign, "--out", str(out))
        assert code == 0, err
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.DIGESTS[mode, n_max, sign]

    @pytest.mark.parametrize("n_max", [42, 48])
    def test_out_past_the_digit_limit(self, capsys, tmp_path, n_max):
        # From n_max 42 on the exact values have more than 4300 digits, the
        # interpreter's default int-to-str limit; the dump lifts it and puts
        # it back.
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        out = tmp_path / "rn.json"
        code, stdout, err = run(capsys, "construct", "rn", "--delta", "1/2",
                                "--mode", "perturbed", "--n-max", str(n_max),
                                "--out", str(out))
        assert code == 0, err
        assert stdout.endswith(f"wrote {out}\n")
        assert get_limit() == limit
        trace = rn_recursion(Fraction(1, 2), 50, n_max, mode="perturbed")
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            steps = json.loads(out.read_text())["steps"]
            assert [(Fraction(s["b_n"]), Fraction(s["eta"]), Fraction(s["partial_sum"]))
                    for s in steps] == [(s.b_n, s.eta, s.partial_sum) for s in trace.steps]
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    def test_widened_error_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr(constants, "_g_bounds", lambda n: (Fraction(8), Fraction(8)))
        code, out, _ = run(capsys, "construct", "rn", "--delta", "1/2",
                           "--mode", "perturbed", "--n-max", "8")
        assert code == 5
        assert "ratio=False sandwich=True intervals=False f-bound=False" in out


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["k-exact"])  # missing --set
        assert err.value.code == 2

    def test_unknown_flag_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["order", "--prime", "7", "--frobnicate"])
        assert err.value.code == 2

    def test_contract_error_is_2(self, capsys, tmp_path):
        spec = tmp_path / "explicit.json"
        spec.write_text('{"kind": "explicit_finite", "primes": [3]}\n')
        code, _, err = run(capsys, "series", "--spec", str(spec),
                           "--n-max", "100", "--mode", "dominant")
        assert code == 2
        assert "induced" in err

    def test_dominant_n_max_0_is_2(self, capsys, tmp_path):
        spec = tmp_path / "m3.json"
        spec.write_text('{"kind": "induced", "order_set": '
                        '{"kind": "multiples_of", "ells": [3]}}\n')
        code, _, err = run(capsys, "series", "--spec", str(spec),
                           "--n-max", "0", "--mode", "dominant")
        assert code == 2
        assert "n_max must be >= 1" in err

    def test_dominant_n_max_past_capacity_is_2(self, capsys, tmp_path):
        spec = tmp_path / "m3.json"
        spec.write_text('{"kind": "induced", "order_set": '
                        '{"kind": "multiples_of", "ells": [3]}}\n')
        code, out, err = run(capsys, "series", "--spec", str(spec),
                             "--n-max", "100000001", "--mode", "dominant")
        assert code == 2 and out == ""
        assert "100000000" in err

    def test_dominant_on_unclosed_set_names_exact_mode(self, capsys, tmp_path):
        # The prime numbers are not closed under multiplication by N; the
        # remedy is a flag of this command, not a library function.
        spec = tmp_path / "primes.json"
        spec.write_text('{"kind": "induced", "order_set": {"kind": "prime_numbers"}}\n')
        code, out, err = run(capsys, "series", "--spec", str(spec),
                             "--n-max", "100", "--mode", "dominant")
        assert code == 2 and out == ""
        assert "--mode exact" in err and "decompose_lcm_closed" not in err

    def test_cache_miss_is_3(self, capsys):
        code, _, err = run(capsys, "series-transcendental",
                           "--ell", "3", "--terms", "6")
        assert code == 3
        assert "2^243" in err

    def test_budget_exhausted_is_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "factor", "--cache", str(tmp_path / "c.jsonl"),
                           "--exponent", "149", "--budget", "0")
        assert code == 4

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_budget_below_0_or_nan_is_2(self, capsys, tmp_path, budget):
        # NaN compares false with every deadline, so it would never stop.
        t0 = time.monotonic()
        code, out, err = run(capsys, "factor", "--cache", str(tmp_path / "c.jsonl"),
                             "--exponent", "137", "--budget", budget)
        assert code == 2 and out == ""
        assert "budget must be >= 0" in err
        assert time.monotonic() - t0 < 1.0

    def test_factor_exponent_past_capacity_is_2(self, capsys, tmp_path):
        t0 = time.monotonic()
        code, out, err = run(capsys, "factor", "--cache", str(tmp_path / "c.jsonl"),
                             "--exponent", "1001")
        assert code == 2 and out == ""
        assert "exceeds capacity bound 1000" in err
        assert time.monotonic() - t0 < 1.0

    @pytest.mark.parametrize("n_max, message", [("0", "n_max must be >= 1"),
                                                ("-3", "n_max must be >= 1"),
                                                ("65", "exceeds capacity bound 64")])
    def test_construct_n_max_out_of_range_is_2(self, capsys, n_max, message):
        t0 = time.monotonic()
        code, out, err = run(capsys, "construct", "rn", "--delta", "1/2",
                             "--n-max", n_max)
        assert code == 2 and out == ""
        assert message in err
        assert time.monotonic() - t0 < 1.0

    @pytest.mark.parametrize("flags, named", [
        (["--x", "7"], ["--x", "--c"]),
        (["--c", "4/3", "--a-prime", "1/100"], ["--a-prime", "--c"]),
    ], ids=["x_without_c", "c_with_a_prime"])
    def test_construct_flag_conflict_is_2(self, capsys, flags, named):
        # Either flag would otherwise be dropped without a word.
        code, out, err = run(capsys, "construct", "rn", "--delta", "1/2", *flags)
        assert code == 2 and out == ""
        assert all(flag in err for flag in named), err

    def test_budget_stops_rho(self, capsys, tmp_path):
        # A positive budget must also hold once Brent rho is running.
        t0 = time.monotonic()
        code, _, err = run(capsys, "factor", "--cache", str(tmp_path / "c.jsonl"),
                           "--exponent", "137", "--budget", "0.2")
        assert code == 4
        assert time.monotonic() - t0 < 2.0
        assert "m=137" in err

    def test_budget_reports_partial_factors(self, capsys, tmp_path):
        # 2^274 - 1 = (2^137 - 1)(2^137 + 1): the factor 3 of 2^2 - 1 is found
        # before the budget runs out on 2^137 - 1, and must be reported.
        code, _, err = run(capsys, "factor", "--cache", str(tmp_path / "c.jsonl"),
                           "--exponent", "274", "--budget", "0.2")
        assert code == 4
        line = next(ln for ln in err.splitlines() if ln.startswith("partial: "))
        partial = json.loads(line.removeprefix("partial: "))
        assert partial["m"] == 274
        assert [3, 1] in partial["factors"]
        prod = 1
        for p, e in partial["factors"]:
            prod *= p**e
        for c in partial["cofactors"]:
            prod *= c
        assert prod == (1 << 274) - 1

    def test_modulus_past_int64_is_0(self, tmp_path):
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"kind": "induced", "order_set": {
            "kind": "congruence_primes", "modulus": 2**70, "residues": [1]}}))
        proc = run_cold("set-density", "--spec", str(spec), "--limit", "1000")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["member_count"] == 0

    def test_omega_bounded_m_past_int64_is_0(self, capsys, tmp_path):
        # Below 2^40, m = 2^70 and m = 2^40 remove the same powers of 2.
        outs = []
        for m in (2**70, 2**40):
            spec = tmp_path / f"omega{m}.json"
            spec.write_text(json.dumps({"kind": "induced", "order_set": {
                "kind": "omega_bounded", "r": 2, "m": m,
                "ell_set": {"kind": "list", "primes": [3, 5]}}}))
            code, out, err = run(capsys, "set-density", "--spec", str(spec),
                                 "--limit", "1000")
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    def test_omega_bounded_semiprime_m_loads_without_factoring(self, capsys,
                                                               tmp_path):
        # Both primes of m exceed 10^10, so below 1000 it divides out nothing
        # and the set equals the one with m = 1; m itself is never factored,
        # so the load does not hang in rho (a cold process, with a timeout).
        specs = []
        for m in ((10**19 + 51) * (10**20 + 39), 1):
            specs.append(tmp_path / f"omega{m}.json")
            specs[-1].write_text(json.dumps({"kind": "induced", "order_set": {
                "kind": "omega_bounded", "r": 2, "m": m,
                "ell_set": {"kind": "list", "primes": [3, 5]}}}))
        proc = run_cold("set-density", "--spec", str(specs[0]), "--limit", "1000",
                        timeout=15)
        assert proc.returncode == 0, proc.stderr
        code, out, err = run(capsys, "set-density", "--spec", str(specs[1]),
                             "--limit", "1000")
        assert code == 0, err
        assert proc.stdout == out

    def test_budget_lets_pm1_finish_139(self, capsys, tmp_path):
        # p - 1 finds the factor 5625767248687 of 2^139 - 1 in milliseconds.
        code, out, _ = run(capsys, "factor", "--cache", str(tmp_path / "c.jsonl"),
                           "--exponent", "139", "--budget", "1")
        assert code == 0
        assert "5625767248687" in out

    def test_budget_still_stops_137(self, capsys, tmp_path):
        # Neither prime of 2^137 - 1 has a 10^4-smooth p - 1, so rho runs
        # and the budget still ends it.
        code, _, err = run(capsys, "factor", "--cache", str(tmp_path / "c.jsonl"),
                           "--exponent", "137", "--budget", "1")
        assert code == 4
        assert any(ln.startswith("partial: ") for ln in err.splitlines())

    # P - 1 = 2 * 5 * 7 * (10^19 + 51) * (10^20 + 39): after trial division
    # rho is left with two 64-bit primes, far past any deadline.
    TWO_LARGE_FACTORS = "70000000000000000384300000000000000139231"

    @pytest.mark.parametrize("argv", [["order", "--prime", TWO_LARGE_FACTORS],
                                      ["k-exact", "--set", TWO_LARGE_FACTORS]])
    def test_factorize_deadline_is_4(self, capsys, monkeypatch, argv):
        # factorize reads the budget from the integer core, where it is defined.
        monkeypatch.setattr(integers, "FACTORIZE_BUDGET", 0.2)
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert "deadline passed" in err
        assert time.monotonic() - t0 < 2.0
        # The partial factors of p - 1 follow on stderr and multiply back.
        partial = [ln for ln in err.splitlines() if ln.startswith("partial: ")]
        assert len(partial) == 1
        payload = json.loads(partial[0].removeprefix("partial: "))
        assert sorted(payload) == ["cofactors", "factors"]
        assert payload["factors"] == [[2, 1], [5, 1], [7, 1]]
        prod = 1
        for p, e in payload["factors"]:
            prod *= p**e
        for c in payload["cofactors"]:
            prod *= c
        assert prod == int(self.TWO_LARGE_FACTORS) - 1

    def test_wrongly_typed_spec_field_is_2(self, capsys, tmp_path):
        spec = tmp_path / "typed.json"
        spec.write_text('{"kind": "induced", "order_set": '
                        '{"kind": "multiples_of", "ells": 3}}\n')
        code, _, err = run(capsys, "set-density", "--spec", str(spec),
                           "--limit", "1000")
        assert code == 2
        assert "'ells' must be a list of integers" in err

    def test_non_prime_list_source_is_2(self, capsys, tmp_path):
        spec = tmp_path / "list.json"
        spec.write_text('{"kind": "induced", "order_set": {"kind": "multiples_of", '
                        '"ell_set": {"kind": "list", "primes": [4]}}}\n')
        code, _, err = run(capsys, "set-density", "--spec", str(spec),
                           "--limit", "1000")
        assert code == 2
        assert "list source element 4 not prime" in err

    def test_composite_ell_powers_is_0(self, capsys, tmp_path):
        # {4^e} is lcm-closed; a membership test that wanted 4 as the lone
        # prime factor once made the spec fail its own closure check.
        spec = tmp_path / "set.json"
        spec.write_text('{"kind": "induced", "order_set": '
                        '{"kind": "ell_powers", "ell": 4}}\n')
        code, out, err = run(capsys, "set-density", "--spec", str(spec),
                             "--limit", "10000")
        assert code == 0, err
        powers = {4**e for e in range(7)}  # m_p < 10^4 < 4^7
        odd = sieve_primes(10**4).primes[1:].tolist()
        assert json.loads(out)["member_count"] == sum(
            mult_order(p) in powers for p in odd)

    def test_bulk_order_mismatch_is_5(self, capsys, tmp_path, monkeypatch):
        from orbitgrowth import sets

        real = sets.mult_orders
        monkeypatch.setattr(sets, "mult_orders",
                            lambda primes, table: real(primes, table) + 1)
        spec = tmp_path / "set.json"
        spec.write_text('{"kind": "induced", "order_set": '
                        '{"kind": "multiples_of", "ells": [3]}}\n')
        code, _, err = run(capsys, "set-density", "--spec", str(spec),
                           "--limit", "1000")
        assert code == 5
        assert "disagrees with mult_order" in err

    def test_malformed_spec_is_2(self, capsys, tmp_path):
        spec = tmp_path / "list.json"
        spec.write_text("[3, 7]\n")
        code, _, err = run(capsys, "set-density", "--spec", str(spec),
                           "--limit", "1000")
        assert code == 2
        assert "JSON object" in err

    def test_invariant_violation_is_5(self, capsys, monkeypatch):
        from orbitgrowth import cli
        from orbitgrowth.errors import InvariantViolation

        def boom(p):
            raise InvariantViolation("core-arith: forced for the exit-code test")

        monkeypatch.setattr(cli, "mult_order", boom)
        code, _, err = run(capsys, "order", "--prime", "7")
        assert code == 5
        assert "core-arith" in err


    def test_greedy_budget_is_4(self, capsys, monkeypatch):
        # A greedy run that ends outside its window carries its trace, a
        # namedtuple, as the partial result; only factoring's plain
        # (factors, cofactors) tuple is printed.
        from orbitgrowth.constants import GreedyTrace
        from orbitgrowth.errors import BudgetError

        trace = GreedyTrace(Fraction(3, 4), Fraction(1, 10), [], False, Fraction(1), ())

        def exhausted(*args, **kwargs):
            raise BudgetError("constants: forced for the exit-code test", partial=trace)

        monkeypatch.setattr(constants, "greedy_L", exhausted)
        code, _, err = run(capsys, "greedy", "--target", "3/4", "--eps", "1/10")
        assert code == 4
        assert "forced" in err and "partial" not in err


class TestCacheFile:
    M11 = '{"m": 11, "factors": [[23, 1], [89, 1]]}\n'

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(self.M11 + '{"m": 130, "fac')
        proc = run_cold("factor", "--cache", str(path), "--exponent", "29")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout.splitlines()[0])
        assert payload["factors"] == [[233, 1], [1103, 1], [2089, 1]]

    def test_corrupt_complete_line_is_2(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(self.M11 + '{"m": 130, "fac\n')
        proc = run_cold("factor", "--cache", str(path), "--exponent", "29")
        assert proc.returncode == 2
        assert "line 2: malformed entry" in proc.stderr

    def test_reproduce_reads_the_seed_alone(self, capsys, tmp_path, monkeypatch):
        # A line that fails the product check stops the commands that open
        # the cache, but the recipes read the packaged seed only.
        path = tmp_path / "c.jsonl"
        path.write_text('{"m": 11, "factors": [[23, 1], [97, 1]]}\n')
        monkeypatch.setenv("ORBITGROWTH_CACHE", str(path))
        for theorem in ("zero", "section9"):
            code, out, _ = run(capsys, "reproduce", "--theorem", theorem)
            assert code == 0 and out.startswith(f"PASS  {theorem}"), theorem
        for argv in (["factor", "--exponent", "29"],
                     ["greedy", "--target", "3/4", "--eps", "1/10"]):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "line 1: failed the product check" in err, argv

    def test_factor_writes_then_reads_the_overlay(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        code, out, _ = run(capsys, "factor", "--cache", str(path),
                           "--exponent", "139")
        assert code == 0
        assert [json.loads(ln)["m"] for ln in path.read_text().splitlines()] == [139]
        # With no budget left, only the overlay can answer.
        code, again, _ = run(capsys, "factor", "--exponent", "139",
                             "--budget", "0", "--cache", str(path))
        assert code == 0 and again == out

    def test_factor_keeps_what_it_completed_when_the_budget_runs_out(
            self, capsys, tmp_path):
        # 129 divides 387: 2^129 - 1, whose primitive part is prime, is
        # factored on the way, and then the primitive part of 2^387 - 1
        # outlasts the budget.
        path = tmp_path / "c.jsonl"
        code, out, err = run(capsys, "factor", "--exponent", "387",
                             "--budget", "1", "--cache", str(path))
        assert code == 4 and out == "" and "m=387" in err
        text = path.read_text()
        assert [json.loads(ln)["m"] for ln in text.splitlines()] == [129]
        # Answered from the overlay, so nothing is appended again.
        code, out, _ = run(capsys, "factor", "--exponent", "129",
                           "--budget", "0", "--cache", str(path))
        assert code == 0 and json.loads(out)["m"] == 129
        assert path.read_text() == text

    def test_factor_caches_no_partial_factorization(self, capsys, tmp_path):
        # 2^274 - 1 = (2^137 - 1)(2^137 + 1): 2 comes from the seed, and the
        # budget runs out on 137, so nothing complete is left to append.
        path = tmp_path / "c.jsonl"
        code, _, _ = run(capsys, "factor", "--exponent", "274",
                         "--budget", "0.2", "--cache", str(path))
        assert code == 4 and not path.exists()

    @pytest.mark.parametrize("argv", [
        ["greedy", "--target", "3/4", "--eps", "1/10"],
        ["series-transcendental", "--ell", "3", "--terms", "4"],
    ], ids=["greedy", "series-transcendental"])
    def test_cache_after_the_command_is_opened(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        fresh = tmp_path / "fresh.jsonl"
        assert run(capsys, *argv, "--cache", str(fresh)) == (0, out, "")
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"m": 11, "factors": [[23, 1], [97, 1]]}\n')
        code, _, err = run(capsys, *argv, "--cache", str(bad))
        assert code == 2 and "line 1: failed the product check" in err

    def test_exact_series_opens_no_cache(self, tmp_path, monkeypatch):
        # The exact series reads no factorization of 2^n - 1, so the cache
        # file that stops `factor` above is never opened.
        path = tmp_path / "c.jsonl"
        path.write_text(self.M11 + '{"m": 130, "fac\n')
        monkeypatch.setenv("ORBITGROWTH_CACHE", str(path))
        spec = tmp_path / "m3.json"
        spec.write_text(json.dumps({"kind": "induced", "order_set": {
            "kind": "multiples_of", "ells": [3]}}))
        proc = run_cold("series", "--spec", str(spec),
                        "--n-max", "120", "--mode", "exact")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].startswith("120,")


def valid_argvs(tmp_path) -> dict[str, list[str]]:
    """A valid argv of each command that opens no factor cache."""
    spec = tmp_path / "m3.json"
    spec.write_text('{"kind": "induced", "order_set": '
                    '{"kind": "multiples_of", "ells": [3]}}\n')
    csv = tmp_path / "series.csv"
    csv.write_text("N,value\n" + "".join(f"{10**k},{k}\n" for k in range(1, 10)))
    return {
        "sieve": ["sieve", "--limit", "10", "--out", str(tmp_path / "p.csv")],
        "order": ["order", "--prime", "233"],
        "set-density": ["set-density", "--spec", str(spec), "--limit", "1000"],
        "series": ["series", "--spec", str(spec), "--n-max", "12",
                   "--mode", "exact", "--out", str(tmp_path / "s.csv")],
        "fit": ["fit", "--in", str(csv), "--out", str(tmp_path / "fit.json")],
        "k-exact": ["k-exact", "--set", "3,7"],
        "construct": ["construct", "rn", "--delta", "1/2", "--n-max", "4",
                      "--out", str(tmp_path / "rn.json")],
        "reproduce": ["reproduce", "--theorem", "section9"],
    }


def usage_error(capsys, argv) -> str:
    """stderr of an argv the parser refuses, with exit 2 and no stdout."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    out = capsys.readouterr()
    assert err.value.code == 2 and out.out == ""
    return out.err


class TestSpellings:
    COMMANDS = ["sieve", "order", "set-density", "series", "fit", "k-exact",
                "construct", "reproduce"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_cache_on_a_command_that_opens_none_is_2(self, capsys, tmp_path,
                                                    command):
        argv = valid_argvs(tmp_path)[command]
        cache = ["--cache", str(tmp_path / "c.jsonl")]
        inputs = sorted(tmp_path.iterdir())
        for placed in ([*argv, *cache], [*cache, *argv]):
            usage_error(capsys, placed)
            assert sorted(tmp_path.iterdir()) == inputs  # refused before any work
        assert main(argv) == 0

    @pytest.mark.parametrize("argv", [
        ["factor", "--exponent", "139"],
        ["greedy", "--target", "3/4", "--eps", "1/10"],
        ["series-transcendental", "--ell", "3", "--terms", "4"],
    ], ids=["factor", "greedy", "series-transcendental"])
    def test_cache_before_the_command_is_2(self, capsys, tmp_path, argv):
        cache = tmp_path / "c.jsonl"
        usage_error(capsys, ["--cache", str(cache), *argv])
        assert not cache.exists()

    def test_abbreviated_flag_is_2(self, capsys, tmp_path):
        argvs = valid_argvs(tmp_path)
        for argv, flag, prefix in [
            (["order", "--prime", "233"], "--prime", "--p"),
            (argvs["series"], "--n-max", "--n"),
            (["greedy", "--target", "3/4", "--eps", "1/10", "--cap", "127"],
             "--cap", "--ca"),
            (argvs["construct"], "--delta", "--d"),
        ]:
            assert main(argv) == 0, argv
            capsys.readouterr()
            usage_error(capsys, [prefix if a == flag else a for a in argv])

    def test_fit_takes_the_model_names_it_prints(self, capsys, tmp_path):
        csv = tmp_path / "series.csv"
        csv.write_text("N,value\n" + "".join(
            f"{10**k},{0.6 * math.log(10**k) + 0.1!r}\n" for k in range(1, 10)))
        code, out, _ = run(capsys, "fit", "--in", str(csv), "--model", "auto")
        assert code == 0
        best = json.loads(out)["model"]
        assert run(capsys, "fit", "--in", str(csv), "--model", best) == (0, out, "")
        for model in fitting.MODELS:
            code, out, _ = run(capsys, "fit", "--in", str(csv), "--model", model)
            assert code == 0 and json.loads(out)["model"] == model
        usage_error(capsys, ["fit", "--in", str(csv), "--model", "klog"])


def test_closed_stdout_pipe_ends_quietly(tmp_path):
    # About 1.3 MB of rows, far past a pipe's buffer, so the child is still
    # writing when the reader goes away.
    spec = tmp_path / "m3.json"
    spec.write_text('{"kind": "induced", "order_set": '
                    '{"kind": "multiples_of", "ells": [3]}}\n')
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitgrowth.cli", "series", "--spec", str(spec),
         "--n-max", "2000", "--mode", "exact"],
        env=cold_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"N,value,mode,bound_R,bound_Q\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_every_option_is_read_by_its_command():
    # What a command accepts it reads: each option's dest is read as
    # `args.<dest>` in the function that runs the command.  `command` and
    # `fn` are the parser's own; `construct`'s positional `construction`
    # names the one construction there is, `rn`, which stays in the syntax.
    root = build_parser()
    (commands,) = [a for a in root._actions
                   if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, parser in commands.choices.items():
        fn = parser.get_default("fn")
        tree = ast.parse(inspect.getsource(fn))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        for action in root._actions + parser._actions:
            if (isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
                    or (name, action.dest) == ("construct", "construction")):
                continue
            if action.dest not in read:
                unread.append(f"{name} {action.dest}")
    assert unread == []
