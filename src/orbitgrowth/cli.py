"""Command-line surface.

Subcommands: sieve, order, factor, set-density, series, fit, k-exact,
greedy, series-transcendental, construct, reproduce.  Each flag has one
spelling, taken in full (no prefix stands for it), and each command
accepts only the flags it reads.  Exit codes: 2 on usage or contract
errors, 3 on cache misses, 4 on exhausted budgets, 5 on internal
invariant violations, 141 (128 + SIGPIPE) with nothing on stderr when the
reader of stdout goes away.  All randomness is seeded: construct rn
--sign random by its --seed (default 0), the cross-checked sample of
set-density by a fixed seed; loading a --spec draws no random numbers.
Outputs are byte-identical across identical invocations, except that
reproduce prints its elapsed seconds on its first line.  Only factor,
greedy and series-transcendental open the factor cache, and only they
take --cache, a writable overlay path, after the command name; the
ORBITGROWTH_CACHE environment variable supplies it otherwise, and the
packaged seed cache is always loaded underneath it.  reproduce reads the
packaged seed alone, and series, in exact mode too, reads no
factorization.  fit --model takes auto or a model name as the fit JSON
prints it.  Beyond the integer core, the factor cache and the fits, each
command imports the modules it runs, and the array layer's numpy runs
only on the first array, so the exact commands (order, factor, k-exact,
greedy, construct, series-transcendental, series --mode exact, and
reproduce for dense and section9) never run numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import fitting
from .errors import (
    BudgetError,
    CacheMissError,
    ContractError,
    InvariantViolation,
)
from .integers import FACTORIZE_BUDGET, mult_order
from .mersenne import FactorCache, MersennePartial, factor_mersenne
from .reproduce import THEOREMS, run_theorem

EXIT_USAGE = 2
EXIT_CACHE_MISS = 3
EXIT_BUDGET = 4
EXIT_INVARIANT = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a SIGPIPE kill


def _fmt18(x: float) -> str:
    return f"{x:.18g}"


def _load_prime_set(path: str):
    from .sets import prime_set_from_json

    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return prime_set_from_json(obj)


def _open_cache(path) -> FactorCache:
    return FactorCache(path=path or os.environ.get("ORBITGROWTH_CACHE"))


# ---------------------------------------------------------------------------
# Subcommand implementations.


def _cmd_sieve(args) -> int:
    from .arith import sieve_primes

    primes = sieve_primes(args.limit).primes
    print(f"primes <= {args.limit}: {len(primes)}")
    if args.out:
        step = 2**16  # primes per write: no list or uint64 copy of them all
        chunks = (primes[lo : lo + step] for lo in range(0, primes.size, step))
        if args.format == "csv":
            with open(args.out, "w", encoding="utf-8") as fh:
                for chunk in chunks:
                    fh.write("".join(f"{p}\n" for p in chunk.tolist()))
        else:
            with open(args.out, "wb") as fh:
                for chunk in chunks:
                    chunk.astype("<u8").tofile(fh)
        print(f"wrote {args.out} ({args.format})")
    return 0


def _cmd_order(args) -> int:
    print(mult_order(args.prime))
    return 0


def _cmd_factor(args) -> int:
    cache = _open_cache(args.cache)
    try:
        fz = factor_mersenne(args.exponent, cache, budget=args.budget)
    finally:
        # The complete factorizations of divisor exponents found before a
        # budget ran out are kept too; a partial one is never put.
        cache.flush()
    print(
        json.dumps(
            {
                "m": fz.m,
                "factors": [list(pe) for pe in fz.factors],
                "certified": fz.certified,
            },
            sort_keys=True,
        )
    )
    if not fz.certified:
        print(
            "note: contains factors past the deterministic primality bound; "
            "primality is 40-round probabilistic",
            file=sys.stderr,
        )
    return 0


def _cmd_set_density(args) -> int:
    from .sets import estimate_density

    pset = _load_prime_set(args.spec)
    est = estimate_density(pset, args.limit)
    print(json.dumps(est.to_json(), sort_keys=True))
    return 0


def _cmd_series(args) -> int:
    from .mertens import dominant_sum, mertens_exact, remainder_bounds
    from .sets import InducedPrimes

    pset = _load_prime_set(args.spec)
    if args.mode == "exact":
        series = mertens_exact(args.n_max, pset)
    else:
        if not isinstance(pset, InducedPrimes):
            raise ContractError(
                "cli: dominant mode needs an induced prime set (an order set)"
            )
        series = dominant_sum(args.n_max, pset.order_set)
    # Each row is written as it is built: at the exact ceiling the rows
    # hold about 30 MB of text.
    to_file = args.out != "-"
    with (open(args.out, "w", encoding="utf-8") if to_file
          else nullcontext(sys.stdout)) as fh:
        fh.write("N,value,mode,bound_R,bound_Q\n")
        for n, v in series.samples:
            if n >= 6:
                rb = remainder_bounds(n)
                br, bq = _fmt18(rb.bound_r), _fmt18(rb.bound_q)
            else:
                br = bq = ""
            val = str(v) if args.mode == "exact" else _fmt18(float(v))
            fh.write(f"{n},{val},{args.mode},{br},{bq}\n")
    if to_file:
        print(f"wrote {args.out} ({len(series.samples)} rows)")
    return 0


def _parse_series_csv(path: str) -> list[tuple[int, float]]:
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        try:
            n_col = header.index("N")
            v_col = header.index("value")
        except ValueError:
            raise ContractError("cli: series CSV needs N and value columns")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) <= max(n_col, v_col) or not parts[n_col]:
                continue
            raw = parts[v_col]
            value = float(Fraction(raw)) if "/" in raw else float(raw)
            samples.append((int(parts[n_col]), value))
    return samples


def _cmd_fit(args) -> int:
    samples = _parse_series_csv(args.infile)
    if args.model == "auto":
        report = fitting.classify_growth(samples)
    else:
        report = fitting.fit_model(samples, args.model)
    payload = json.dumps(report.to_json(), sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload)
    return 0


def _cmd_k_exact(args) -> int:
    from .constants import k_exact_finite_s

    primes = [int(tok) for tok in args.set.split(",") if tok]
    constant = k_exact_finite_s(primes)
    print(constant.value)
    return 0


def _cmd_greedy(args) -> int:
    from .constants import greedy_L

    cache = _open_cache(args.cache)
    trace = greedy_L(
        Fraction(args.target), Fraction(args.eps), cache,
        cap=args.cap,
    )
    print(
        f"orders {list(trace.chosen)}  k_final {trace.k_final} "
        f"({float(trace.k_final):.9f})  window [{args.target}, "
        f"{args.target}+{args.eps})"
    )
    if args.trace:
        payload = {
            "target": str(trace.target),
            "eps": str(trace.eps),
            "terminal": trace.terminal,
            "k_final": str(trace.k_final),
            "chosen": list(trace.chosen),
            "decisions": [
                {
                    "ell": d.ell,
                    "accepted": d.accepted,
                    "k_candidate": str(d.k_candidate),
                    "k_after": str(d.k_after),
                }
                for d in trace.decisions
            ],
        }
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.trace}")
    return 0


def _cmd_series_transcendental(args) -> int:
    from .constants import transcendental_series

    cache = _open_cache(args.cache)
    ts = transcendental_series(args.ell, args.terms, cache)
    v = ts.constant.value
    print(f"value {v}")
    print(f"decimal {_fmt18(float(v))}")
    exp = args.ell**args.terms - 1
    print(f"tail_bound 1/2^{exp} = {_fmt18(float(ts.tail_bound))}")
    return 0


def _cmd_construct(args) -> int:
    from .constants import rn_recursion

    trace = rn_recursion(
        Fraction(args.delta),
        args.y,
        args.n_max,
        mode=args.mode,
        a_prime=Fraction(args.a_prime) if args.a_prime else None,
        c=Fraction(args.c) if args.c else None,
        x=args.x,
        seed=args.seed,
        sign_pattern=args.sign,
    )
    print(
        f"mode {trace.mode}  delta {trace.delta}  Y {trace.y}  "
        f"a' {_fmt18(float(trace.a_prime))}"
    )
    # _fmt18 is at most 23 characters wide (0.000940986202162837028).
    row = "  {:>2}  {:>12}  {:>23}  {:>23}"
    print(row.format("n", "R_n", "r_n - 1", "cap delta/R_n"))
    for step in trace.steps:
        if step.n <= 8 or step.n == len(trace.steps):
            print(row.format(step.n, step.big_r, _fmt18(math.expm1(step.log_r_n)),
                             _fmt18(step.r_cap)))
    print(
        f"invariants: ratio={trace.ratio_ok} sandwich={trace.sandwich_ok} "
        f"intervals={trace.interval_ok} f-bound={trace.f_bound_ok}"
    )
    if args.out:
        # The exact values outgrow the interpreter's int-to-str digit limit
        # (perturbed, from n_max 42 on), so the dump lifts it and restores it.
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if digit_limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            payload = {
                "mode": trace.mode,
                "delta": str(trace.delta),
                "y": trace.y,
                "a_prime": str(trace.a_prime),
                "ratio_ok": trace.ratio_ok,
                "sandwich_ok": trace.sandwich_ok,
                "interval_ok": trace.interval_ok,
                "f_bound_ok": trace.f_bound_ok,
                "steps": [
                    {
                        "n": s.n,
                        "R_n": s.big_r,
                        "b_n": str(s.b_n),
                        "eta": str(s.eta),
                        "partial_sum": str(s.partial_sum),
                    }
                    for s in trace.steps
                ],
            }
        finally:
            if digit_limit is not None:
                sys.set_int_max_str_digits(digit_limit)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if trace.all_ok else EXIT_INVARIANT


def _cmd_reproduce(args) -> int:
    result = run_theorem(args.theorem)
    for line in result.lines():
        print(line)
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# Parser.


def build_parser() -> argparse.ArgumentParser:
    # A flag has its one spelling: no parser takes a prefix of it.
    parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    ap = parser(
        prog="orbitgrowth",
        description=(
            "Periodic points, orbit counts and dynamical Mertens sums of "
            "S-integer circle-doubling systems."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True, parser_class=parser)
    # The commands that open the factor cache.
    cache = parser(add_help=False)
    cache.add_argument("--cache", default=None,
                       help="writable factor-cache path (default "
                            "$ORBITGROWTH_CACHE; the packaged seed cache is "
                            "always loaded)")

    p = sub.add_parser("sieve", help="enumerate primes with the least-factor sieve")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "binary"), default="csv")
    p.set_defaults(fn=_cmd_sieve)

    p = sub.add_parser("order", help="multiplicative order of 2 modulo a prime")
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("factor", help="factor 2^M - 1 (cache-backed)",
                       parents=[cache])
    p.add_argument("--exponent", type=int, required=True)
    p.add_argument("--budget", type=float, default=FACTORIZE_BUDGET)
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("set-density", help="empirical density of a prime set")
    p.add_argument("--spec", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(fn=_cmd_set_density)

    p = sub.add_parser("series", help="Mertens series, exact (N <= 10^4) or "
                                      "dominant mode (N <= 10^8)")
    p.add_argument("--spec", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "dominant"), required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("fit", help="fit growth regimes to a series CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--model", choices=("auto", *fitting.MODELS), default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("k-exact", help="exact leading coefficient of finite S")
    p.add_argument("--set", required=True, help="comma-separated primes, e.g. 3,7")
    p.set_defaults(fn=_cmd_k_exact)

    p = sub.add_parser("greedy", help="greedy order selection hitting [k, k+eps)",
                       parents=[cache])
    p.add_argument("--target", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--cap", type=int, default=127)
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=_cmd_greedy)

    p = sub.add_parser("series-transcendental",
                       help="partial sums of the ell-power order series",
                       parents=[cache])
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(fn=_cmd_series_transcendental)

    p = sub.add_parser("construct", help="run a construction (rn: the interval recursion)")
    p.add_argument("construction", choices=("rn",))
    p.add_argument("--delta", required=True)
    p.add_argument("--y", type=int, default=50)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--mode", choices=("idealized", "perturbed"),
                   default="idealized")
    p.add_argument("--a-prime", default=None)
    p.add_argument("--c", default=None)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--sign", default="plus",
                   choices=("plus", "minus", "alternating", "random"))
    p.add_argument("--seed", type=int, default=0,
                   help="seed of --sign random (default 0)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("reproduce", help="run a desk-scale reproduction recipe")
    p.add_argument("--theorem", choices=sorted(THEOREMS), required=True)
    p.set_defaults(fn=_cmd_reproduce)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout has gone, as under `| head`: end as a SIGPIPE
        # kill would, without a word.  What is still buffered goes to
        # os.devnull, so the flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CacheMissError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CACHE_MISS
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        part = exc.partial
        if isinstance(part, MersennePartial):
            payload = {"m": part.m}
            factors, cofactors = part.factors, part.cofactors
        elif type(part) is tuple:  # factorize: (factors, composite cofactors)
            payload = {}
            factors, cofactors = part
        else:
            return EXIT_BUDGET
        payload["factors"] = [list(pe) for pe in sorted(factors.items())]
        payload["cofactors"] = list(cofactors)
        print(f"partial: {json.dumps(payload, sort_keys=True)}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:  # ContractError and CapacityError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
