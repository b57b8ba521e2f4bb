"""Child process of the benchmark: one process of a workload pass, the
budget probe, or one traced CLI invocation.  run.py starts it with PYTHONPATH set to the
checkout's src/ directory:

    python3 perfbench/worker.py pass --workload density --group sieve \
        --seed 1 --out R.json
    python3 perfbench/worker.py pass --workload exact_cache --group factor \
        --seed 1 --out R.json --tmp DIR [--trace T.json]
    python3 perfbench/worker.py probe --out R.json
    python3 perfbench/worker.py cli --trace T.json reproduce --theorem zero
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"


def check_program() -> None:
    """Refuse to measure an orbitgrowth other than the checkout's own."""
    import orbitgrowth

    pkg = Path(orbitgrowth.__file__).resolve().parent
    if pkg != (ROOT / "src" / "orbitgrowth").resolve():
        raise SystemExit(f"perfbench: orbitgrowth imported from {pkg}, "
                         f"not from {ROOT / 'src'}")


def start_trace(path: str | None):
    if path is None:
        return None
    import tracer

    tr = tracer.Tracer()
    tracer.install(tr)
    return tr


def load_expected(workload: str) -> dict[str, str]:
    """Recorded outputs by op name, including every k set of the pool."""
    with open(GOLDEN / "reference.json", encoding="utf-8") as fh:
        expected = dict(json.load(fh)["ops"][workload])
    if workload == "exact_cache":
        with open(GOLDEN / "k_pool.json", encoding="utf-8") as fh:
            pool = json.load(fh)
        for i, (primes, value) in enumerate(pool):
            expected[f"k_exact:#{i}:" + ",".join(map(str, primes))] = value
    return expected


def run_ops(ops, expected: dict[str, str] | None) -> dict:
    """Run every op; one that raises is failed, one whose output differs
    from `expected` is wrong (and failed).  With no `expected`, only the
    outputs are returned."""
    outputs, errors, wrong = {}, {}, []
    for name, thunk in ops:
        try:
            outputs[name] = thunk()
        except Exception as exc:  # any raise is a failed op, not a crash
            errors[name] = f"{type(exc).__name__}: {exc}"
            continue
        if expected is not None and expected.get(name) != outputs[name]:
            wrong.append(name)
    text = "\n".join(f"{k}={outputs[k]}" for k in sorted(outputs))
    return {
        "attempted": len(ops),
        "errors": errors,
        "wrong": wrong,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "outputs": outputs,
    }


def workload_ops(workload: str, group: str, seed: int, tmp: str | None,
                 notes: dict):
    import ops  # after start_trace: ops must bind the wrapped functions
    import spec

    if workload == "density":
        return ops.density_ops(group, seed, notes)
    if workload == "exact_cache":
        pool = spec.k_pool_sets() if group == "k" else []
        return ops.exact_cache_ops(group, seed,
                                   str(Path(tmp) / "factor_cache.jsonl"), pool)
    raise SystemExit(f"perfbench: worker has no pass for {workload!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench-worker")
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pass")
    p.add_argument("--workload", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tmp", default=None)
    p.add_argument("--trace", default=None)
    p = sub.add_parser("probe")
    p.add_argument("--out", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--trace", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)

    check_program()
    if args.mode == "cli":
        tr = start_trace(args.trace)
        from orbitgrowth.cli import main as cli_main

        rc = cli_main(args.argv)
        tr.write(args.trace)
        return rc
    if args.mode == "probe":
        import ops

        result = ops.budget_probe()
    else:
        tr = start_trace(args.trace)
        expected = load_expected(args.workload)
        notes: dict = {}
        result = run_ops(workload_ops(args.workload, args.group, args.seed,
                                      args.tmp, notes), expected)
        del result["outputs"]
        result["notes"] = notes
        if tr is not None:
            tr.write(args.trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
