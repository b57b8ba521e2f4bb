"""Measure every workload over several seeds and append the result to the
benchmark's trajectory.

    python3 perfbench/trajectory.py --label "what was measured"

For each workload this makes ten untraced runs, one per seed from
--first-seed on, and one traced run.  For every end-to-end metric it prints
the median and quartiles of the per-run values and their spread (quartile
distance over median) against the metric's bound in BENCHMARK.json.  The
entry, with the machine record and the traced run's per-layer values, is
appended to --out (default perfbench/trajectory.jsonl).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    machine = json.loads(lines[0].split(" ", 1)[1])
    return json.loads(lines[-1]), machine


def spread(xs: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(prog="perfbench-trajectory")
    ap.add_argument("--label", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=str(HERE / "trajectory.jsonl"))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entry = {"label": args.label, "date": time.strftime("%Y-%m-%d"),
             "run_seconds": bench["run_seconds"], "workloads": {}}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            res, entry["machine"] = run_once(workload, seed,
                                             bench["run_seconds"], 0)
            runs.append(res)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
        traced, _ = run_once(workload, seeds[0], bench["run_seconds"], 1)
        w = {"seeds": seeds, "metrics": {},
             "correct": all(r["correct"] for r in runs) and traced["correct"],
             "attempted": sum(r["attempted"] for r in runs),
             "failed": sum(r["failed"] for r in runs)}
        for name, bound in bounds.items():
            xs = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(xs)
            w["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": sp, "n": len(xs),
                                  "unit": runs[0]["metrics"][name]["unit"]}
            print(f"{workload:<12} {name:<12} median {med:.6g}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  spread {sp:.4f}  bound {bound}  "
                  f"{'ok' if sp < bound / 3 else 'WIDE'}", flush=True)
        w["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["workloads"][workload] = w
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
