"""Record the reference outputs every benchmark op is checked against.

    python3 perfbench/record_golden.py

Runs the program in the checkout once, untraced, and writes
golden/reference.json (recipe stdout with the elapsed time masked, density
counts, sieve summary, appended factorizations, exact series digests) and
golden/k_pool.json (the exact k of every set in the seeded pool).  Run it
only on a commit whose outputs are trusted; the committed files were
recorded from the seed commit of this benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
import worker  # noqa: E402


def record_reproduce() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ORBITGROWTH_CACHE", None)
    out = {}
    for name in spec.THEOREMS:
        proc = subprocess.run(
            [sys.executable, "-c", spec.CLI_ENTRY, "reproduce", "--theorem", name],
            env=env, capture_output=True, text=True, check=True, cwd=ROOT)
        out[f"reproduce:{name}"] = spec.mask_elapsed(proc.stdout)
    return out


def main() -> int:
    worker.check_program()
    from orbitgrowth.constants import k_exact_finite_s

    tmp = ROOT / spec.TMP_DIRNAME / "record"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        recorded = {"reproduce": record_reproduce()}
        for workload in ("density", "exact_cache"):
            recorded[workload] = {}
            for group in spec.pass_groups(workload, 0):
                ops_list = worker.workload_ops(workload, group, 0, str(tmp), {})
                res = worker.run_ops(ops_list, None)
                if res["errors"]:
                    raise SystemExit(f"record_golden: {workload} ops raised "
                                     f"{res['errors']}")
                recorded[workload].update(
                    {k: v for k, v in res["outputs"].items()
                     if not k.startswith("k_exact:#")})
    finally:
        shutil.rmtree(ROOT / spec.TMP_DIRNAME, ignore_errors=True)
    pool = [[list(p), str(k_exact_finite_s(list(p)).value)]
            for p in spec.k_pool_sets()]
    (HERE / "golden").mkdir(exist_ok=True)
    with open(HERE / "golden" / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"ops": recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(HERE / "golden" / "k_pool.json", "w", encoding="utf-8") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")
    print("recorded", sum(len(v) for v in recorded.values()),
          "ops and", len(pool), "k values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
