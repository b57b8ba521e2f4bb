#!/usr/bin/env python3
"""Re-record the golden CLI corpus, tests/golden/cli.json.

Run from anywhere, with the package importable:

    PYTHONPATH=src python tools/record_cli_golden.py

Each entry of ENTRIES is one argv, run through orbitgrowth.cli.main in this
process from the repository root (the --spec paths are relative to it).  It
is recorded as its exit code, the sha256 of its stdout and, when stdout has
at most STDOUT_LINES lines, stdout itself.  The elapsed seconds that
`reproduce` prints are masked first, by the benchmark's one pattern.
tests/test_cli_golden.py runs every entry the same way and compares.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "cli.json"
STDOUT_LINES = 16

# The elapsed-time mask lives with the benchmark, which is not a package:
# its spec module is loaded from its file.
_spec = importlib.util.spec_from_file_location("perfbench_spec",
                                               ROOT / "perfbench" / "spec.py")
perfbench_spec = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_spec)


def _spec_path(name: str) -> str:
    return f"tests/golden/specs/{name}.json"


ENTRIES = [
    *(["reproduce", "--theorem", t] for t in perfbench_spec.THEOREMS),
    *(["set-density", "--spec", _spec_path(name), "--limit", "2000000"]
      for name in ("multiples_of_3", "multiples_of_primes_1mod3",
                   "complement_multiples_of_3", "prime_numbers", "omega_bounded",
                   "explicit_list_edges")),
    *(["series", "--spec", _spec_path(name), "--n-max", "1000000", "--mode", "dominant"]
      for name in ("multiples_of_3", "composite_numbers",
                   "squarefree_multiples_of_primes_1mod3", "omega_bounded")),
    *(["series", "--spec", _spec_path(name), "--n-max", "120", "--mode", "exact"]
      for name in ("explicit_3_7", "explicit_3_5_7_11_13_17_31_127", "multiples_of_3",
                   "complement_multiples_of_3", "ell_powers_2",
                   "explicit_list_2_3_4_5_10", "prime_list_2_3_5_7")),
    ["sieve", "--limit", "1000000"],
    ["k-exact", "--set", "3,7"],
]


def record(argv: list[str]) -> dict:
    """One corpus entry: argv run through cli.main from the repository root."""
    from orbitgrowth.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    stdout = perfbench_spec.mask_elapsed(out.getvalue())
    entry = {"argv": list(argv), "exit": code,
             "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    if stdout.count("\n") <= STDOUT_LINES:
        entry["stdout"] = stdout
    return entry


def main() -> int:
    corpus = [record(argv) for argv in ENTRIES]
    CORPUS.parent.mkdir(parents=True, exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} entries to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
