"""Fixed inputs of the three workloads, shared by run.py and its children.

Nothing here imports orbitgrowth, so the run.py process stays free of the
program's import cost and every set-up it measures is paid by a child.
"""

from __future__ import annotations

import random
import re

WORKLOADS = ("reproduce", "density", "exact_cache")

# reproduce: every recipe, each as its own cold CLI process.
THEOREMS = ("dense", "onto", "logdelta", "loglog", "zero", "transcendental",
            "section9")

# density: three induced specs at one shared limit, then the 1e8 sieve.
DENSITY_LIMIT = 2_000_000
DENSITY_SPECS = {
    "multiples_of[3]": {
        "kind": "induced",
        "order_set": {"kind": "multiples_of", "ells": [3]},
    },
    "multiples_of[primes=1mod3]": {
        "kind": "induced",
        "order_set": {
            "kind": "multiples_of",
            "ell_set": {"kind": "congruence_primes", "modulus": 3,
                        "residues": [1]},
        },
    },
    "complement_multiples_of[3]": {
        "kind": "induced",
        "order_set": {"kind": "complement_multiples_of", "ell": 3},
    },
}
SIEVE_LIMIT = 10**8
SIEVE_SPOT_CHECKS = 500

# exact_cache: the write path of the factor cache, then exact assembly.
FACTOR_EXPONENTS = tuple(m for m in range(129, 149) if m != 137)
EXACT_N_MAX = 120
EXACT_SETS = {
    "explicit{3,7}": {"kind": "explicit_finite", "primes": [3, 7]},
    "explicit{3,5,7,11,13,17,31,127}": {
        "kind": "explicit_finite", "primes": [3, 5, 7, 11, 13, 17, 31, 127],
    },
    "induced:multiples_of[3]": DENSITY_SPECS["multiples_of[3]"],
    "induced:complement_multiples_of[3]":
        DENSITY_SPECS["complement_multiples_of[3]"],
    "induced:ell_powers[2]": {
        "kind": "induced", "order_set": {"kind": "ell_powers", "ell": 2},
    },
    "induced:explicit_list[2,3,4,5,10]": {
        "kind": "induced",
        "order_set": {"kind": "explicit_list", "values": [2, 3, 4, 5, 10]},
    },
    "induced:prime_list[2,3,5,7]": {
        "kind": "induced",
        "order_set": {"kind": "prime_list", "primes": [2, 3, 5, 7]},
    },
}
# Order sets on which decompose_lcm_closed and f_series_direct must agree.
LCM_CLOSED_SETS = {
    "complement_multiples_of[3]": {"kind": "complement_multiples_of", "ell": 3},
    "ell_powers[2]": {"kind": "ell_powers", "ell": 2},
    "explicit_list[2,4,5,10,20]": {"kind": "explicit_list",
                                   "values": [2, 4, 5, 10, 20]},
    "explicit_list[3,4,12]": {"kind": "explicit_list", "values": [3, 4, 12]},
}
K_ANCHOR = (3, 7)  # k_{3,7} = 269/576
K_BATCH = 200
# The recorded pool the seeded k_exact batch is drawn from: finite sets of
# odd primes below K_PRIME_BOUND, generated once from K_POOL_SEED.
K_POOL_SIZE = 2000
K_POOL_SEED = 12014503
K_PRIME_BOUND = 2000
# One set size keeps the batch's cost nearly independent of the seed.
K_SET_SIZE = 6

# The budget probe: factor_mersenne(137, budget=1.0) in its own child,
# killed at a fixed multiple of the budget.
PROBE_EXPONENT = 137
PROBE_BUDGET_S = 1.0
PROBE_KILL_MULTIPLE = 3.0


def recipe_order(seed: int) -> list[str]:
    return random.Random(seed).sample(THEOREMS, len(THEOREMS))


def density_order(seed: int) -> list[str]:
    return random.Random(seed).sample(sorted(DENSITY_SPECS), len(DENSITY_SPECS))


def factor_order(seed: int) -> list[int]:
    return random.Random(seed).sample(FACTOR_EXPONENTS, len(FACTOR_EXPONENTS))


def k_batch(seed: int) -> list[int]:
    """Indices into the recorded k pool; the seed picks which sets run."""
    return random.Random(seed).sample(range(K_POOL_SIZE), K_BATCH)


def _odd_primes_below(bound: int) -> list[int]:
    return [n for n in range(3, bound, 2)
            if all(n % d for d in range(3, int(n**0.5) + 1, 2))]


def k_pool_sets() -> list[tuple[int, ...]]:
    """The pool's prime sets, drawn from the odd primes below K_PRIME_BOUND."""
    primes = _odd_primes_below(K_PRIME_BOUND)
    rng = random.Random(K_POOL_SEED)
    return [tuple(sorted(rng.sample(primes, K_SET_SIZE)))
            for _ in range(K_POOL_SIZE)]


# How a user runs the CLI: the `orbitgrowth` console script is exactly this.
CLI_ENTRY = "import sys; from orbitgrowth.cli import main; sys.exit(main())"
# What every CLI user pays before the first command does any work.
SETUP_CODE = ("import orbitgrowth.cli; from orbitgrowth.mersenne import "
              "FactorCache; FactorCache()")

# Scratch space inside the checkout; run.py removes it when it ends.
TMP_DIRNAME = ".perfbench_tmp"

# `reproduce` prints its own elapsed time, e.g. "PASS  onto  (0.08s)", so two
# identical invocations are not byte-identical.  Only that field is masked.
_ELAPSED = re.compile(r"^((?:PASS|FAIL)  \S+  )\(\d+\.\d\ds\)$", re.M)


def mask_elapsed(stdout: str) -> str:
    return _ELAPSED.sub(r"\1(<elapsed>)", stdout)


def pass_groups(workload: str, seed: int) -> list[str]:
    """The cold processes of one density or exact_cache pass, in order.

    A user runs each density spec as its own `orbitgrowth set-density`
    process; exact_cache writes the factor cache in one process and reads
    it back in the next, as separate CLI uses do.
    """
    if workload == "density":
        return [f"density:{name}" for name in density_order(seed)] + ["sieve"]
    if workload == "exact_cache":
        return ["factor", "exact", "k"]
    raise ValueError(f"no process groups for {workload!r}")


def op_count(workload: str, group: str) -> int:
    """Ops in one process of a pass; a process that dies counts all of them
    failed."""
    if workload == "density":
        return 1
    return {"factor": len(FACTOR_EXPONENTS) + 1,
            "exact": 1 + len(EXACT_SETS) + len(LCM_CLOSED_SETS),
            "k": 1 + K_BATCH}[group]
