"""The orbitgrowth benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/.
One run.py process runs passes back to back (a closed loop, one client, no
threads); every pass runs in fresh child processes, because each CLI use is
a cold process.  Every op's output is checked against golden/.

--trace 0 prints the end-to-end metrics: setup_s, wall_ref_s, peak_rss_mb
and ok_ratio.  The two times are in reference seconds: each child's wall
time is scaled by REF_SECONDS over the time of a fixed reference loop timed
around it on the same CPU, which cancels the minute-scale speed changes of
a shared host.  The raw times are printed beside them.  --trace 1
alternates untraced and traced passes, requires their outputs to be
identical, and prints the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")
PY = sys.executable

# Set-up is sampled before every pass, so its median spans the whole run.
SETUP_PER_PASS = 3
SETUP_MIN_SAMPLES = 9
IMPORT_SAMPLES = 5
CLI_TIMEOUT_S = 60.0
PASS_TIMEOUT_S = 100.0
PROBE_KILL_S = spec.PROBE_BUDGET_S * spec.PROBE_KILL_MULTIPLE
# The reference loop is timed this many times just before and just after
# every measured child; the median is the host's speed around that child.
REF_SAMPLES = 3
REF_MODULUS = (1 << 139) - 1
# Reference seconds: the times a host on which the reference loop takes
# REF_SECONDS would show.  The loop takes 5-10 ms on the 2-vCPU Xeon guest
# this benchmark was tuned on, so they read close to its raw seconds.
REF_SECONDS = 0.005

E2E_UNITS = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB",
             "ok_ratio": "ratio"}

INDICATOR_KINDS = ("multiples_of", "complement_multiples_of",
                   "composite_numbers", "squarefree_augmented", "ell_powers",
                   "explicit_list", "prime_list")
LAYER_UNITS = {
    "cli.python_start_s": "s",
    "cli.import_s": "s",
    "cli.import.numpy_s": "s",
    "cli.import.mpmath_s": "s",
    "cli.import.orbitgrowth.constants_s": "s",
    **{f"reproduce.{t}.s": "s" for t in spec.THEOREMS},
    "mertens.dominant_sum.s": "s",
    "mertens.dominant_sum.self_s": "s",
    "mertens.dominant_sum.terms": "count",
    "mertens.dominant_sum.terms_per_s": "1/s",
    "constants.squarefree_slope.s": "s",
    "constants.squarefree_slope.terms": "count",
    **{f"sets.indicator.{k}.{m}": u for k in INDICATOR_KINDS
       for m, u in (("s", "s"), ("calls", "count"))},
    "sets.prime_mask.s": "s",
    "sets.prime_mask.builds": "count",
    "sets.prime_mask.reuses": "count",
    "arith.sieve_primes.s": "s",
    "arith.sieve_primes.calls": "count",
    "arith.sieve_primes.bytes": "B",
    "arith.mult_order.calls": "count",
    "arith.mult_order.s": "s",
    "arith.factorize.calls": "count",
    "arith.factorize.s": "s",
    "sets.OrderSet.contains.calls": "count",
    "sets.OrderSet.contains.s": "s",
    "sets.estimate_density.s": "s",
    "sets.estimate_density.primes_per_s": "1/s",
    "sets.verify_closure_flags.s": "s",
    "sets.verify_closure_flags.pairs": "count",
    "mersenne.FactorCache.load_s": "s",
    "mersenne.FactorCache.entries_loaded": "count",
    "mersenne.factor_mersenne.s": "s",
    "mersenne.factor_mersenne.calls": "count",
    "mersenne.factor_mersenne.cache_hits": "count",
    "mersenne.factor_mersenne.cache_misses": "count",
    "mersenne.FactorCache.flush_s": "s",
    "mersenne.FactorCache.lines_appended": "count",
    "mersenne.budget_probe.s": "s",
    "mertens.exact.s": "s",
    "constants.k_exact_finite_s.s": "s",
    "constants.k_exact_finite_s.calls": "count",
    "constants.greedy_L.s": "s",
    "constants.rn_recursion.s": "s",
    "constants.transcendental_series.s": "s",
    "fitting.classify_growth.s": "s",
    "fitting.classify_growth.calls": "count",
    "proc.wall_s": "s",
    "proc.cpu_s": "s",
    "proc.ref_loop_s": "s",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# Child processes.


def reference_loop_s() -> float:
    """One timing of a fixed loop that never touches the program: how fast
    this host runs code at this moment.  It mixes the kinds of work the
    program does (interpreter loop, big-integer modular squaring, Fraction
    sums, dict inserts), so host slowdowns hit it as they hit the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    y = 2
    for _ in range(4_000):
        y = (y * y + 1) % REF_MODULUS
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(1, k * k)
    table = {}
    for i in range(8_000):
        table[str(i)] = i
    return time.perf_counter() - t0


def reference_samples() -> list[float]:
    return [reference_loop_s() for _ in range(REF_SAMPLES)]


def pin_to_one_cpu() -> None:
    """Run this process, its children and the reference loop on one CPU, so
    the loop sees the same CPU the children ran on, and a child's thread
    pools do not compete with it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass
class Child:
    rc: int | None  # None when killed at its timeout
    wall: float
    maxrss_mb: float
    cpu: float
    stdout: str
    stderr: str
    ref: float = 0.0  # median reference-loop time around the child

    @property
    def ref_s(self) -> float:
        """The wall time in reference seconds."""
        return self.wall * REF_SECONDS / self.ref


class Runner:
    """Starts children one at a time and waits for each with wait4, which
    gives the child's own peak RSS and CPU time."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("ORBITGROWTH_CACHE", None)

    def run(self, argv: list[str], timeout: float) -> Child:
        killed = False

        with tempfile.TemporaryFile(dir=self.tmp) as out, \
                tempfile.TemporaryFile(dir=self.tmp) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT, start_new_session=True)

            def on_alarm(signum, frame):
                nonlocal killed
                killed = True
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            old = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(
                rc=None if killed else proc.returncode,
                wall=wall,
                maxrss_mb=ru.ru_maxrss / 1024.0,
                cpu=ru.ru_utime + ru.ru_stime,
                stdout=out.read().decode("utf-8", "replace"),
                stderr=err.read().decode("utf-8", "replace"),
            )

    def measured(self, argv: list[str], timeout: float) -> Child:
        """run(), with the reference loop timed just before and just after."""
        before = reference_samples()
        c = self.run(argv, timeout)
        c.ref = statistics.median(before + reference_samples())
        return c

    def checked(self, argv: list[str], timed: bool = False) -> Child:
        c = (self.measured if timed else self.run)(argv, CLI_TIMEOUT_S)
        if c.rc != 0:
            raise SystemExit(f"perfbench: {argv[1:]} exited {c.rc}:\n{c.stderr}")
        return c


# ---------------------------------------------------------------------------
# Passes.


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0  # the children's wall times, summed
    wall_ref_s: float = 0.0  # the children's reference seconds, summed
    ref: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    errors: dict = field(default_factory=dict)  # op -> why it failed
    wrong: list = field(default_factory=list)
    digest: str = ""
    probe_s: float | None = None
    notes: dict = field(default_factory=dict)
    trace: dict | None = None

    @property
    def failed(self) -> int:
        return len(self.errors) + len(self.wrong)

    def add(self, c: Child) -> None:
        self.wall += c.wall
        self.wall_ref_s += c.ref_s
        self.ref.append(c.ref)
        self.peak_rss_mb = max(self.peak_rss_mb, c.maxrss_mb)
        self.cpu += c.cpu


def load_reference() -> dict:
    with open(HERE / "golden" / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def reproduce_pass(runner: Runner, seed: int, traced: bool, ref: dict) -> Pass:
    """Each recipe as a cold `orbitgrowth reproduce --theorem NAME` process."""
    p = Pass(traced=traced, attempted=len(spec.THEOREMS))
    outputs, traces = [], {}
    for name in spec.recipe_order(seed):
        args = ["reproduce", "--theorem", name]
        if traced:
            tpath = runner.tmp / f"trace-{name}.json"
            argv = [PY, WORKER, "cli", "--trace", str(tpath), *args]
        else:
            argv = [PY, "-c", spec.CLI_ENTRY, *args]
        c = runner.measured(argv, CLI_TIMEOUT_S)
        p.add(c)
        op = f"reproduce:{name}"
        if c.rc != 0:
            p.errors[op] = f"exit {c.rc}: {c.stderr.strip()[-300:]}"
            continue
        out = spec.mask_elapsed(c.stdout)
        outputs.append(f"{op}={out}")
        if out != ref["reproduce"][op]:
            p.wrong.append(op)
        if traced:
            traces[name] = json.loads(tpath.read_text(encoding="utf-8"))
    p.digest = hashlib.sha256("\n".join(sorted(outputs)).encode()).hexdigest()
    if traced:
        p.trace = merge_traces(traces)
    return p


def worker_pass(runner: Runner, workload: str, seed: int, traced: bool) -> Pass:
    """One cold child per process group of the workload; each runs its ops
    and checks them."""
    p = Pass(traced=traced)
    work = Path(tempfile.mkdtemp(dir=runner.tmp))
    digests, traces = [], {}
    for group in spec.pass_groups(workload, seed):
        out, tpath = work / "result.json", work / f"trace-{len(traces)}.json"
        argv = [PY, WORKER, "pass", "--workload", workload, "--group", group,
                "--seed", str(seed), "--out", str(out), "--tmp", str(work)]
        if traced:
            argv += ["--trace", str(tpath)]
        c = runner.measured(argv, PASS_TIMEOUT_S)
        p.add(c)
        if c.rc == 0:
            res = json.loads(out.read_text(encoding="utf-8"))
            p.attempted += res["attempted"]
            p.errors.update(res["errors"])
            p.wrong += res["wrong"]
            p.notes.update(res["notes"])
            digests.append(f"{group}={res['digest']}")
            if traced:
                traces[group] = json.loads(tpath.read_text(encoding="utf-8"))
        else:
            p.attempted += spec.op_count(workload, group)
            p.errors[group] = f"worker exit {c.rc}: {c.stderr.strip()[-300:]}"
    p.digest = hashlib.sha256("\n".join(sorted(digests)).encode()).hexdigest()
    if traced:
        p.trace = merge_traces(traces, recipes=False)
    if workload == "exact_cache":
        # The budget probe runs after the pass and stays out of its wall time.
        probe_out = work / "probe.json"
        c = runner.run([PY, WORKER, "probe", "--out", str(probe_out)],
                       PROBE_KILL_S)
        p.probe_s = c.wall
        p.attempted += 1
        if c.rc is None:
            p.errors["budget_probe"] = (f"no BudgetError within {PROBE_KILL_S:g}s "
                                        f"(budget {spec.PROBE_BUDGET_S:g}s)")
        elif c.rc != 0:
            p.errors["budget_probe"] = f"exit {c.rc}: {c.stderr.strip()[-300:]}"
        else:
            res = json.loads(probe_out.read_text(encoding="utf-8"))
            if not res["ok"]:
                p.errors["budget_probe"] = f"inconsistent {res['outcome']}"
    shutil.rmtree(work, ignore_errors=True)
    return p


def run_pass(runner, workload, seed, traced, ref) -> Pass:
    if workload == "reproduce":
        return reproduce_pass(runner, seed, traced, ref)
    return worker_pass(runner, workload, seed, traced)


# ---------------------------------------------------------------------------
# Metrics.


def merge_traces(traces: dict[str, dict], recipes: bool = True) -> dict:
    """Sum the spans and counts of a pass's processes; for reproduce, keep
    each recipe's own time, keyed by the theorem its process ran."""
    spans, counts, per_recipe = {}, {}, {}
    for theorem, tr in traces.items():
        for name, rec in tr["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += rec[k]
        for name, n in tr["counts"].items():
            counts[name] = counts.get(name, 0) + n
        if recipes:
            per_recipe[theorem] = tr["spans"].get("reproduce.run_theorem",
                                                  {}).get("s", 0.0)
    return {"spans": spans, "counts": counts, "recipes": per_recipe}


def layer_metrics(p: Pass) -> dict[str, float]:
    spans, counts = p.trace["spans"], p.trace["counts"]

    def s(name):
        return spans.get(name, {}).get("s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def rate(n, secs):
        return n / secs if secs else 0.0

    m = {f"reproduce.{t}.s": p.trace["recipes"].get(t, 0.0)
         for t in spec.THEOREMS}
    terms = counts.get("mertens.dominant_sum.terms", 0)
    m["mertens.dominant_sum.s"] = s("mertens.dominant_sum")
    m["mertens.dominant_sum.self_s"] = spans.get(
        "mertens.dominant_sum", {}).get("self_s", 0.0)
    m["mertens.dominant_sum.terms"] = terms
    m["mertens.dominant_sum.terms_per_s"] = rate(terms, s("mertens.dominant_sum"))
    m["constants.squarefree_slope.s"] = s("constants.squarefree_slope")
    m["constants.squarefree_slope.terms"] = counts.get(
        "constants.squarefree_slope.terms", 0)
    for kind in INDICATOR_KINDS:
        m[f"sets.indicator.{kind}.s"] = s(f"sets.indicator.{kind}")
        m[f"sets.indicator.{kind}.calls"] = calls(f"sets.indicator.{kind}")
    m["sets.prime_mask.s"] = s("sets.prime_mask")
    for k in ("builds", "reuses"):
        m[f"sets.prime_mask.{k}"] = counts.get(f"sets.prime_mask.{k}", 0)
    m["arith.sieve_primes.s"] = s("arith.sieve_primes")
    m["arith.sieve_primes.calls"] = calls("arith.sieve_primes")
    m["arith.sieve_primes.bytes"] = counts.get("arith.sieve_primes.bytes", 0)
    for fn in ("arith.mult_order", "arith.factorize", "sets.OrderSet.contains",
               "mersenne.factor_mersenne", "constants.k_exact_finite_s",
               "fitting.classify_growth"):
        m[f"{fn}.s"] = s(fn)
        m[f"{fn}.calls"] = calls(fn)
    m["sets.estimate_density.s"] = s("sets.estimate_density")
    m["sets.estimate_density.primes_per_s"] = rate(
        counts.get("sets.estimate_density.primes", 0), s("sets.estimate_density"))
    m["sets.verify_closure_flags.s"] = s("sets.verify_closure_flags")
    m["sets.verify_closure_flags.pairs"] = counts.get(
        "sets.verify_closure_flags.pairs", 0)
    m["mersenne.FactorCache.load_s"] = s("mersenne.FactorCache.load")
    m["mersenne.FactorCache.entries_loaded"] = counts.get(
        "mersenne.FactorCache.entries_loaded", 0)
    for k in ("cache_hits", "cache_misses"):
        m[f"mersenne.factor_mersenne.{k}"] = counts.get(
            f"mersenne.factor_mersenne.{k}", 0)
    m["mersenne.FactorCache.flush_s"] = s("mersenne.FactorCache.flush")
    m["mersenne.FactorCache.lines_appended"] = counts.get(
        "mersenne.FactorCache.lines_appended", 0)
    m["mertens.exact.s"] = sum(s(f"mertens.{fn}") for fn in (
        "mertens_exact", "decompose_lcm_closed", "f_series_direct"))
    for fn in ("greedy_L", "rn_recursion", "transcendental_series"):
        m[f"constants.{fn}.s"] = s(f"constants.{fn}")
    return m


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs) -> tuple[float, float]:
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def summary_line(name: str, unit: str, xs: list[float]) -> str:
    q1, q3 = quartiles(xs)
    return (f"{name:<12} median {median(xs):.6g} {unit}  q1 {q1:.6g}  "
            f"q3 {q3:.6g}  n {len(xs)}")


# ---------------------------------------------------------------------------
# Set-up measurements.


def setup_samples(runner: Runner, n: int) -> list[Child]:
    """Fresh interpreter until `import orbitgrowth.cli` and FactorCache() are
    done, with the reference loop timed around each."""
    return [runner.checked([PY, "-c", spec.SETUP_CODE], timed=True)
            for _ in range(n)]


def import_metrics(runner: Runner) -> dict[str, float]:
    start = [runner.checked([PY, "-c", "pass"]).wall
             for _ in range(IMPORT_SAMPLES)]
    timed = ("import time; t = time.perf_counter(); import orbitgrowth.cli; "
             "print(time.perf_counter() - t)")
    imp = [float(runner.checked([PY, "-c", timed]).stdout)
           for _ in range(IMPORT_SAMPLES)]
    parts: dict[str, list[float]] = {"numpy": [], "mpmath": [],
                                     "orbitgrowth.constants": []}
    for _ in range(IMPORT_SAMPLES):
        err = runner.checked([PY, "-X", "importtime", "-c",
                              "import orbitgrowth.cli"]).stderr
        seen = {}
        for line in err.splitlines():
            cols = line.split("|")
            if len(cols) == 3 and cols[2].strip() in parts:
                seen.setdefault(cols[2].strip(), int(cols[1]) / 1e6)
        for k in parts:
            parts[k].append(seen.get(k, 0.0))
    out = {"cli.python_start_s": median(start), "cli.import_s": median(imp)}
    for k, xs in parts.items():
        out[f"cli.import.{k}_s"] = median(xs)
    return out


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for pkg in ("numpy", "mpmath"):
        info[pkg] = metadata.version(pkg)
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    for level, index in (("l2", 2), ("l3", 3)):
        try:
            info[level] = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}"
                               "/size").read_text().strip()
        except OSError:
            info[level] = "unknown"
    return info


def cache_bytes(text: str) -> int | None:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return None


# ---------------------------------------------------------------------------
# Runs.


def measure(runner: Runner, workload: str, seed: int, seconds: int,
            trace: bool) -> tuple[list[Pass], dict]:
    """Passes back to back until `seconds` have gone; with tracing, each
    iteration is an untraced pass then a traced one.  After the first, an
    iteration starts only if half of one as long as the longest so far
    still fits, so the run ends within half a pass of `seconds`."""
    ref = load_reference()
    # The build step of a Python checkout: byte-compile it, as an install
    # would, so no measured import pays for compiling (bytecode writing may
    # be off in the environment).
    runner.checked([PY, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)])
    setup_samples(runner, 1)  # discarded: the first start after a build
    setup = import_metrics(runner) if trace else {"setup": []}
    passes: list[Pass] = []
    start = time.perf_counter()
    deadline, longest = start + seconds, 0.0
    while not passes or time.perf_counter() + longest / 2 <= deadline:
        t0 = time.perf_counter()
        if not trace:
            setup["setup"] += setup_samples(runner, SETUP_PER_PASS)
        passes.append(run_pass(runner, workload, seed, False, ref))
        if trace:
            passes.append(run_pass(runner, workload, seed, True, ref))
        longest = max(longest, time.perf_counter() - t0)
    if not trace:
        setup["setup"] += setup_samples(
            runner, max(0, SETUP_MIN_SAMPLES - len(setup["setup"])))
    return passes, setup


def report(workload: str, seed: int, trace: bool, passes: list[Pass],
           setup: dict) -> dict:
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True))
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not any(p.wrong for p in passes)
    print(f"workload {workload} seed {seed} trace {int(trace)} "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    for p in passes:
        for op, why in sorted(p.errors.items()):
            print(f"failed {op}: {why}")
        for op in p.wrong:
            print(f"wrong output {op}")
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        correct = False
        print(f"outputs differ between passes ({len(digests)} digests); "
              "the trace must not change results")
    sieve = [p.notes["sieve_bytes"] for p in passes if "sieve_bytes" in p.notes]
    l3 = cache_bytes(info["l3"])
    if sieve and l3:
        print(f"sieve_primes({spec.SIEVE_LIMIT}) arrays {sieve[0]} B "
              f"= {sieve[0] / l3:.2f} x L3 ({info['l3']})")
    print(f"fail_ratio   {failed}/{attempted} = {failed / attempted:.6g}")

    if not trace:
        setup_s = [c.ref_s for c in setup["setup"]]
        walls = [p.wall_ref_s for p in plain]
        rss = [p.peak_rss_mb for p in plain]
        print(summary_line("setup_s", "s", setup_s) + "  (reference seconds)")
        print(summary_line("setup_raw_s", "s", [c.wall for c in setup["setup"]]))
        print(summary_line("wall_ref_s", "s", walls) + "  (reference seconds)")
        print(summary_line("wall_s", "s", [p.wall for p in plain]))
        print(summary_line("ref_loop", "s", [r for p in plain for r in p.ref]))
        print(summary_line("peak_rss_mb", "MB", rss))
        probes = [p.probe_s for p in plain if p.probe_s is not None]
        if probes:
            print(summary_line("budget_probe", "s", probes)
                  + "  (not in wall_s or wall_ref_s)")
        values = {"setup_s": median(setup_s), "wall_ref_s": median(walls),
                  "peak_rss_mb": median(rss),
                  "ok_ratio": 1.0 - failed / attempted}
        units = E2E_UNITS
    else:
        # A traced pass whose worker died has no trace; its layers read 0.
        per_pass = [layer_metrics(p) for p in traced if p.trace is not None]
        values = dict.fromkeys(LAYER_UNITS, 0.0)
        if per_pass:
            values.update({k: median([m[k] for m in per_pass])
                           for k in per_pass[0]})
        values.update(setup)
        probes = [p.probe_s for p in passes if p.probe_s is not None]
        values["mersenne.budget_probe.s"] = median(probes)
        values["proc.wall_s"] = median([p.wall for p in plain])
        values["proc.cpu_s"] = median([p.cpu for p in plain])
        values["proc.ref_loop_s"] = median([r for p in plain for r in p.ref])
        values["trace.overhead_ratio"] = (median([p.wall_ref_s for p in traced])
                                          / median([p.wall_ref_s for p in plain]))
        units = LAYER_UNITS
        for name in units:
            print(f"{name:<44} {values[name]:.6g} {units[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench")
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orbitgrowth" / "__init__.py").is_file():
        print(f"perfbench: no orbitgrowth sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    tmp = ROOT / spec.TMP_DIRNAME / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        runner = Runner(tmp)
        passes, setup = measure(runner, args.workload, args.seed, args.seconds,
                                bool(args.trace))
        result = report(args.workload, args.seed, bool(args.trace), passes,
                        setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
