"""Span and counter recording around orbitgrowth's public functions.

The tracer wraps, from outside the package, every public module-level
function of the traced modules plus a few methods (order-set membership and
indicators, factor-cache load and flush), and rebinds every reference the
package holds to them, including `from x import y` copies and module-level
dict values such as the recipe table.  Each call records a span; a span's
self time is its duration minus the time of its child spans, and a
recursive function's total counts only its outermost calls.  Spans stay in
memory and are written once, when the traced process ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import weakref
from functools import wraps
from time import perf_counter

import numpy as np

TRACED_MODULES = ("arith", "sets", "mertens", "mersenne", "constants",
                  "fitting", "reproduce", "cli")


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [name, child_s] per open span
        self._depth: dict[str, int] = {}
        self._seen_masks: dict[int, weakref.ref] = {}

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name, fn, pre=None, post=None):
        """`name` is a string or a function of the call's args giving one."""
        stack, depth, spans = self._stack, self._depth, self.spans

        @wraps(fn)
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            if pre is not None:
                pre(self, args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            depth[span] = depth.get(span, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                depth[span] -= 1
                rec = spans.get(span)
                if rec is None:
                    rec = spans[span] = [0, 0.0, 0.0]
                rec[0] += 1
                if not depth[span]:
                    rec[1] += dur
                rec[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if post is not None:
                post(self, result, args, kwargs)
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "spans": {k: {"calls": c, "s": s, "self_s": ss}
                      for k, (c, s, ss) in self.spans.items()},
            "counts": self.counts,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)


# ---------------------------------------------------------------------------
# Counters taken at layer boundaries from arguments and results.


def _sieve_bytes(tr, table, args, kwargs):
    tr.count("arith.sieve_primes.bytes",
             table.primes.nbytes + table.smallest_factor.nbytes)


def _prime_mask_reuse(tr, mask, args, kwargs):
    # A mask handed out before (same object) is a reuse; anything else a build.
    # Weak references, so the tracer never keeps a mask alive.
    prev = tr._seen_masks.get(id(mask))
    if prev is not None and prev() is mask:
        tr.count("sets.prime_mask.reuses")
    else:
        tr._seen_masks[id(mask)] = weakref.ref(mask)
        tr.count("sets.prime_mask.builds")


def _dominant_terms(tr, member, args, kwargs):
    # dominant_sum accumulates exactly the non-members in [1, n_max].
    if tr.parent() == "mertens.dominant_sum":
        tr.count("mertens.dominant_sum.terms",
                 len(member) - 1 - int(np.count_nonzero(member[1:])))


def _squarefree_terms(tr, mask, args, kwargs):
    if tr.parent() == "constants.squarefree_slope":
        tr.count("constants.squarefree_slope.terms", int(np.count_nonzero(mask)))


def _density_primes(tr, est, args, kwargs):
    tr.count("sets.estimate_density.primes", est.total_count)


def _closure_pairs(tr, report, args, kwargs):
    tr.count("sets.verify_closure_flags.pairs", report.pairs_tested)


def _cache_entries(tr, _, args, kwargs):
    tr.count("mersenne.FactorCache.entries_loaded", len(args[0].exponents()))


def _flush_lines(tr, n, args, kwargs):
    tr.count("mersenne.FactorCache.lines_appended", n)


def _factor_lookup(tr, args, kwargs):
    m = args[0]
    cache = args[1] if len(args) > 1 else kwargs.get("cache")
    hit = cache is not None and m in cache
    tr.count("mersenne.factor_mersenne.cache_hits" if hit
             else "mersenne.factor_mersenne.cache_misses")


POST_HOOKS = {
    "arith.sieve_primes": _sieve_bytes,
    "sets.prime_mask": _prime_mask_reuse,
    "sets.squarefree_mask": _squarefree_terms,
    "sets.estimate_density": _density_primes,
    "sets.verify_closure_flags": _closure_pairs,
}
PRE_HOOKS = {"mersenne.factor_mersenne": _factor_lookup}


def _indicator_name(args) -> str:
    return f"sets.indicator.{args[0].kind}"


def install(tracer: Tracer) -> None:
    """Wrap the traced layers and rebind every reference the package holds."""
    import importlib

    mods = {short: importlib.import_module(f"orbitgrowth.{short}")
            for short in TRACED_MODULES}
    swaps: dict[int, tuple[object, object]] = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            swaps[id(obj)] = (obj, tracer.wrap(name, obj, PRE_HOOKS.get(name),
                                               POST_HOOKS.get(name)))

    sets, mersenne = mods["sets"], mods["mersenne"]
    for cls in vars(sets).values():
        if (inspect.isclass(cls) and issubclass(cls, sets.OrderSet)
                and "indicator" in vars(cls)):
            cls.indicator = tracer.wrap(_indicator_name, vars(cls)["indicator"],
                                        post=_dominant_terms)
    sets.OrderSet.contains = tracer.wrap("sets.OrderSet.contains",
                                         sets.OrderSet.contains)
    fc = mersenne.FactorCache
    fc.__init__ = tracer.wrap("mersenne.FactorCache.load", fc.__init__,
                              post=_cache_entries)
    fc.flush = tracer.wrap("mersenne.FactorCache.flush", fc.flush,
                           post=_flush_lines)

    for modname, mod in list(sys.modules.items()):
        if modname != "orbitgrowth" and not modname.startswith("orbitgrowth."):
            continue
        for attr, obj in list(vars(mod).items()):
            swap = swaps.get(id(obj))
            if swap is not None and swap[0] is obj:
                setattr(mod, attr, swap[1])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    swap = swaps.get(id(val))
                    if swap is not None and swap[0] is val:
                        obj[key] = swap[1]
