"""No module of the package imports a name it never uses or imports
threading, neither `sets` nor `mertens` imports `mersenne`, every public
definition, method and property has a caller outside the tests, the
integer core and the modules above it import no array code when they
load, the CLI does not import numpy or mpmath, or build the Pollard p - 1
exponent, before a command needs it, and neither it nor the factor cache
loads dataclasses, which no module imports.  No module imports numpy when
it loads: the array layer shares one lazily loaded numpy, located by name
in one place, whose code runs on the first array, so the exact paths and
the fits never run it.
Every name the benchmark imports from the package exists, and so does every
attribute it reads off such a function's result.

A name bound by an import counts as used when the module reads it anywhere
or lists it in `__all__`; `from __future__` imports bind nothing.
"""

import ast
import importlib
import json
import math
import os
import typing
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbitgrowth"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_checker():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from .arith import ord_p, sieve_primes\n"
              "__all__ = ['sieve_primes']\n"
              "x = np.zeros(3)\n")
    assert unused_imports(source) == ["ord_p (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def public_definitions(source: str) -> list[str]:
    """Names of the top-level functions and classes not starting with _,
    and `Class.name` for each method or property of such a class not
    starting with _."""
    out = []
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += [f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")]
    return out


def names_read(source: str) -> tuple[set[str], set[str]]:
    """The names the source reads bare, and those it reads as attributes."""
    bare, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return bare, attrs


def uncalled(definitions: dict[str, str], callers: list[str]) -> list[str]:
    """`module.name` of every public definition no caller source reads: a
    module-level name read bare or as an attribute, a method or property
    read as an attribute."""
    bare, attrs = set(), set()
    for source in callers:
        b, a = names_read(source)
        bare |= b
        attrs |= a
    out = []
    for module, source in definitions.items():
        for name in public_definitions(source):
            _, dot, member = name.rpartition(".")
            if member not in attrs and (dot or member not in bare):
                out.append(f"{module}.{name}")
    return sorted(out)


# An independent oracle, called only by tests: `euler_phi` gives the
# exponent of the paper's bound 2^(phi(n) - 2) on the primitive parts of
# 2^n - 1.
ORACLES = {"integers.euler_phi"}


def test_caller_checker():
    defs = {"m": ("def used(): pass\n"
                  "def _private(): pass\n"
                  "class Unused: pass\n"
                  "def attr_only(): pass\n"
                  "def written(): pass\n"
                  "class Used:\n"
                  "    def called(self): pass\n"
                  "    def _private(self): pass\n"
                  "    @property\n"
                  "    def prop(self): pass\n"
                  "    def bare_only(self): pass\n"
                  "    def unread(self): pass\n")}
    callers = ["used()\n", "import m\nm.attr_only\nm.written = 1\n"
               "def Unused(): pass\n",
               "u = m.Used()\nu.called()\nu.prop\nbare_only\nu.unread = 1\n"]
    assert uncalled(defs, callers) == ["m.Unused", "m.Used.bare_only",
                                       "m.Used.unread", "m.written"]


def test_every_public_definition_has_a_caller():
    # A re-export in __init__.py is not a caller; the package's own
    # modules, the demos, the tools and the benchmark are.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    outside = [p for d in ("demos", "tools", "perfbench")
               for p in sorted((ROOT / d).glob("*.py"))]
    definitions = {p.stem: p.read_text(encoding="utf-8") for p in modules}
    callers = [p.read_text(encoding="utf-8") for p in modules + outside]
    assert [name for name in uncalled(definitions, callers)
            if name not in ORACLES] == []


def benchmark_surface_breaks(source: str) -> list[str]:
    """What the source uses of the package that the package lacks: a name
    imported `from orbitgrowth.x`, or an attribute read off the call of such
    a function that its return annotation does not have."""
    tree = ast.parse(source)
    out, imported = [], {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("orbitgrowth.")):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    imported[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    out.append(f"{node.module}.{alias.name} (line {node.lineno})")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) in imported):
            name = node.value.func.id
            ret = typing.get_type_hints(imported[name])["return"]
            if not (hasattr(ret, node.attr)
                    or node.attr in getattr(ret, "__annotations__", {})):
                out.append(f"{name}(...).{node.attr} (line {node.lineno})")
    return out


def test_benchmark_surface_checker():
    source = ("from orbitgrowth.arith import OrderTable, no_such_name\n"
              "from orbitgrowth.constants import k_exact_finite_s as k\n"
              "k([3, 7]).value\n"
              "k([3, 7]).provenance\n")
    assert benchmark_surface_breaks(source) == [
        "orbitgrowth.arith.no_such_name (line 1)", "k(...).provenance (line 4)"]


# The benchmark imports the package's functions by name, so a rename or a
# deleted field fails here rather than in a benchmark run.
@pytest.mark.parametrize("path", sorted((ROOT / "perfbench").glob("*.py")),
                         ids=lambda p: p.name)
def test_benchmark_import_surface(path):
    assert benchmark_surface_breaks(path.read_text(encoding="utf-8")) == []


def imported_modules(path: Path) -> list[tuple[str, int]]:
    """(module, line) for every module an import statement of the file
    names; a relative `from .x import y` gives `.x`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append(("." * node.level + (node.module or ""), node.lineno))
    return out


# The package is single-threaded by contract: each process runs one
# thread, and processes share the factor cache through flock.  A lock
# would guard against threads that nothing starts.
def test_no_module_imports_threading():
    assert [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
            for module, line in imported_modules(path)
            if module.split(".")[0] == "threading"] == []


# Membership and density need no factor cache, so `sets` sits below
# `mersenne` in the layering and never imports it.
def test_sets_does_not_import_mersenne():
    modules = [m for m, _ in imported_modules(PACKAGE / "sets.py")]
    assert ".arith" in modules
    assert [m for m in modules if m.split(".")[-1] == "mersenne"] == []


# Nor do the exact series: an induced set's removal is a product of
# cyclotomic values Phi_d(2), not of cached factorizations of 2^n - 1.
def test_mertens_does_not_import_mersenne():
    modules = [m for m, _ in imported_modules(PACKAGE / "mertens.py")]
    assert ".integers" in modules
    assert [m for m in modules if m.split(".")[-1] == "mersenne"] == []


# Every fit is a fitting.fit_model fit: no other module reaches for its
# least-squares routine.
def test_only_fitting_runs_least_squares():
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "fitting.py"
            and "_linear_fit" in path.read_text(encoding="utf-8")] == []


# The package's __init__ imports none of its modules, so loading the order
# sets or the exact series does not load `mersenne` through it either.
def test_sets_and_mertens_load_no_mersenne():
    assert run_child("import sys, orbitgrowth.sets, orbitgrowth.mertens\n"
                     "print('orbitgrowth.mersenne' in sys.modules)") == "False"


def import_time_modules(path: Path) -> list[tuple[str, int]]:
    """(module, line) for every import the file runs when it is loaded: all
    but those inside function bodies.  `orbitgrowth.x` is given as `.x`."""
    out = []
    stack = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            out += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append(("." * node.level + (node.module or ""), node.lineno))
        stack.extend(ast.iter_child_nodes(node))
    return [("." + m.removeprefix("orbitgrowth.") if m.startswith("orbitgrowth.")
             else m, line) for m, line in out]


# The exact commands run on the integer core: these modules load no array
# code, and the CLI handlers and reproduce recipes import the array layer
# only when they run a command that needs it.
NUMPY_FREE = ("integers", "errors", "fitting", "mersenne", "constants", "reproduce",
              "cli")
ARRAY_LAYER = {".arith", ".sets", ".mertens"}


def test_import_time_checker(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\n"
                    "from . import errors\n"
                    "from orbitgrowth.sets import x\n"
                    "try:\n    import json\nexcept ImportError:\n    pass\n"
                    "def f():\n    from .arith import y\n"
                    "class C:\n    from .mertens import z\n"
                    "    def g(self):\n        import mpmath\n")
    assert sorted(import_time_modules(path)) == [
        (".", 2), (".mertens", 11), (".sets", 3), ("json", 5), ("numpy", 1)]


def test_integer_core_loads_no_array_code():
    assert [f"{name}.py:{line} {module}" for name in NUMPY_FREE
            for module, line in import_time_modules(PACKAGE / f"{name}.py")
            if module.split(".")[0] == "numpy" or module in ARRAY_LAYER] == []


def numpy_lookups(source: str) -> list[str]:
    """`where:callee` of every call in the source that is passed the name of
    numpy or of one of its submodules: the function that makes the call
    (`<module>` at top level) and the function called."""
    out = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Call) and any(
                    isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                    and arg.value.split(".")[0] == "numpy"
                    for arg in child.args):
                out.append(f"{where}:{ast.unparse(child.func)}")
            walk(child, where)

    walk(ast.parse(source), "<module>")
    return out


def test_numpy_lookup_checker():
    source = ("np = lazy('numpy')\n"
              "def f():\n    return importlib.import_module('numpy.linalg')\n"
              "def g():\n    return lazy('numbers'), print(np)\n")
    assert numpy_lookups(source) == ["<module>:lazy",
                                     "f:importlib.import_module"]


# numpy costs about 0.1 s of every cold process that runs it.  No module
# imports it when it loads, so importing the array layer costs no numpy: a
# later top-level `import numpy` would bring the cost back to every process
# that imports the layer, and would pass every output test.
def test_no_module_imports_numpy_when_it_loads():
    assert [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
            for module, line in import_time_modules(path)
            if module.split(".")[0] == "numpy"] == []


# The array layer binds `np` from `arith`, whose one lazy module runs
# numpy's code on the first attribute read.  An import of numpy anywhere
# else, even in a function body, would be a second way in.
def test_numpy_is_located_in_one_place():
    assert [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
            for module, line in imported_modules(path)
            if module.split(".")[0] == "numpy"] == []
    assert [f"{path.name}:{where}" for path in sorted(PACKAGE.glob("*.py"))
            for where in numpy_lookups(path.read_text(encoding="utf-8"))
            ] == ["arith.py:<module>:_lazy_module"]


def run_child(code: str, *argv: str, flags: tuple[str, ...] = ()) -> str:
    """The last stdout line of a fresh interpreter running `code`, started
    with the interpreter `flags`; it must exit 0 and, given flags, write
    nothing to stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert not flags or proc.stderr == ""
    return proc.stdout.splitlines()[-1]


def test_cli_and_factor_cache_leave_dataclasses_unloaded():
    # dataclasses, with the inspect it imports, was the largest part of
    # `import orbitgrowth.cli`; the classes on that path are plain ones.
    assert run_child("import sys, orbitgrowth.cli\n"
                     "from orbitgrowth.mersenne import FactorCache\n"
                     "FactorCache()\n"
                     "print('dataclasses' in sys.modules)") == "False"


# The result records are namedtuples, so no module of the package needs
# dataclasses, whose class generation each cold recipe process paid for.
def test_no_module_imports_dataclasses():
    assert [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
            for module, line in import_time_modules(path)
            if module == "dataclasses"] == []


@pytest.mark.parametrize("theorem", ["dense", "section9"])
def test_exact_recipes_leave_dataclasses_unloaded(theorem):
    assert run_child("import sys\n"
                     "from orbitgrowth.cli import main\n"
                     "code = main(sys.argv[1:])\n"
                     "print(code, 'dataclasses' in sys.modules)\n",
                     "reproduce", "--theorem", theorem) == "0 False"


# Runs the CLI on its arguments, then prints whether numpy was loaded.
AFTER_COMMAND = ("import sys\n"
                 "from orbitgrowth.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "print(code, 'numpy' in sys.modules)\n")


def test_cli_import_leaves_mpmath_unloaded(tmp_path):
    # Every cold CLI process pays for what `orbitgrowth.cli` imports; only
    # the section 9 bounds use mpmath, so they import it themselves.  Nor
    # does it build the Pollard p - 1 exponent, which factoring builds on
    # first use, or load numpy.
    assert run_child("import sys, orbitgrowth.cli; print('mpmath' in sys.modules, "
                     "'numpy' in sys.modules, orbitgrowth.integers._pm1_exponent)"
                     ) == "False False None"
    # Each exact command runs without numpy ...
    cache = str(tmp_path / "cache.jsonl")
    for argv in (["k-exact", "--set", "3,7"], ["order", "--prime", "233"],
                 ["factor", "--cache", cache, "--exponent", "29"],
                 ["greedy", "--target", "3/4", "--eps", "1/10"],
                 ["construct", "rn", "--delta", "1/2"],
                 ["series-transcendental", "--ell", "3", "--terms", "4"],
                 ["reproduce", "--theorem", "dense"],
                 ["reproduce", "--theorem", "section9"]):
        assert run_child(AFTER_COMMAND, *argv) == "0 False", argv
    # ... while one that builds an array loads it, so the probe can see it.
    assert run_child(AFTER_COMMAND, "sieve", "--limit", "100") == "0 True"


# Whether numpy's code has run.  The array layer's numpy is a lazy module,
# so after `import orbitgrowth.sets` the name 'numpy' is in sys.modules
# before numpy has run; numpy._core is imported only when it does.
NUMPY_RAN = "'numpy._core' in sys.modules"

# Runs the CLI on its arguments, then prints whether numpy's code ran.
AFTER_COMMAND_RAN = AFTER_COMMAND.replace("'numpy' in sys.modules", NUMPY_RAN)


def test_array_layer_import_runs_no_numpy():
    assert run_child("import sys\n"
                     "import orbitgrowth.arith, orbitgrowth.sets\n"
                     "import orbitgrowth.mertens, orbitgrowth.fitting\n"
                     f"print('numpy' in sys.modules, {NUMPY_RAN})") == "True False"


INDUCED_SPEC = {"kind": "induced",
                "order_set": {"kind": "multiples_of", "ells": [3]}}
FINITE_SPEC = {"kind": "explicit_finite", "primes": [3, 7]}
# A congruence source keeps its primes in an array made on the first
# window, so exact membership, which asks it about single primes, makes none.
ONE_MOD_3 = {"kind": "congruence_primes", "modulus": 3, "residues": [1]}
CONGRUENCE_SPECS = [
    {"kind": "induced", "order_set": {"kind": "multiples_of", "ell_set": ONE_MOD_3}},
    {"kind": "induced", "order_set": ONE_MOD_3},
    {"kind": "induced", "order_set": {"kind": "omega_bounded", "r": 1,
                                      "ell_set": ONE_MOD_3, "m": 6}},
]


@pytest.mark.parametrize("spec", [INDUCED_SPEC, FINITE_SPEC, *CONGRUENCE_SPECS],
                         ids=["induced", "finite", "multiples_of_congruence",
                              "congruence_primes", "omega_bounded_congruence"])
def test_exact_series_runs_no_numpy(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run_child(AFTER_COMMAND_RAN, "series", "--spec", str(path),
                     "--n-max", "120", "--mode", "exact",
                     "--out", str(tmp_path / "series.csv"),
                     flags=("-W", "error")) == "0 False"


# The fits are closed-form least squares on a few dozen points, so the
# commands that only fit run no numpy: the `zero` recipe, which classifies
# an exact series, and `fit` on a series CSV.
def test_fit_commands_run_no_numpy(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("N,value\n" + "".join(
        f"{n},{0.6 * math.log(n) + 0.1!r}\n" for n in (10**k for k in range(1, 10))),
        encoding="utf-8")
    for argv in (["reproduce", "--theorem", "zero"],
                 ["fit", "--in", str(path), "--model", "auto"]):
        assert run_child(AFTER_COMMAND_RAN, *argv,
                         flags=("-W", "error")) == "0 False", argv


# numpy's code runs once, on the first array: under -W error a second run of
# its core would fail on numpy's "module was reloaded" warning.
def test_commands_that_make_arrays_run_numpy(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(INDUCED_SPEC), encoding="utf-8")
    for argv in (["sieve", "--limit", "100"],
                 ["series", "--spec", str(path), "--n-max", "100",
                  "--mode", "dominant", "--out", str(tmp_path / "series.csv")],
                 ["set-density", "--spec", str(path), "--limit", "1000"]):
        assert run_child(AFTER_COMMAND_RAN, *argv,
                         flags=("-W", "error")) == "0 True", argv


# What the benchmark's three exact_cache processes call, in one process:
# factoring into a fresh cache file, reading it back, exact Mertens series,
# the strata against the direct sum, and an exact k_S.
EXACT_CACHE_CALLS = f"""
import sys
from orbitgrowth.arith import OrderTable
from orbitgrowth.constants import k_exact_finite_s
from orbitgrowth.mersenne import FactorCache, factor_mersenne
from orbitgrowth.mertens import decompose_lcm_closed, f_series_direct, mertens_exact
from orbitgrowth.sets import InducedPrimes, order_set_from_json, prime_set_from_json

path = sys.argv[1]
cache = FactorCache(path=path)
for m in (131, 143):  # past the seed cache, which ends at 128
    factor_mersenne(m, cache)
assert cache.flush() == 2
cache, orders = FactorCache(path=path), OrderTable()
assert 131 in cache and 143 in cache
for spec in {[INDUCED_SPEC, FINITE_SPEC]!r}:
    mertens_exact(120, prime_set_from_json(spec), orders, cache)
oset = order_set_from_json({{"kind": "ell_powers", "ell": 2}})
dec, _ = decompose_lcm_closed(120, oset, orders, cache)
assert dec.samples == f_series_direct(120, InducedPrimes(oset), orders, cache).samples
assert str(k_exact_finite_s([3, 7]).value) == "269/576"
print({NUMPY_RAN})
"""


def test_exact_cache_calls_run_no_numpy(tmp_path):
    assert run_child(EXACT_CACHE_CALLS, str(tmp_path / "cache.jsonl"),
                     flags=("-W", "error")) == "False"


# One numpy object, whichever side imports it first.
@pytest.mark.parametrize("imports", [
    "import numpy\nfrom orbitgrowth import sets\n",
    "from orbitgrowth import sets\nimport numpy\n"],
    ids=["numpy_first", "sets_first"])
def test_lazy_numpy_is_the_imported_numpy(imports):
    assert run_child("import sys\n" + imports + "z = numpy.zeros(3)\n"
                     "print(sys.modules['numpy'] is sets.np is numpy, z.tolist())",
                     flags=("-W", "error")) == "True [0.0, 0.0, 0.0]"
