"""No module of the package imports a name it never uses or imports
threading, `sets` does not import `mersenne`, every public definition,
method and property has a caller outside the tests, and the CLI does not
import mpmath, or build the Pollard p - 1 exponent, before a command needs
it.

A name bound by an import counts as used when the module reads it anywhere
or lists it in `__all__`; `from __future__` imports bind nothing.
"""

import ast
import os
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


# Independent oracles, called only by tests: `cyclotomic_eval2` bounds the
# primitive parts of 2^n - 1, and `euler_phi` gives the exponent of the
# paper's bound 2^(phi(n) - 2) on both.
ORACLES = {"arith.cyclotomic_eval2", "arith.euler_phi"}


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


# Membership and density need no factor cache: the lcm strata, which read
# the factorizations of 2^n - 1, live in `mertens`, so `sets` sits below
# `mersenne` in the layering and never imports it.
def test_sets_does_not_import_mersenne():
    modules = [m for m, _ in imported_modules(PACKAGE / "sets.py")]
    assert ".arith" in modules
    assert [m for m in modules if m.split(".")[-1] == "mersenne"] == []


def test_cli_import_leaves_mpmath_unloaded():
    # Every cold CLI process pays for what `orbitgrowth.cli` imports; only
    # the section 9 bounds use mpmath, so they import it themselves.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, orbitgrowth.cli; print('mpmath' in sys.modules, "
         "orbitgrowth.arith._pm1_exponent)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # Nor does it build the Pollard p - 1 exponent, which factoring builds
    # on first use.
    assert proc.stdout.strip() == "False None"
