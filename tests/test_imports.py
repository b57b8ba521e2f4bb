"""No module of the package imports a name it never uses, and the CLI
does not import mpmath before a command needs it.

A name bound by an import counts as used when the module reads it anywhere
or lists it in `__all__`; `from __future__` imports bind nothing.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orbitgrowth"


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


def test_cli_import_leaves_mpmath_unloaded():
    # Every cold CLI process pays for what `orbitgrowth.cli` imports; only
    # the section 9 bounds use mpmath, so they import it themselves.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, orbitgrowth.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
