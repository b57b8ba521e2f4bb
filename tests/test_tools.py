"""The seed-cache regeneration tool reproduces the packaged seed file."""

import os
import subprocess
import sys
from pathlib import Path

import orbitgrowth

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(orbitgrowth.__file__).resolve().parent.parent)
SEED = Path(orbitgrowth.__file__).resolve().parent / "data" / "mersenne_m128.jsonl"


def test_build_seed_cache_matches_packaged_seed(tmp_path):
    out = tmp_path / "seed.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "build_seed_cache.py"),
         "--max-exponent", "64", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seed_head = b"".join(SEED.read_bytes().splitlines(keepends=True)[:64])
    assert out.read_bytes() == seed_head
