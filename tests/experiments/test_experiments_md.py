"""EXPERIMENTS.md is exactly what the generator prints.

Every reproduced table and figure lands in EXPERIMENTS.md, so a change
to any of them must come with the regenerated file:
``python scripts/generate_experiments_md.py > EXPERIMENTS.md``.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_experiments_md_regenerates_byte_for_byte():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "generate_experiments_md.py")],
        capture_output=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    pinned = (ROOT / "EXPERIMENTS.md").read_bytes()
    if proc.stdout != pinned:
        diff = difflib.unified_diff(
            pinned.decode().splitlines(), proc.stdout.decode().splitlines(),
            "EXPERIMENTS.md", "regenerated", lineterm="", n=1,
        )
        raise AssertionError("\n".join(list(diff)[:60]))
