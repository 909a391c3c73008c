"""The benchmark harness at its smallest size, run on a copy of the checkout:
it builds its algebra files through ``matlie``'s catalog names and traces
every entry point, so a moved constructor or a renamed rung fails here."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lie_ladder_traced_run_is_correct(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", ".perfbench")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lie-ladder", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is True
