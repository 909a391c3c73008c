"""The benchmark harness at its smallest size, run on a copy of the checkout:
every workload answers correctly, and the lie-ladder run builds its algebra
files through ``matlie``'s catalog names and traces every entry point, so a
moved constructor or a renamed rung fails here."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# A run's bound is 30 s: SIGTERM after 28 s, which run.py turns into killing
# and reaping the call it started, then 2 s to exit before SIGKILL.
TERM_AFTER_S, EXIT_GRACE_S = 28, 2


def _bench(tmp_path, workload: str, trace: int) -> dict:
    """The result line of ``perfbench/run.py`` at seed 0 and one second."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=TERM_AFTER_S)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.communicate(timeout=EXIT_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate(timeout=EXIT_GRACE_S)
        pytest.fail(f"perfbench {workload} ran past {TERM_AFTER_S} s")
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def test_lie_ladder_traced_run_is_correct(tmp_path):
    assert _bench(tmp_path, "lie-ladder", 1)["correct"] is True


@pytest.mark.parametrize("workload", ["ideal-calculus", "witness-truncation"])
def test_plain_run_is_correct(tmp_path, workload):
    result = _bench(tmp_path, workload, 0)
    assert result["correct"] is True and result["failed"] == 0
