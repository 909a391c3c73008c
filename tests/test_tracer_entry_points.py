"""The benchmark tracer's entry points exist, so a renamed rung fails here
instead of making a traced benchmark run exit with MISSING_ENTRY_EXIT."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from idealkit import ratlinalg

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # loading only defines ENTRY_POINTS; install() and main() are not run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entry_points_are_callable(tracer):
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracer.ENTRY_POINTS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_ratlinalg_all_names_exist():
    assert [name for name in ratlinalg.__all__ if getattr(ratlinalg, name, None) is None] == []


def test_matrix_type_lives_in_ratlinalg_outside_its_all():
    from idealkit import matlie

    assert matlie.RationalMatrix is ratlinalg.RationalMatrix
    assert matlie.bracket is ratlinalg.bracket
    assert {"RationalMatrix", "bracket"} <= set(matlie.__all__)
    assert {"RationalMatrix", "bracket"}.isdisjoint(ratlinalg.__all__)
