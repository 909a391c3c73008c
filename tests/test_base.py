"""The shared base module: each layer imports its names from it, and the Lie
engine reaches the sequence calculus only where it evaluates shift weights."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from idealkit import base, dsl, idealcalc, matlie, ratlinalg, rates, seqspace, witness

from conftest import SRC, run_process


@pytest.mark.parametrize(
    "module,name",
    [
        (seqspace, "InputError"),
        (seqspace, "Frozen"),
        (rates, "MAX_RATIONAL_DIGITS"),
        (seqspace, "as_fraction"),
        (seqspace, "DEFAULT_NMAX"),
        (seqspace, "DEFAULT_EPS"),
        (dsl, "parse_rational"),
        (dsl, "MAX_RATIONAL_DIGITS"),
        (dsl, "InputError"),
        (idealcalc, "InputError"),
        (witness, "InputError"),
        (matlie, "InputError"),
        (matlie, "Frozen"),
        (ratlinalg, "as_fraction"),
    ],
)
def test_reexports_are_the_base_objects(module, name):
    # a layer's own import of a base name: base's object, and not in its __all__
    assert getattr(module, name) is getattr(base, name)
    assert name not in module.__all__


def test_base_imports_no_other_layer():
    probe = ("import json, sys, idealkit.base; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('idealkit.'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == ["idealkit.base"]


def _lie_build_shift(weights):
    return run_process(["lie", "build", "shift", "--n", "4", "--weights", weights, "--json"])


def test_shift_build_reaches_the_lazy_weight_imports():
    # a fresh interpreter, so dsl and seqspace are first imported by the call
    out = _lie_build_shift("pow:1")
    assert out.returncode == 0, out.stderr
    basis = json.loads(out.stdout)["algebra"]["basis"]
    assert basis == [[0, 1, 0, 0, 0, 0, "1/2", 0, 0, 0, 0, "1/3", 0, 0, 0, 0]]


def test_shift_build_invalid_weights_exit_two():
    out = _lie_build_shift("exp:2")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith("error: ") and "Exp ratio" in out.stderr
