"""Executable calculus for operator-ideal softness questions and exact
simplicity decisions for rational matrix Lie algebras.

Submodules load on first attribute access; ``import idealkit`` imports none.

- ``seqspace``: symbolic nonincreasing null sequences, exact big-O/little-o
  decisions, dyadic-ratio checks, and a numeric corroboration probe.
- ``idealcalc``: ideals presented via characteristic sets; membership,
  softness, idempotency and the implication chain between them.
- ``matlie``: exact-rational matrix Lie algebras; closure, derived algebra,
  generated ideals, Killing form, adjoint commutant, simplicity ladder.
- ``catalog``: the named algebras (sl, sp, ...), ``make_algebra``, direct
  sums and writing algebra files.
- ``witness``: machine-checkable non-simplicity certificates for weighted
  shift models.
- ``dsl`` / ``cli``: text syntax and the command line front end; each
  group's handler lives in ``cli_seq``, ``cli_ideal``, ``cli_lie`` or
  ``cli_witness`` and loads only when that group is called.
- ``base``: names every layer shares (``InputError``, ``Frozen``, the
  rational digit cap and reader); it imports no other submodule.

Each name is imported from the module that defines it.
"""

import importlib

__all__ = ["base", "catalog", "cli", "dsl", "idealcalc", "matlie", "ratlinalg", "seqspace",
           "witness"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
