"""Executable calculus for operator-ideal softness questions and exact
simplicity decisions for rational matrix Lie algebras.

Submodules load on first attribute access; ``import idealkit`` imports none.

- ``seqspace``: symbolic nonincreasing null sequences, exact big-O/little-o
  decisions, dyadic-ratio checks, and a numeric corroboration probe.
- ``idealcalc``: ideals presented via characteristic sets; membership,
  softness, idempotency and the implication chain between them.
- ``matlie``: exact-rational matrix Lie algebras; closure, derived algebra,
  generated ideals, Killing form, adjoint commutant, simplicity ladder.
- ``witness``: machine-checkable non-simplicity certificates for weighted
  shift models.
- ``dsl`` / ``cli``: text syntax and the command line front end.
- ``base``: names every layer shares (``InputError``, ``Frozen``, the
  rational digit cap and reader); it imports no other submodule.
"""

import importlib

__all__ = ["base", "cli", "dsl", "idealcalc", "matlie", "ratlinalg", "seqspace", "witness"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
