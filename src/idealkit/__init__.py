"""Executable calculus for operator-ideal softness questions and exact
simplicity decisions for rational matrix Lie algebras.

Submodules:

- ``seqspace``: symbolic nonincreasing null sequences, exact big-O/little-o
  decisions, dyadic-ratio checks, and a numeric corroboration probe.
- ``idealcalc``: ideals presented via characteristic sets; membership,
  softness, idempotency and the implication chain between them.
- ``matlie``: exact-rational matrix Lie algebras; closure, derived algebra,
  generated ideals, Killing form, adjoint commutant, simplicity ladder.
- ``witness``: machine-checkable non-simplicity certificates for weighted
  shift models.
- ``dsl`` / ``cli``: text syntax and the command line front end.
"""

from . import dsl, idealcalc, matlie, ratlinalg, seqspace, witness

__all__ = ["cli", "dsl", "idealcalc", "matlie", "ratlinalg", "seqspace", "witness"]
__version__ = "0.1.0"
