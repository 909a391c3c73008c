"""``idealkit lie``: build catalog algebras and run the simplicity ladder's
rungs on algebra files.  Only ``lie build`` loads the catalog."""

from __future__ import annotations

from . import matlie
from .base import TOO_MANY_DIGITS, InputError, fits_digit_cap
from .matlie import _encode_rational

# Most random-search work that ``simple --cross-check N`` accepts, counted
# as N times d³ for an algebra of dimension d: a sample spins an ideal of up
# to d vectors under d adjoint maps.  At the limit, in process on a 2-core
# x86_64 VM, sl(14) (d = 195) takes 1 sample in 0.9 s, sp(8) (d = 136) 3 in
# 1.1 s, sp(5)+sp(5) (d = 110), the slowest per d³ measured, 7 in about 31 s,
# and sl(2) 370,370 in 11 s.
MAX_CROSS_CHECK_WORK = 10 ** 7


def _report_rational(f):
    """A rational of a report as a file writes it, or the marker past the
    digit cap, which a file never holds."""
    return _encode_rational(f) if fits_digit_cap(f) else TOO_MANY_DIGITS


def _subspace_json(sub) -> dict:
    return {
        "dim": sub.dim,
        "coordinates": [[_report_rational(v) for v in row] for row in sub.vectors],
    }


def _build(args):
    from . import catalog
    weights = None
    if args.weights:
        from . import dsl
        weights = dsl.parse_seq(args.weights)
    algebra = catalog.make_algebra(args.kind, args.n, weights)
    if args.name:
        algebra = matlie.LieAlgebraPresentation(algebra.ambient, algebra.basis, args.name)
    rpt = dict(algebra=catalog.algebra_to_json(algebra), dim=algebra.dim)
    return rpt, [f"built {algebra.name}: ambient {algebra.ambient}, dim {algebra.dim}"]


def handle(args):
    if args.cmd == "build":
        return _build(args)

    algebra = matlie.load_algebra(args.file)
    if args.cmd == "check-closure":
        report = matlie.closure_check(algebra)
        rpt = dict(
            name=algebra.name,
            closed=report.closed,
            counterexample=None
            if report.closed
            else {
                "pair": list(report.pair),
                "residual": [_report_rational(v) for v in report.residual.flat()],
            },
        )
        if report.closed:
            lines = ["CLOSED under the bracket"]
        else:
            i, j = report.pair
            lines = [
                f"NOT CLOSED: bracket of basis elements {i} and {j} leaves the span",
                "  residual is exactly nonzero",
            ]
        return rpt, lines
    if args.cmd == "derived":
        sub = matlie.derived_algebra(algebra)
        rpt = dict(
            name=algebra.name,
            dim=algebra.dim,
            derived=_subspace_json(sub),
            proper=sub.dim < algebra.dim,
        )
        return rpt, [f"derived algebra: dim {sub.dim} of {algebra.dim}"]
    if args.cmd == "ideal-gen":
        seeds = matlie.load_seeds(args.seeds, algebra.ambient)
        sub = matlie.lie_ideal_generated(algebra, seeds)
        rpt = dict(
            name=algebra.name,
            seeds=len(seeds),
            ideal=_subspace_json(sub),
            proper=0 < sub.dim < algebra.dim,
        )
        return rpt, [f"generated Lie ideal: dim {sub.dim} of {algebra.dim}"]
    if args.cmd == "killing":
        rep = matlie.killing_form(algebra)
        nondegenerate = rep.rank == algebra.dim
        rpt = dict(
            name=algebra.name,
            rank=rep.rank,
            dim=algebra.dim,
            nondegenerate=nondegenerate,
            matrix=[[_report_rational(v) for v in row] for row in rep.matrix.entries],
        )
        return rpt, [
            f"Killing form rank {rep.rank} of {algebra.dim} "
            f"({'nondegenerate' if nondegenerate else 'degenerate'})"
        ]
    if args.cmd == "simple":
        most = MAX_CROSS_CHECK_WORK // algebra.dim ** 3
        if args.cross_check > most:
            raise InputError(f"--cross-check allows at most {most} samples on an algebra of "
                             f"dimension {algebra.dim}")
        rep = matlie.is_simple(algebra)
        rpt = dict(
            name=algebra.name,
            verdict=rep.verdict,
            detail=rep.detail,
            commutant_dim=rep.commutant_dim,
            flags=list(rep.flags),
            witness=None if rep.witness is None else _subspace_json(rep.witness),
        )
        headline = {"Simple": "SIMPLE", "NotSimple": "NOT SIMPLE", "Abelian": "ABELIAN"}[
            rep.verdict
        ]
        lines = [f"{headline} ({rep.detail})"]
        if rep.witness is not None:
            lines.append(f"  witness ideal dimension: {rep.witness.dim}")
        if args.cross_check:
            found = matlie.random_ideal_search(algebra, args.cross_check, args.seed) is not None
            rpt["cross_check"] = {
                "samples": args.cross_check,
                "seed": args.seed,
                "proper_ideal_found": found,
            }
            lines.append(
                f"  cross-check ({args.cross_check} samples): "
                + ("proper ideal found" if found else "no proper ideal found")
            )
        return rpt, lines
