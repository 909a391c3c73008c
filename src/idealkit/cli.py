"""Command line front end.

Exit codes: 0 when the analysis completed (whatever the verdict), 2 on
bad input (an InputError, an unreadable file or malformed JSON), 3 when
--strict is set and any reported verdict is Unknown or merely numerically
indicated.  Any other exception is a bug and propagates with its traceback.
Reports go to stdout (text by default, machine-readable with --json);
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dsl, idealcalc, seqspace
from .seqspace import DEFAULT_EPS, DEFAULT_NMAX, InputError, Method, Mode, Status

SCHEMA_VERSION = "1"

_USER_ERRORS = (InputError, OSError, json.JSONDecodeError)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a machine-readable report")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any verdict is Unknown or only numerically indicated")
    p.add_argument("-o", "--output", metavar="FILE", help="also write the JSON report to FILE")


def _add_numeric(p: argparse.ArgumentParser) -> None:
    p.add_argument("--numeric", action="store_true", help="add numeric corroboration")
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX, help="numeric probe grid limit")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS, help="numeric probe tolerance")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealkit",
        description="softness/membership calculus for operator ideals, exact Lie "
        "algebra simplicity decisions, and non-simplicity certificates",
    )
    top = parser.add_subparsers(dest="group", metavar="{seq,ideal,lie,witness}")

    seq = top.add_parser("seq", help="sequence calculus").add_subparsers(dest="cmd")
    p = seq.add_parser("signature", help="asymptotic signature of a sequence")
    p.add_argument("sequence")
    _add_common(p)
    p = seq.add_parser("compare", help="decide big-O / little-o between two sequences")
    p.add_argument("--mode", choices=["O", "o"], required=True)
    p.add_argument("xi")
    p.add_argument("eta")
    _add_numeric(p)
    _add_common(p)
    p = seq.add_parser("delta2", help="dyadic ratio boundedness check")
    p.add_argument("sequence")
    _add_common(p)

    ideal = top.add_parser("ideal", help="ideal calculus").add_subparsers(dest="cmd")
    p = ideal.add_parser("soft", help="is the ideal soft-edged")
    p.add_argument("ideal")
    _add_numeric(p)
    _add_common(p)
    p = ideal.add_parser("member", help="does the sequence belong to the ideal")
    p.add_argument("sequence")
    p.add_argument("ideal")
    _add_common(p)
    p = ideal.add_parser("idempotent", help="does the ideal equal its square")
    p.add_argument("ideal")
    _add_common(p)
    p = ideal.add_parser("report", help="joint softness diagnostics for a generator")
    p.add_argument("sequence")
    _add_common(p)

    lie = top.add_parser("lie", help="matrix Lie algebra engine").add_subparsers(dest="cmd")
    p = lie.add_parser("build", help="construct a catalog algebra and save it")
    p.add_argument("kind", help="catalog algebra kind; an unknown kind lists the known ones")
    p.add_argument("--n", type=int, required=True, help="size parameter")
    p.add_argument("--weights", help="weight sequence, for kind=shift only")
    p.add_argument("--name", help="override the presentation name")
    _add_common(p)
    for cmd, desc in [
        ("check-closure", "is the basis closed under the bracket"),
        ("derived", "derived algebra of a closed presentation"),
        ("killing", "Killing form and its rank"),
        ("simple", "simplicity decision"),
    ]:
        p = lie.add_parser(cmd, help=desc)
        p.add_argument("--file", required=True, help="algebra JSON file")
        if cmd == "simple":
            p.add_argument("--cross-check", type=int, default=0, metavar="N",
                           help="also run a seeded random ideal search with N samples")
            p.add_argument("--seed", type=int, default=0)
        _add_common(p)
    p = lie.add_parser("ideal-gen", help="Lie ideal generated by seed elements")
    p.add_argument("--file", required=True, help="algebra JSON file")
    p.add_argument("--seeds", required=True,
                   help="JSON file with flat row-major seed matrices")
    _add_common(p)

    wit = top.add_parser("witness", help="non-simplicity certificates").add_subparsers(dest="cmd")
    p = wit.add_parser("build", help="build a certificate for a shift generator")
    p.add_argument("--generator", required=True, help="generator weight sequence")
    p.add_argument("--partner", action="append", default=[],
                   help="candidate partner weight sequence (repeatable)")
    p.add_argument("--truncation", type=int, default=64)
    p.add_argument("--window", type=int, help="default: witness.DEFAULT_SCAN_WINDOW")
    _add_common(p)
    p = wit.add_parser("verify", help="verify a stored certificate")
    p.add_argument("--file", required=True, help="certificate JSON file")
    _add_common(p)

    return parser


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _verdict_line(label: str, v: seqspace.Verdict) -> str:
    return f"{label}: {v.status.value} ({v.method.value})"


def _evidence_lines(v: seqspace.Verdict) -> list:
    return [f"  {key}: {value}" for key, value in v.to_json()["evidence"].items()]


def _report(command: str, **fields) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, **fields}


def _collect_methods(obj, found: set) -> None:
    if isinstance(obj, dict):
        if "status" in obj and "method" in obj:
            found.add((obj["status"], obj["method"]))
        for v in obj.values():
            _collect_methods(v, found)
    elif isinstance(obj, list):
        for v in obj:
            _collect_methods(v, found)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _handle_seq(args):
    if args.cmd == "signature":
        expr = dsl.parse_seq(args.sequence)
        sig = seqspace.signature_of(expr)
        rpt = _report(
            "seq signature",
            sequence=dsl.format_seq(expr),
            signature=sig.describe(),
            finite_support=sig.is_zero_tail,
        )
        return rpt, [f"signature: {sig.describe()}"]
    if args.cmd == "compare":
        xi = dsl.parse_seq(args.xi)
        eta = dsl.parse_seq(args.eta)
        mode = Mode.BIG_O if args.mode == "O" else Mode.LITTLE_O
        verdict = seqspace.compare(xi, eta, mode)
        rpt = _report(
            "seq compare",
            mode=args.mode,
            xi=dsl.format_seq(xi),
            eta=dsl.format_seq(eta),
            verdict=verdict.to_json(),
        )
        lines = [_verdict_line(f"xi = {args.mode}(eta)", verdict)] + _evidence_lines(verdict)
        if args.numeric:
            probe = seqspace.numeric_probe(xi, eta, mode, args.nmax, args.eps)
            rpt["numeric"] = probe.to_json()
            lines.append(_verdict_line("numeric probe", probe))
            lines.extend(_evidence_lines(probe))
        return rpt, lines
    if args.cmd == "delta2":
        expr = dsl.parse_seq(args.sequence)
        verdict = seqspace.delta2_check(expr)
        rpt = _report(
            "seq delta2", sequence=dsl.format_seq(expr), verdict=verdict.to_json()
        )
        return rpt, [_verdict_line("delta2 condition", verdict)] + _evidence_lines(verdict)


def _soft_text(v: seqspace.Verdict) -> str:
    word = "SOFT" if v.holds else "NOT SOFT"
    return f"{word} ({v.method.value})"


def _handle_ideal(args):
    if args.cmd == "soft":
        ideal = dsl.parse_ideal(args.ideal)
        verdict = idealcalc.is_soft(ideal)
        rpt = _report("ideal soft", ideal=dsl.format_ideal(ideal), verdict=verdict.to_json())
        lines = [_soft_text(verdict)] + _evidence_lines(verdict)
        if args.numeric and isinstance(ideal, idealcalc.Principal):
            k = verdict.evidence.get("k", 2)
            probe = seqspace.numeric_probe(
                seqspace.subsample(k, ideal.gen), ideal.gen, Mode.LITTLE_O, args.nmax, args.eps
            )
            rpt["numeric"] = probe.to_json()
            lines.append(_verdict_line("numeric corroboration", probe))
        return rpt, lines
    if args.cmd == "member":
        xi = dsl.parse_seq(args.sequence)
        ideal = dsl.parse_ideal(args.ideal)
        verdict = idealcalc.member(xi, ideal)
        rpt = _report(
            "ideal member",
            sequence=dsl.format_seq(xi),
            ideal=dsl.format_ideal(ideal),
            verdict=verdict.to_json(),
        )
        return rpt, [_verdict_line("membership", verdict)] + _evidence_lines(verdict)
    if args.cmd == "idempotent":
        ideal = dsl.parse_ideal(args.ideal)
        verdict = idealcalc.is_idempotent(ideal)
        rpt = _report(
            "ideal idempotent", ideal=dsl.format_ideal(ideal), verdict=verdict.to_json()
        )
        return rpt, [_verdict_line("idempotent", verdict)] + _evidence_lines(verdict)
    if args.cmd == "report":
        xi = dsl.parse_seq(args.sequence)
        report = idealcalc.implication_report(xi)
        rpt = _report("ideal report", sequence=dsl.format_seq(xi), **report.to_json())
        lines = [
            _verdict_line("delta2", report.delta2),
            _verdict_line("soft", report.soft),
            _verdict_line("idempotent", report.idempotent),
            _verdict_line("necessary condition", report.necessary),
            "implications: all consistent",
        ]
        return rpt, lines


def _subspace_json(sub) -> dict:
    from .matlie import _encode_rational
    return {
        "dim": sub.dim,
        "coordinates": [[_encode_rational(v) for v in row] for row in sub.vectors],
    }


def _handle_lie(args):
    from . import matlie
    if args.cmd == "build":
        weights = dsl.parse_seq(args.weights) if args.weights else None
        algebra = matlie.make_algebra(args.kind, args.n, weights)
        if args.name:
            algebra = matlie.LieAlgebraPresentation(algebra.ambient, algebra.basis, args.name)
        payload = matlie.algebra_to_json(algebra)
        rpt = _report("lie build", algebra=payload, dim=algebra.dim)
        lines = [f"built {algebra.name}: ambient {algebra.ambient}, dim {algebra.dim}"]
        if args.output:
            matlie.save_algebra(algebra, args.output)
            lines.append(f"wrote {args.output}")
        return rpt, lines

    algebra = matlie.load_algebra(args.file)
    if args.cmd == "check-closure":
        report = matlie.closure_check(algebra)
        rpt = _report(
            "lie check-closure",
            name=algebra.name,
            closed=report.closed,
            counterexample=None
            if report.closed
            else {
                "pair": list(report.pair),
                "residual": [matlie._encode_rational(v) for v in report.residual.flat()],
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
        rpt = _report(
            "lie derived",
            name=algebra.name,
            dim=algebra.dim,
            derived=_subspace_json(sub),
            proper=sub.dim < algebra.dim,
        )
        return rpt, [f"derived algebra: dim {sub.dim} of {algebra.dim}"]
    if args.cmd == "ideal-gen":
        seeds = matlie.load_seeds(args.seeds, algebra.ambient)
        sub = matlie.lie_ideal_generated(algebra, seeds)
        rpt = _report(
            "lie ideal-gen",
            name=algebra.name,
            seeds=len(seeds),
            ideal=_subspace_json(sub),
            proper=0 < sub.dim < algebra.dim,
        )
        return rpt, [f"generated Lie ideal: dim {sub.dim} of {algebra.dim}"]
    if args.cmd == "killing":
        rep = matlie.killing_form(algebra)
        nondegenerate = rep.rank == algebra.dim
        rpt = _report(
            "lie killing",
            name=algebra.name,
            rank=rep.rank,
            dim=algebra.dim,
            nondegenerate=nondegenerate,
            matrix=[[matlie._encode_rational(v) for v in row] for row in rep.matrix.entries],
        )
        return rpt, [
            f"Killing form rank {rep.rank} of {algebra.dim} "
            f"({'nondegenerate' if nondegenerate else 'degenerate'})"
        ]
    if args.cmd == "simple":
        rep = matlie.is_simple(algebra)
        rpt = _report(
            "lie simple",
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


def _handle_witness(args):
    from . import witness
    if args.cmd == "build":
        generator = witness.ShiftModel(dsl.parse_seq(args.generator), args.truncation)
        pool = [witness.ShiftModel(dsl.parse_seq(s), args.truncation) for s in args.partner]
        window = witness.DEFAULT_SCAN_WINDOW if args.window is None else args.window
        cert = witness.build_certificate(generator, pool, window)
        payload = witness.certificate_to_json(cert)
        rpt = _report("witness build", certificate=payload)
        lines = [
            f"certificate built ({cert.branch} branch)",
            f"  conclusion: {cert.conclusion}",
        ]
        if cert.first_index is not None:
            lines.insert(
                1,
                f"  first nonzero commutator weight: index {cert.first_index}, "
                f"value {cert.first_value}",
            )
        if args.output:
            witness.save_certificate(cert, args.output)
            lines.append(f"wrote {args.output}")
        return rpt, lines
    if args.cmd == "verify":
        cert = witness.load_certificate(args.file)
        verdict = witness.verify_certificate(cert)
        rpt = _report("witness verify", branch=cert.branch, verdict=verdict.to_json())
        word = "VERIFIED" if verdict.holds else "REJECTED"
        lines = [f"{word}: {verdict.status.value}"] + _evidence_lines(verdict)
        return rpt, lines


_HANDLERS = {
    "seq": _handle_seq,
    "ideal": _handle_ideal,
    "lie": _handle_lie,
    "witness": _handle_witness,
}


def main(argv=None) -> int:
    # Input within the digit cap must not trip a lower interpreter limit (0: none).
    if 0 < sys.get_int_max_str_digits() < seqspace.MAX_RATIONAL_DIGITS:
        sys.set_int_max_str_digits(seqspace.MAX_RATIONAL_DIGITS)
    parser = _parser()
    args = parser.parse_args(argv)
    if not args.group:
        parser.print_help()
        return 2
    try:
        if args.cmd is None:
            raise InputError(f"missing {args.group} subcommand; see idealkit {args.group} --help")
        report, lines = _HANDLERS[args.group](args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = json.dumps(report, sort_keys=True, indent=2)
    if args.json:
        print(payload)
    else:
        for line in lines:
            print(line)
    # For the two build commands -o names the artifact file, written by the
    # handler; everywhere else it duplicates the JSON report.
    if args.output and (args.group, args.cmd) not in {("lie", "build"), ("witness", "build")}:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.write("\n")
    if args.strict:
        found: set = set()
        _collect_methods(report, found)
        for status, method in found:
            if status == Status.UNKNOWN.value or method == Method.NUMERIC.value:
                return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
