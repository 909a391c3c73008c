"""``idealkit seq``: signatures, big-O / little-o comparison, delta-2."""

from __future__ import annotations

from . import dsl, seqspace


def handle(args):
    if args.cmd == "signature":
        expr = dsl.parse_seq(args.sequence)
        sig = seqspace.signature_of(expr)
        rpt = dict(
            sequence=dsl.format_seq(expr),
            signature=sig.describe(),
            finite_support=sig.is_zero_tail,
        )
        return rpt, [f"signature: {sig.describe()}"]
    if args.cmd == "compare":
        xi = dsl.parse_seq(args.xi)
        eta = dsl.parse_seq(args.eta)
        mode = seqspace.Mode(args.mode)
        verdict = seqspace.compare(xi, eta, mode)
        rpt = dict(
            mode=args.mode,
            xi=dsl.format_seq(xi),
            eta=dsl.format_seq(eta),
            verdict=verdict.to_json(),
        )
        lines = [verdict.line(f"xi = {args.mode}(eta)")] + verdict.evidence_lines()
        if args.numeric:
            probe = seqspace.numeric_probe(xi, eta, mode, args.nmax, args.eps)
            rpt["numeric"] = probe.to_json()
            lines.append(probe.line("numeric probe"))
            lines.extend(probe.evidence_lines())
        return rpt, lines
    if args.cmd == "delta2":
        expr = dsl.parse_seq(args.sequence)
        verdict = seqspace.delta2_check(expr)
        rpt = dict(sequence=dsl.format_seq(expr), verdict=verdict.to_json())
        return rpt, [verdict.line("delta2 condition")] + verdict.evidence_lines()
