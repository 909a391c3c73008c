"""``idealkit seq``: signatures, big-O / little-o comparison, delta-2."""

from __future__ import annotations

from . import dsl, seqspace
from .cli import _evidence_lines, _probe_limits, _verdict_line


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
        lines = [_verdict_line(f"xi = {args.mode}(eta)", verdict)] + _evidence_lines(verdict)
        if args.numeric:
            probe = seqspace.numeric_probe(xi, eta, mode, *_probe_limits(args))
            rpt["numeric"] = probe.to_json()
            lines.append(_verdict_line("numeric probe", probe))
            lines.extend(_evidence_lines(probe))
        return rpt, lines
    if args.cmd == "delta2":
        expr = dsl.parse_seq(args.sequence)
        verdict = seqspace.delta2_check(expr)
        rpt = dict(sequence=dsl.format_seq(expr), verdict=verdict.to_json())
        return rpt, [_verdict_line("delta2 condition", verdict)] + _evidence_lines(verdict)
