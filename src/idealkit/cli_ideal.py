"""``idealkit ideal``: softness, membership, idempotency, joint report."""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import dsl, idealcalc, seqspace
from .base import InputError
from .cli import _evidence_lines, _probe_limits, _verdict_line

if TYPE_CHECKING:
    from .seqspace import Verdict


def _soft_text(v: Verdict) -> str:
    word = "SOFT" if v.holds else "NOT SOFT"
    return f"{word} ({v.method.value})"


def handle(args):
    if args.cmd == "soft":
        ideal = dsl.parse_ideal(args.ideal)
        if args.numeric and not isinstance(ideal, idealcalc.Principal):
            raise InputError("--numeric acts only on a principal ideal")
        verdict = idealcalc.is_soft(ideal)
        rpt = dict(ideal=dsl.format_ideal(ideal), verdict=verdict.to_json())
        lines = [_soft_text(verdict)] + _evidence_lines(verdict)
        if args.numeric:
            probe = seqspace.numeric_probe(
                seqspace.subsample(verdict.evidence["k"], ideal.gen), ideal.gen,
                seqspace.Mode.LITTLE_O, *_probe_limits(args),
            )
            rpt["numeric"] = probe.to_json()
            lines.append(_verdict_line("numeric corroboration", probe))
        return rpt, lines
    if args.cmd == "member":
        xi = dsl.parse_seq(args.sequence)
        ideal = dsl.parse_ideal(args.ideal)
        verdict = idealcalc.member(xi, ideal)
        rpt = dict(
            sequence=dsl.format_seq(xi),
            ideal=dsl.format_ideal(ideal),
            verdict=verdict.to_json(),
        )
        return rpt, [_verdict_line("membership", verdict)] + _evidence_lines(verdict)
    if args.cmd == "idempotent":
        ideal = dsl.parse_ideal(args.ideal)
        verdict = idealcalc.is_idempotent(ideal)
        rpt = dict(ideal=dsl.format_ideal(ideal), verdict=verdict.to_json())
        return rpt, [_verdict_line("idempotent", verdict)] + _evidence_lines(verdict)
    if args.cmd == "report":
        xi = dsl.parse_seq(args.sequence)
        report = idealcalc.implication_report(xi)
        rpt = dict(sequence=dsl.format_seq(xi), **report.to_json())
        lines = [
            _verdict_line("delta2", report.delta2),
            _verdict_line("soft", report.soft),
            _verdict_line("idempotent", report.idempotent),
            _verdict_line("necessary condition", report.necessary),
            "implications: all consistent",
        ]
        return rpt, lines
