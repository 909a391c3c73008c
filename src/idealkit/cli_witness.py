"""``idealkit witness``: build and verify non-simplicity certificates."""

from __future__ import annotations

from . import dsl, witness


def handle(args):
    if args.cmd == "build":
        generator = witness.ShiftModel(dsl.parse_seq(args.generator), args.truncation)
        pool = [witness.ShiftModel(dsl.parse_seq(s), args.truncation) for s in args.partner]
        window = witness.DEFAULT_SCAN_WINDOW if args.window is None else args.window
        cert = witness.build_certificate(generator, pool, window)
        payload = witness.certificate_to_json(cert)
        rpt = dict(certificate=payload)
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
        rpt = dict(branch=cert.branch, verdict=verdict.to_json())
        word = "VERIFIED" if verdict.holds else "REJECTED"
        lines = [f"{word}: {verdict.status.value}"] + verdict.evidence_lines()
        return rpt, lines
