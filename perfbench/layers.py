"""Per-layer metrics from the spans that ``tracer.py`` writes for each call.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly, so that is the time no child span covers.
Inclusive sums count only the outermost span of each name, so a function
that re-enters itself is not counted twice.
"""

from __future__ import annotations

import json
from collections import defaultdict

# Per-layer metrics in BENCHMARK.json order, with how each is computed:
# ("self", span names) sums self time; ("incl", name) sums outermost
# durations; ("count", name) counts spans.
SPAN_METRICS = {
    "cli.main_self_s": ("self", ("cli.main",)),
    "dsl.parse_s": ("self", ("dsl.parse_seq", "dsl.parse_ideal")),
    "dsl.calls": ("count", ("dsl.parse_seq", "dsl.parse_ideal")),
    "seqspace.compare_s": ("self", ("seqspace.compare",)),
    "seqspace.compare_calls": ("count", ("seqspace.compare",)),
    "seqspace.signature_s": ("self", ("seqspace.signature_of",)),
    "seqspace.probe_s": ("self", ("seqspace.numeric_probe",)),
    "idealcalc.member_s": ("self", ("idealcalc.member",)),
    "matlie.load_s": ("self", ("matlie.load_algebra",)),
    "matlie.closure_s": ("incl", ("matlie.closure_scan",)),
    "matlie.brackets": ("count", ("matlie.bracket",)),
    "matlie.derived_s": ("incl", ("matlie.derived_algebra",)),
    "matlie.center_s": ("incl", ("matlie.center_coords",)),
    "matlie.killing_s": ("incl", ("matlie.killing_form",)),
    "matlie.commutant_s": ("incl", ("matlie.adjoint_commutant",)),
    "matlie.commutant_exact_calls": ("count", ("matlie.commutant_exact",)),
    "matlie.extract_s": ("incl", ("matlie.extract_commutant_witness",)),
    "matlie.ideal_gen_s": ("incl", ("matlie.lie_ideal_generated",)),
    "matlie.is_simple_self_s": ("self", ("matlie.is_simple",)),
    "witness.build_s": ("self", ("witness.build_certificate",)),
    "witness.verify_s": ("self", ("witness.verify_certificate",)),
    "witness.bracket_s": ("incl", ("witness.bracket",)),
    "witness.soft_check_s": ("self", ("witness.soft_check",)),
}

class CallTrace:
    """Span totals of one traced call."""

    def __init__(self, path: str, stderr: str):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        names, spans = data["names"], data["spans"]
        self.import_s = data["import_s"]
        self.numpy_import_s = _numpy_import_s(stderr)
        self.count = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.ampliation_tries = 0
        self.ampliation_decisions = 0
        self.ratlinalg_entries = 0

        child_time = [0.0] * len(spans)
        for nid, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        # Name ids on the path from the root to each span, for outermost checks.
        ancestors = []
        for i, (nid, parent, start, end, raised) in enumerate(spans):
            name = names[nid]
            above = ancestors[parent] if parent >= 0 else frozenset()
            ancestors.append(above | {nid})
            duration = end - start
            self.count[name] += 1
            self.self_s[name] += duration - child_time[i]
            if nid not in above:
                self.incl_s[name] += duration
            parent_name = names[spans[parent][0]] if parent >= 0 else ""
            if name == "seqspace.compare" and parent_name == "idealcalc.min_ampliation":
                self.ampliation_tries += 1
            if name == "idealcalc.min_ampliation" and not raised:
                self.ampliation_decisions += 1
            if name.startswith("ratlinalg.") and not parent_name.startswith("ratlinalg."):
                self.ratlinalg_entries += 1

    def span_table(self) -> dict:
        return {
            name: {"calls": self.count[name], "self_s": self.self_s[name], "incl_s": self.incl_s[name]}
            for name in self.count
        }


def _numpy_import_s(stderr: str) -> float:
    """Cumulative time of the first numpy import from ``-X importtime``."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                return int(fields[1]) / 1e6
    return 0.0


def batch_metrics(traces) -> dict:
    """Per-layer metrics summed over the calls of one traced batch: the
    SPAN_METRICS plus import times, ampliation counts and ratlinalg totals."""
    out = {}
    for metric, (how, names) in SPAN_METRICS.items():
        table = {"self": "self_s", "incl": "incl_s", "count": "count"}[how]
        out[metric] = sum(getattr(t, table).get(n, 0) for t in traces for n in names)
    tries = sum(t.ampliation_tries for t in traces)
    decisions = sum(t.ampliation_decisions for t in traces)
    out["cli.import_s"] = sum(t.import_s for t in traces)
    out["cli.import_numpy_s"] = sum(t.numpy_import_s for t in traces)
    out["idealcalc.ampliation_tries"] = tries
    out["idealcalc.ampliation_hit_ratio"] = decisions / tries if tries else 0.0
    out["ratlinalg.self_s"] = sum(
        v for t in traces for n, v in t.self_s.items() if n.startswith("ratlinalg.")
    )
    out["ratlinalg.calls"] = sum(t.ratlinalg_entries for t in traces)
    return out


def merged_span_table(traces) -> dict:
    table: dict = {}
    for t in traces:
        for name, row in t.span_table().items():
            acc = table.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for key, value in row.items():
                acc[key] += value
    return dict(sorted(table.items()))
