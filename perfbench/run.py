"""Seeded known-answer benchmark for the idealkit CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each call runs in a fresh interpreter against the checkout's ``src``, one at
a time: a closed loop with one client.  Set-up generates the workload's
call list from the seed, writes its input files under ``.perfbench/`` and
times fresh imports of ``idealkit.cli``.  The run then issues the whole call
list (a batch) as many times as ``--seconds`` holds batches of the
workload's nominal length at the seed commit, and checks every answer
against the closed forms in ``oracle.py``.  With ``--trace 1`` the same
number of batches then runs again through ``tracer.py``, which yields the
per-layer metrics and the tracing overhead.  The last line of stdout is the
result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

WORK_REL = ".perfbench/work"
REPORT_REL = ".perfbench/reports"
SPANS_REL = ".perfbench/spans"
CLI_CODE = "import sys; from idealkit.cli import main; sys.exit(main())"
CALL_LIMIT_S = 60.0
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 7
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# Equal to tracer.MISSING_ENTRY_EXIT; tracer.py imports idealkit at the top,
# and this process never does.
MISSING_ENTRY_EXIT = 97


class EntryPointMissing(RuntimeError):
    pass


@dataclass
class CallResult:
    call: workloads.Call
    wall_s: float
    rss_mb: float
    returncode: int | None
    timed_out: bool
    stdout: str
    stderr: str
    trace: layers.CallTrace | None = None
    outcome: str | None = None
    reason: str | None = None


class Runner:
    """Spawns children one at a time and waits for each with os.wait4, which
    gives that child's own max-RSS."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("IDEALKIT_")}
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.out_path = os.path.join(ROOT, WORK_REL, "call.out")
        self.err_path = os.path.join(ROOT, WORK_REL, "call.err")

    def spawn(self, argv):
        """(wall_s, rss_mb, returncode, timed_out, stdout, stderr)."""
        limit = min(CALL_LIMIT_S, self.deadline - time.perf_counter())
        if limit <= 0:
            return 0.0, 0.0, None, True, "", ""
        timed_out = False
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)

            def on_alarm(signum, frame):
                nonlocal timed_out
                timed_out = True
                proc.kill()

            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self.out_path, "r", encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(self.err_path, "r", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, timed_out, stdout, stderr


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def _check_source(runner: Runner) -> None:
    """Warm the bytecode cache and make sure children import this checkout."""
    code = "import idealkit.cli as c; print(c.__file__)"
    _, _, rc, _, out, err = runner.spawn([sys.executable, "-c", code])
    want = os.path.join(ROOT, "src", "idealkit", "cli.py")
    if rc != 0 or os.path.realpath(out.strip()) != os.path.realpath(want):
        raise SystemExit(f"perfbench: children do not import {want}: {out.strip()} {err.strip()}")


def _setup_seconds(runner: Runner) -> tuple:
    samples = []
    for _ in range(SETUP_SAMPLES):
        wall, _, rc, _, _, err = runner.spawn([sys.executable, "-c", "import idealkit.cli"])
        if rc != 0:
            raise SystemExit(f"perfbench: importing idealkit.cli failed: {err.strip()}")
        samples.append(wall)
    return statistics.median(samples), samples


def _algebra_writer(runner: Runner, work_dir: str):
    def write(specs):
        argv = [sys.executable, os.path.join(HERE, "make_algebras.py"), work_dir]
        argv += [f"{stem}:{kind}:{n}" for stem, kind, n in specs]
        _, _, rc, _, _, err = runner.spawn(argv)
        if rc != 0:
            raise SystemExit(f"perfbench: writing algebra files failed: {err.strip()}")

    return write


def _inputs_digest(calls, work_dir: str) -> tuple:
    listing = json.dumps([c.argv for c in calls]).encode()
    call_digest = hashlib.sha256(listing).hexdigest()
    h = hashlib.sha256(listing)
    for name in sorted(os.listdir(work_dir)):
        with open(os.path.join(work_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return call_digest, h.hexdigest()


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


def run_batch(runner: Runner, calls, traced: bool, spans_dir: str):
    """Issue every call once; returns (wall_s, results).  Answers are checked
    and spans read after the timed region."""
    results = []
    start = time.perf_counter()
    for i, call in enumerate(calls):
        if traced:
            argv = [sys.executable, "-X", "importtime", os.path.join(HERE, "tracer.py"),
                    os.path.join(spans_dir, f"{i}.json"), *call.argv]
        else:
            argv = [sys.executable, "-c", CLI_CODE, *call.argv]
        results.append(CallResult(call, *runner.spawn(argv)))
    wall = time.perf_counter() - start
    for i, res in enumerate(results):
        stderr = res.stderr
        if traced:
            if res.returncode == MISSING_ENTRY_EXIT:
                raise EntryPointMissing(stderr.strip().splitlines()[-1])
            stderr = "".join(l for l in stderr.splitlines(True) if not l.startswith("import time:"))
            spans = os.path.join(spans_dir, f"{i}.json")
            if os.path.exists(spans):
                res.trace = layers.CallTrace(spans, res.stderr)
        res.outcome, res.reason = oracle.classify(
            res.call, res.returncode, res.stdout, stderr, res.timed_out)
    return wall, results


def _stdout_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(res.stdout.encode())
    return h.hexdigest()


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 0.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def _environment() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=10)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "idealkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def _short_argv(argv):
    return [a if len(a) <= 80 else f"<{len(a)} chars sha256:{hashlib.sha256(a.encode()).hexdigest()[:12]}>"
            for a in argv]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # SIGTERM unwinds through Runner.spawn, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "idealkit", "cli.py")):
        print(f"perfbench: no idealkit source under {ROOT}/src", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, WORK_REL)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    spans_dir = os.path.join(ROOT, SPANS_REL)
    shutil.rmtree(spans_dir, ignore_errors=True)
    os.makedirs(spans_dir)
    runner = Runner(deadline)

    _check_source(runner)
    setup_s, setup_samples = _setup_seconds(runner)
    inputs_dir = os.path.join(work_dir, "inputs")
    os.makedirs(inputs_dir)
    calls = workloads.build(args.workload, args.seed, inputs_dir, f"{WORK_REL}/inputs",
                            _algebra_writer(runner, inputs_dir))
    call_digest, inputs_digest = _inputs_digest(calls, inputs_dir)

    # The batch count depends only on --seconds, so a run issues the same
    # calls on every commit; the deadline only guards the 180 s run limit.
    count = workloads.batches(args.workload, args.seconds)
    plain, traced = [], []
    slowest = 0.0
    try:
        for use_trace in [False] * count + [True] * (count if args.trace else 0):
            done = traced if use_trace else plain
            if done and time.perf_counter() + slowest > deadline:
                continue
            batch = run_batch(runner, calls, use_trace, spans_dir)
            done.append(batch)
            slowest = max(slowest, batch[0])
    except EntryPointMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    all_results = [r for _, results in plain + traced for r in results]
    counts = {o: sum(r.outcome == o for r in all_results)
              for o in (oracle.OK, oracle.KNOWN_DEFECT, oracle.FAILED)}
    attempted = len(all_results)
    walls = [r.wall_s for _, results in plain for r in results]
    tail_s, tail_pct = tail(walls)
    batch_wall_s = statistics.median(w for w, _ in plain)
    values = {
        "batch_wall_s": batch_wall_s,
        "call_p50_s": statistics.median(walls),
        "call_tail_s": tail_s,
        "peak_rss_mb": max(r.rss_mb for _, results in plain for r in results),
        "setup_s": setup_s,
    }
    failed_share = (counts[oracle.KNOWN_DEFECT] + counts[oracle.FAILED]) / attempted

    span_table = None
    if args.trace:
        per_batch = [layers.batch_metrics([r.trace for r in results if r.trace]) for _, results in traced]
        for name in per_batch[0]:
            values[name] = statistics.median(m[name] for m in per_batch)
        values["trace.overhead_s"] = statistics.median(w for w, _ in traced) - batch_wall_s
        values["failed_share"] = failed_share
        span_table = layers.merged_span_table([r.trace for r in traced[0][1] if r.trace])

    digests = sorted({_stdout_digest(results) for _, results in plain + traced})
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "claim": None,
        "calls_per_batch": len(calls),
        "call_list_sha256": call_digest,
        "inputs_sha256": inputs_digest,
        "stdout_sha256": digests[0] if len(digests) == 1 else digests,
        "stdout_identical_across_batches": len(digests) == 1,
        "batches": {"plain": [w for w, _ in plain], "traced": [w for w, _ in traced]},
        "setup_samples_s": setup_samples,
        "call_tail": {"percentile": tail_pct, "samples": len(walls), "beyond": TAIL_BEYOND},
        "outcomes": counts,
        "failed_share": failed_share,
        "known_defect_calls": sorted({r.call.label for r in all_results if r.outcome == oracle.KNOWN_DEFECT}),
        "failed_calls": sorted({f"{r.call.label}: {r.reason}" for r in all_results if r.outcome == oracle.FAILED}),
        "metrics": values,
    }
    detail = dict(report)
    detail["calls"] = [{"label": c.label, "argv": c.argv} for c in calls]
    detail["results"] = [
        {"label": r.call.label, "traced": bool(r.trace), "wall_s": r.wall_s, "rss_mb": r.rss_mb,
         "exit": r.returncode, "outcome": r.outcome, "reason": r.reason}
        for r in all_results
    ]
    detail["span_table"] = span_table
    reports = os.path.join(ROOT, REPORT_REL)
    os.makedirs(reports, exist_ok=True)
    report_path = os.path.join(reports, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    shutil.rmtree(spans_dir, ignore_errors=True)

    report["calls"] = [" ".join(_short_argv(c.argv)) for c in calls]
    report["report_file"] = os.path.relpath(report_path, ROOT)
    print(json.dumps(report, default=str))
    # BENCHMARK.json names the metrics a run reports and their units.
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": counts[oracle.FAILED] == 0, "attempted": attempted,
                      "failed": counts[oracle.FAILED], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
