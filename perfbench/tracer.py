"""Run one idealkit CLI call with span wrappers on each layer's entry points.

Usage: python3 -X importtime tracer.py SPANS_FILE CLI_ARG...

Imports ``idealkit.cli`` (timing the import), replaces the module
attributes listed in ``ENTRY_POINTS`` and every name of
``ratlinalg.__all__`` with wrappers that record one span per call, runs
``cli.main(argv)`` and, at exit, writes the spans to SPANS_FILE.  A span is
(name, parent span, start, end, raised).  No idealkit source changes: the
wrappers only rebind attributes.  If an entry point is missing the call
fails with exit code ``MISSING_ENTRY_EXIT`` and names it, so a renamed rung
can never read as zero seconds.
"""

import sys
import time

_t0 = time.perf_counter()
import idealkit.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402

from idealkit import cli, dsl, idealcalc, matlie, ratlinalg, seqspace, witness  # noqa: E402

MISSING_ENTRY_EXIT = 97

# (module, attribute, span name).  A function imported by name into several
# modules is listed at each binding that the traced code calls through.
# Entry points with no metric of their own (delta2_check, is_soft, ...) are
# spans so that their time stays out of cli.main's self time.
ENTRY_POINTS = (
    (cli, "main", "cli.main"),
    (dsl, "parse_seq", "dsl.parse_seq"),
    (dsl, "parse_ideal", "dsl.parse_ideal"),
    (seqspace, "compare", "seqspace.compare"),
    (idealcalc, "compare", "seqspace.compare"),
    (seqspace, "signature_of", "seqspace.signature_of"),
    (idealcalc, "signature_of", "seqspace.signature_of"),
    (seqspace, "delta2_check", "seqspace.delta2_check"),
    (idealcalc, "delta2_check", "seqspace.delta2_check"),
    (seqspace, "numeric_probe", "seqspace.numeric_probe"),
    (idealcalc, "member", "idealcalc.member"),
    (idealcalc, "_min_ampliation", "idealcalc.min_ampliation"),
    (idealcalc, "is_soft", "idealcalc.is_soft"),
    (idealcalc, "is_idempotent", "idealcalc.is_idempotent"),
    (idealcalc, "implication_report", "idealcalc.implication_report"),
    (matlie, "load_algebra", "matlie.load_algebra"),
    (matlie, "_closure_scan", "matlie.closure_scan"),
    (matlie, "bracket", "matlie.bracket"),
    (matlie, "derived_algebra", "matlie.derived_algebra"),
    (matlie, "_center_coords", "matlie.center_coords"),
    (matlie, "killing_form", "matlie.killing_form"),
    (matlie, "adjoint_commutant", "matlie.adjoint_commutant"),
    (matlie, "_commutant_exact", "matlie.commutant_exact"),
    (matlie, "_extract_commutant_witness", "matlie.extract_commutant_witness"),
    (matlie, "lie_ideal_generated", "matlie.lie_ideal_generated"),
    (matlie, "is_simple", "matlie.is_simple"),
    (witness, "build_certificate", "witness.build_certificate"),
    (witness, "verify_certificate", "witness.verify_certificate"),
    (witness, "bracket", "witness.bracket"),
    (witness, "is_soft", "witness.soft_check"),
)

NAMES: list = []
_NAME_IDS: dict = {}
SPANS: list = []  # [name id, parent index or -1, start, end, raised]
_STACK: list = []


def _wrap(fn, name: str):
    nid = _NAME_IDS.setdefault(name, len(_NAME_IDS))
    if nid == len(NAMES):
        NAMES.append(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = [nid, _STACK[-1] if _STACK else -1, clock(), 0.0, 0]
        _STACK.append(len(SPANS))
        SPANS.append(rec)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[4] = 1
            raise
        finally:
            rec[3] = clock()
            _STACK.pop()

    return wrapper


def _missing(entry: str):
    print(f"perfbench tracer: entry point {entry} not found", file=sys.stderr)
    sys.exit(MISSING_ENTRY_EXIT)


def install() -> None:
    for module, attr, name in ENTRY_POINTS:
        fn = getattr(module, attr, None)
        if not callable(fn):
            _missing(f"{module.__name__}.{attr}")
        setattr(module, attr, _wrap(fn, name))
    # ratlinalg: every public name, wherever matlie reaches it.  Functions
    # are rebound in ratlinalg and in matlie's from-import bindings; classes
    # get their public methods wrapped, so a merge of the echelon variants
    # keeps being measured under whatever names __all__ then lists.
    for name in ratlinalg.__all__:
        obj = getattr(ratlinalg, name, None)
        if obj is None:
            _missing(f"idealkit.ratlinalg.{name}")
        if inspect.isclass(obj):
            for attr, member in list(vars(obj).items()):
                if not attr.startswith("_") and inspect.isfunction(member):
                    setattr(obj, attr, _wrap(member, f"ratlinalg.{name}.{attr}"))
        elif callable(obj):
            wrapped = _wrap(obj, f"ratlinalg.{name}")
            for module in (ratlinalg, matlie):
                if getattr(module, name, None) is obj:
                    setattr(module, name, wrapped)


def _dump(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": IMPORT_S, "names": NAMES, "spans": SPANS}, fh)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    install()
    try:
        return cli.main(argv)
    finally:
        _dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
