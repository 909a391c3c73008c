"""Non-simplicity certificates: shift commutators, build/verify round trips,
tamper detection, the hypothesis gate."""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from idealkit import cli, witness
from idealkit.ratlinalg import RationalMatrix, bracket
from idealkit.seqspace import (
    Exp,
    FiniteSupport,
    MAX_WEIGHT_BITS,
    Pow,
    Product,
    Scale,
    _weight_bits,
    eval_at,
)
from idealkit.witness import (
    Certificate,
    CertificateError,
    MAX_SCAN_WINDOW,
    MAX_TRUNCATION,
    OBLIGATION_COMMUTATOR,
    OBLIGATION_NOT_SOFT,
    OBLIGATION_POOL_CENTRAL,
    OBLIGATION_TRUNCATION,
    ShiftModel,
    _exact_weights,
    _lower_shift,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    load_certificate,
    save_certificate,
    shift_bracket,
    verify_certificate,
)

from conftest import EXACT_BATTERY
from test_adversarial import PARTNER_WEIGHTS, SCAN_WEIGHTS, SCAN_WEIGHTS_VERIFY, check, table_test


def _sparse_mul(a, b):
    out = {}
    by_row = {}
    for (i, j), v in b.items():
        by_row.setdefault(i, []).append((j, v))
    for (i, k), u in a.items():
        for j, v in by_row.get(k, ()):
            out[i, j] = out.get((i, j), F(0)) + u * v
    return {k: v for k, v in out.items() if v}


# build_certificate(ShiftModel(Pow(1), 8), [scale:3;pow:1 at 8, scale:1/2;pow:2 at 16])
PINNED_CERTIFICATE = {
    "branch": "commutator",
    "central_mode": None,
    "conclusion": "the Lie ideal generated by the commutator A = [T, S] is nonzero and "
    "does not contain T, so no Lie algebra containing T and S is simple",
    "first_nonzero": {"index": 1, "value": "1/8"},
    "generator": {"truncation": 8, "weights": "pow:1"},
    "obligations": [
        {"name": "generator_not_finite_rank", "passed": True},
        {"name": "generator_ideal_not_soft_symbolic", "passed": True},
        {"name": "commutator_nonzero_at_first_index", "passed": True},
        {"name": "truncation_bracket_matches_formula_window", "passed": True},
    ],
    "partner": {"truncation": 16, "weights": "scale:1/2;pow:2"},
    "pool": [
        {"truncation": 8, "weights": "scale:3;pow:1"},
        {"truncation": 16, "weights": "scale:1/2;pow:2"},
    ],
    "scan_window": 1024,
    "schema_version": "1",
    "softness": {
        "evidence": {
            "criterion": "subsampled generator little-o of generator",
            "eta_signature": "rate=1, pow=1, logpow=0",
            "k": 2,
            "limiting_ratio": "1/2",
            "mode": "o",
            "reason": "equal signatures; ratio does not tend to zero",
            "xi_signature": "rate=1, pow=1, logpow=0",
        },
        "method": "SymbolicProven",
        "status": "Fails",
    },
}


class TestShiftBracket:
    def test_self_commutator_vanishes(self):
        br = shift_bracket(Pow(1), Pow(1))
        assert br.all_zero and br.proven_zero

    def test_power_pair_closed_form(self):
        br = shift_bracket(Pow(1), Pow(2))
        assert br.first_nonzero == (1, F(1, 4))
        # closed form of the difference for these two weight sequences
        for n in range(1, 33):
            assert br.weight_at(n) == F(1, n ** 2 * (n + 1) ** 2)

    def test_proportional_shift_commutes(self):
        br = shift_bracket(Scale(2, Pow(1)), Pow(1))
        assert br.all_zero and br.proven_zero

    def test_inexact_weights_rejected(self):
        from idealkit.seqspace import PowLog

        with pytest.raises(CertificateError):
            shift_bracket(PowLog(1, 1), Pow(1))

    def test_window_scan_records_window(self):
        br = shift_bracket(Pow(1), Pow(2), window=16)
        assert br.window == 16


class TestBandedExactness:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_truncated_bracket_matches_formula(self, n):
        # generic sparse matrix arithmetic as the independent route, checked
        # against both the closed formula and the library bracket
        weights = [w for w in EXACT_BATTERY if eval_at(w, 1) != 0][:6]
        for w in weights:
            for v in (Pow(2), Exp(F(1, 2))):
                br = shift_bracket(w, v)
                tm, sm = (_lower_shift(_exact_weights(ShiftModel(x, n))) for x in (w, v))
                t, s = tm.nonzeros(), sm.nonzeros()
                assert sorted(t) == [(i, i - 1) for i in range(1, n)]
                ts, st_ = _sparse_mul(t, s), _sparse_mul(s, t)
                entries = dict(ts)
                for k, val in st_.items():
                    entries[k] = entries.get(k, F(0)) - val
                entries = {k: v2 for k, v2 in entries.items() if v2}
                for i in range(1, n - 1):
                    expected = br.weight_at(i)
                    got = entries.get((i + 1, i - 1), F(0))
                    assert got == expected
                assert all(r == c + 2 for (r, c) in entries)
                assert bracket(tm, sm).nonzeros() == entries


class TestBuildCertificate:
    def test_commutator_branch(self):
        cert = build_certificate(ShiftModel(Pow(1), 64), [ShiftModel(Pow(2), 64)])
        assert cert.branch == "commutator"
        assert cert.first_index == 1
        assert cert.first_value == F(1, 4)
        assert all(ok for _, ok in cert.obligations)

    def test_gate_refuses_soft_generator(self):
        with pytest.raises(CertificateError):
            build_certificate(ShiftModel(Exp(F(1, 2)), 64), [ShiftModel(Pow(2), 64)])

    def test_gate_refuses_finite_rank_generator(self):
        with pytest.raises(CertificateError):
            build_certificate(
                ShiftModel(FiniteSupport([1, F(1, 2)]), 64), [ShiftModel(Pow(2), 64)]
            )

    def test_central_branch_is_conditional_on_pool(self):
        pool = [ShiftModel(Scale(3, Pow(1)), 64), ShiftModel(Scale(F(1, 7), Pow(1)), 64)]
        cert = build_certificate(ShiftModel(Pow(1), 64), pool)
        assert cert.branch == "central"
        assert len(cert.pool) == 2
        assert cert.conclusion == _STRUCTURAL_CONCLUSION
        assert cert.central_mode == "structural"
        assert verify_certificate(cert).holds

    @staticmethod
    def _prefix_copy_partner():
        # agrees with pow:1 on its first ten entries, then diverges: the
        # vanishing commutator can only be window-checked
        from idealkit.seqspace import explicit

        prefix = [F(1, n) for n in range(1, 11)]
        return explicit(prefix, Exp(F(1, 2)))

    def test_central_branch_window_mode_is_labelled(self):
        pool = [ShiftModel(self._prefix_copy_partner(), 32)]
        cert = build_certificate(ShiftModel(Pow(1), 32), pool, scan_window=9)
        assert cert.branch == "central"
        assert cert.central_mode == "window"
        assert "first 9 commutator weights" in cert.conclusion
        assert verify_certificate(cert).holds

    def test_tampered_central_mode_detected(self):
        cert = build_certificate(
            ShiftModel(Pow(1), 32),
            [ShiftModel(self._prefix_copy_partner(), 32)],
            scan_window=9,
        )
        payload = certificate_to_json(cert)
        payload["central_mode"] = "structural"
        assert verify_certificate(certificate_from_json(payload)).fails

    def test_empty_pool_is_refused_and_rejected(self, tmp_path):
        # over no partner the central branch would hold vacuously
        with pytest.raises(CertificateError, match="at least one partner"):
            build_certificate(ShiftModel(Pow(1), 8), [])
        payload = certificate_to_json(
            build_certificate(ShiftModel(Pow(1), 8), [ShiftModel(Scale(3, Pow(1)), 8)])
        )
        payload["pool"] = []
        path = tmp_path / "empty-pool.json"
        path.write_text(json.dumps(payload))
        verdict = verify_certificate(load_certificate(str(path)))
        assert verdict.fails
        assert verdict.evidence["all_failures"] == [OBLIGATION_POOL_CENTRAL]

    def test_wider_window_sees_past_the_prefix(self):
        cert = build_certificate(
            ShiftModel(Pow(1), 32),
            [ShiftModel(self._prefix_copy_partner(), 32)],
            scan_window=64,
        )
        assert cert.branch == "commutator"
        assert cert.first_index == 10

    def test_partner_order_respected(self):
        pool = [ShiftModel(Scale(2, Pow(1)), 64), ShiftModel(Product(Pow(1), Pow(1)), 64)]
        cert = build_certificate(ShiftModel(Pow(1), 64), pool)
        assert cert.branch == "commutator"
        assert cert.partner == pool[1]


class TestVerify:
    @staticmethod
    def _built():
        return build_certificate(ShiftModel(Pow(1), 8), [ShiftModel(Pow(2), 8)])

    def test_unknown_schema_version_fails(self):
        # certificate_from_json refuses it first; only a certificate made in code gets here
        cert = Certificate(**{**vars(self._built()), "schema_version": "2"})
        verdict = verify_certificate(cert)
        assert verdict.fails and verdict.evidence["failed_obligation"] == "schema_version"

    def test_bracket_entry_off_the_two_step_diagonal_is_caught(self, monkeypatch):
        cert = self._built()

        def skewed(x, y):
            m = bracket(x, y)
            return RationalMatrix.from_nonzeros(m.rows, m.cols, {**m.nonzeros(), (0, 0): 1})

        monkeypatch.setattr(witness, "bracket", skewed)
        with pytest.raises(CertificateError,
                           match="truncation bracket disagrees with the weight formula"):
            self._built()
        assert verify_certificate(cert).evidence["all_failures"] == [OBLIGATION_TRUNCATION]

    def test_round_trip_holds(self):
        cert = build_certificate(ShiftModel(Pow(1), 64), [ShiftModel(Pow(2), 64)])
        assert verify_certificate(cert).holds
        rebuilt = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
        assert verify_certificate(rebuilt).holds

    def test_round_trip_at_truncation_1024(self):
        cert = build_certificate(ShiftModel(Pow(1), 1024), [ShiftModel(Exp(F(1, 2)), 1024)])
        assert dict(cert.obligations)[OBLIGATION_TRUNCATION]
        rebuilt = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
        assert certificate_to_json(rebuilt) == certificate_to_json(cert)
        assert verify_certificate(rebuilt).holds

    def test_file_round_trip(self, tmp_path):
        cert = build_certificate(ShiftModel(Pow(1), 64), [ShiftModel(Pow(2), 64)])
        path = tmp_path / "cert.json"
        save_certificate(cert, str(path))
        assert verify_certificate(load_certificate(str(path))).holds

    def test_certificate_file_pinned(self, tmp_path):
        pool = [ShiftModel(Scale(3, Pow(1)), 8), ShiftModel(Scale(F(1, 2), Pow(2)), 16)]
        cert = build_certificate(ShiftModel(Pow(1), 8), pool)
        path = tmp_path / "cert.json"
        save_certificate(cert, str(path))
        assert path.read_text() == json.dumps(PINNED_CERTIFICATE, indent=2, sort_keys=True) + "\n"

    def test_tampered_commutator_value_detected(self):
        cert = build_certificate(ShiftModel(Pow(1), 64), [ShiftModel(Pow(2), 64)])
        payload = certificate_to_json(cert)
        payload["first_nonzero"]["value"] = "1/5"
        verdict = verify_certificate(certificate_from_json(payload))
        assert verdict.fails
        assert verdict.evidence["failed_obligation"] == OBLIGATION_COMMUTATOR

    def test_tampered_index_not_first_detected(self):
        cert = build_certificate(ShiftModel(Pow(1), 64), [ShiftModel(Pow(2), 64)])
        payload = certificate_to_json(cert)
        payload["first_nonzero"] = {"index": 2, "value": "1/36"}
        verdict = verify_certificate(certificate_from_json(payload))
        assert verdict.fails
        assert verdict.evidence["failed_obligation"] == OBLIGATION_COMMUTATOR

    def test_tampered_stored_softness_detected(self):
        cert = build_certificate(ShiftModel(Pow(1), 64), [ShiftModel(Pow(2), 64)])
        payload = certificate_to_json(cert)
        payload["softness"]["status"] = "Holds"
        verdict = verify_certificate(certificate_from_json(payload))
        assert verdict.fails
        assert verdict.evidence["failed_obligation"] == OBLIGATION_NOT_SOFT

    def test_soft_generator_substitution_detected(self):
        cert = build_certificate(ShiftModel(Pow(1), 64), [ShiftModel(Pow(2), 64)])
        payload = certificate_to_json(cert)
        payload["generator"]["weights"] = "exp:1/2"
        verdict = verify_certificate(certificate_from_json(payload))
        assert verdict.fails
        assert verdict.evidence["failed_obligation"] == OBLIGATION_NOT_SOFT

    def test_unknown_schema_rejected(self):
        cert = build_certificate(ShiftModel(Pow(1), 64), [ShiftModel(Pow(2), 64)])
        payload = certificate_to_json(cert)
        payload["schema_version"] = "99"
        with pytest.raises(CertificateError):
            certificate_from_json(payload)

    def test_verification_is_self_contained(self):
        # verify consumes only stored data: serialize, discard the builder
        # objects, verify from the decoded copy alone
        payload = certificate_to_json(
            build_certificate(ShiftModel(Pow(1), 48), [ShiftModel(Pow(2), 48)])
        )
        text = json.dumps(payload, sort_keys=True)
        restored = certificate_from_json(json.loads(text))
        assert verify_certificate(restored).holds


_COMMUTATOR_CHECKLIST = [
    "generator_not_finite_rank",
    "generator_ideal_not_soft_symbolic",
    "commutator_nonzero_at_first_index",
    "truncation_bracket_matches_formula_window",
]
_CENTRAL_CHECKLIST = [
    "generator_not_finite_rank",
    "generator_ideal_not_soft_symbolic",
    "pool_commutators_all_zero",
]
_COMM, _SOFT = "commutator_nonzero_at_first_index", "generator_ideal_not_soft_symbolic"
_POOL, _LIST = "pool_commutators_all_zero", "obligation_checklist"
_FINITE = "generator_not_finite_rank"


def _fails(*names):
    return {"status": "Fails", "method": "SymbolicProven",
            "evidence": {"failed_obligation": names[0], "all_failures": list(names)}}


def _holds(branch):
    checklist = _COMMUTATOR_CHECKLIST if branch == "commutator" else _CENTRAL_CHECKLIST
    return {"status": "Holds", "method": "SymbolicProven",
            "evidence": {"branch": branch, "obligations": checklist}}


_INEXACT_MODEL = "error: shift model needs exactly evaluable weights"
_INEXACT_BRACKET = "error: shift brackets need exactly evaluable weights"
_MALFORMED = "error: malformed certificate: "
_POW2_AT_8 = {"truncation": 8, "weights": "pow:2"}
_STRUCTURAL_CONCLUSION = (
    "T commutes with every partner in the recorded pool (proportional weights, proven for "
    "every index); in any Lie algebra where T is central, span(T) is a proper nonzero Lie "
    "ideal (this certificate is conditional on the recorded pool)"
)


def _changed(payload, path, value):
    """A copy of the certificate JSON with the field at path set to value."""
    payload = json.loads(json.dumps(payload))
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return payload


def _outcome(payload):
    """The verdict JSON for a certificate, or the error line the CLI prints."""
    try:
        return verify_certificate(certificate_from_json(payload)).to_json()
    except CertificateError as exc:
        return f"error: {exc}"


def _paths(node, prefix=()):
    """(path, value) for every field below node, objects and lists included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,), child
        yield from _paths(child, prefix + (key,))


_BASES = ["pinned", "central", "window"]
_ANY_TYPE = (None, True, 1.5, "x", [], {})


class TestTamperTable:
    """One stored field changed at a time.  Each outcome, the verdict JSON
    (with the order of all_failures) or the error line the CLI prints, is
    pinned: a change to verify must keep every one."""

    @staticmethod
    def _base(name):
        if name == "pinned":
            return json.loads(json.dumps(PINNED_CERTIFICATE))
        if name == "central":
            pool = [ShiftModel(Scale(3, Pow(1)), 8), ShiftModel(Scale(F(1, 7), Pow(1)), 8)]
            return certificate_to_json(build_certificate(ShiftModel(Pow(1), 8), pool))
        partner = TestBuildCertificate._prefix_copy_partner()
        return certificate_to_json(
            build_certificate(ShiftModel(Pow(1), 32), [ShiftModel(partner, 32)], scan_window=9)
        )

    @pytest.mark.parametrize("base,path,value,expected", [
        ("pinned", ("branch",), "central", _fails(_POOL, _LIST)),
        ("pinned", ("branch",), "bogus", _fails("branch", _LIST)),
        ("pinned", ("partner", "weights"), "pow:2", _fails(_COMM)),
        ("pinned", ("partner", "weights"), "scale:7;pow:1", _fails(_COMM)),
        ("pinned", ("partner", "weights"), "powlog:1,1", _INEXACT_MODEL),
        ("pinned", ("partner", "weights"), "pow:1/2", _INEXACT_MODEL),
        ("pinned", ("partner", "truncation"), 8, _fails(_COMM)),
        ("pinned", ("partner", "truncation"), 2, "error: truncation 2 is below the minimum 3"),
        ("pinned", ("partner", "truncation"), MAX_TRUNCATION + 1,
         "error: truncation 16385 exceeds the limit 16384"),
        ("pinned", ("partner",), None, _fails(_COMM)),
        ("pinned", ("first_nonzero", "index"), 2, _fails(_COMM)),
        ("pinned", ("first_nonzero", "index"), 1025,
         "error: first nonzero index 1025 lies outside 1..1024"),
        ("pinned", ("first_nonzero", "value"), "1/5", _fails(_COMM)),
        ("pinned", ("first_nonzero", "value"), "0", _fails(_COMM)),
        ("pinned", ("first_nonzero",), None, _fails(_COMM)),
        ("pinned", ("scan_window",), 1, _holds("commutator")),
        ("pinned", ("scan_window",), 0, "error: scan window 0 is below the minimum 1"),
        ("pinned", ("scan_window",), MAX_SCAN_WINDOW + 1,
         "error: scan window 65537 exceeds the limit 65536"),
        ("pinned", ("obligations", 0, "passed"), False, _fails(_LIST)),
        ("pinned", ("obligations", 1, "passed"), False, _fails(_LIST)),
        ("pinned", ("obligations", 2, "passed"), False, _fails(_LIST)),
        ("pinned", ("obligations", 3, "passed"), False, _fails(_LIST)),
        ("pinned", ("obligations", 3, "name"), "bogus", _fails(_LIST)),
        ("pinned", ("central_mode",), "structural", _fails(_COMM)),
        ("pinned", ("pool",), [], _fails(_COMM)),
        ("pinned", ("pool", 0, "weights"), "powlog:1,1", _INEXACT_BRACKET),
        ("pinned", ("generator", "weights"), "exp:1/2", _fails(_SOFT, _COMM)),
        ("pinned", ("generator", "weights"), "powlog:1,1", _INEXACT_MODEL),
        ("pinned", ("generator", "weights"), "pow:1/2", _INEXACT_MODEL),
        ("pinned", ("generator", "truncation"), 16, _holds("commutator")),
        ("pinned", ("softness", "status"), "Holds", _fails(_SOFT)),
        ("central", ("branch",), "commutator", _fails(_COMM, _LIST)),
        ("central", ("branch",), "bogus", _fails("branch")),
        ("central", ("partner",), _POW2_AT_8, _fails(_POOL)),
        ("central", ("first_nonzero",), {"index": 1, "value": "1/4"}, _fails(_POOL)),
        ("central", ("scan_window",), 1, _holds("central")),
        ("central", ("obligations", 0, "passed"), False, _fails(_LIST)),
        ("central", ("obligations", 1, "passed"), False, _fails(_LIST)),
        ("central", ("obligations", 2, "passed"), False, _fails(_LIST)),
        ("central", ("obligations", 2, "name"), "bogus", _fails(_LIST)),
        ("central", ("central_mode",), "window", _fails(_POOL)),
        ("central", ("central_mode",), None, _fails(_POOL)),
        ("central", ("central_mode",), "bogus", _fails(_POOL)),
        ("central", ("pool",), [], _fails(_POOL)),
        ("central", ("pool", 0, "weights"), "pow:2", _fails(_POOL)),
        ("central", ("pool", 1, "weights"), "pow:2", _fails(_POOL)),
        ("central", ("pool", 0, "weights"), "powlog:1,1", _INEXACT_BRACKET),
        ("central", ("pool", 1, "weights"), "powlog:1,1", _INEXACT_BRACKET),
        # the scan stops at the first partner that does not commute
        ("central", ("pool",), [_POW2_AT_8, {"truncation": 8, "weights": "powlog:1,1"}],
         _fails(_POOL)),
        ("central", ("pool", 0, "truncation"), 2, "error: truncation 2 is below the minimum 3"),
        ("window", ("central_mode",), "structural", _fails(_POOL)),
        ("window", ("scan_window",), 10, _fails(_POOL)),
        # the conclusion names the window the scan used
        ("window", ("scan_window",), 8, _fails(_POOL)),
        # the partner must be the first pool entry that does not commute
        ("pinned", ("pool", 0, "weights"), "pow:3", _fails(_COMM)),
        ("pinned", ("conclusion",), "T is not simple", _fails(_COMM)),
        ("central", ("conclusion",), "T is central", _fails(_POOL)),
        ("window", ("conclusion",), _STRUCTURAL_CONCLUSION, _fails(_POOL)),
        ("pinned", ("softness", "evidence", "k"), 3, _fails(_SOFT)),
        ("central", ("softness", "evidence"), {}, _fails(_SOFT)),
        ("pinned", ("softness", "method"), "NumericIndicated", _fails(_SOFT)),
        ("pinned", ("obligations",), PINNED_CERTIFICATE["obligations"][::-1], _fails(_LIST)),
        # each field has one JSON type: no string, float or boolean is read
        # as a number, nor a string as a boolean
        ("pinned", ("obligations", 0, "passed"), "false",
         _MALFORMED + 'passed must be a boolean, got "false"'),
        ("pinned", ("generator", "truncation"), 16.9,
         _MALFORMED + "truncation must be an integer, got 16.9"),
        ("pinned", ("partner", "truncation"), "16",
         _MALFORMED + 'truncation must be an integer, got "16"'),
        ("pinned", ("scan_window",), True,
         _MALFORMED + "scan_window must be an integer, got true"),
        ("pinned", ("first_nonzero", "index"), 1.5,
         _MALFORMED + "index must be an integer, got 1.5"),
        ("pinned", ("first_nonzero", "value"), 0.125,
         _MALFORMED + "value must be a string, got 0.125"),
        ("pinned", ("branch",), [], _MALFORMED + "branch must be a string, got []"),
        ("pinned", ("obligations", 1, "name"), [], _MALFORMED + "name must be a string, got []"),
        ("pinned", ("conclusion",), None, _MALFORMED + "conclusion must be a string, got null"),
        ("central", ("central_mode",), 1,
         _MALFORMED + "central_mode must be a string or null, got 1"),
        ("central", ("pool",), {}, _MALFORMED + "pool must be a list, got {}"),
        ("central", ("softness", "evidence"), [],
         _MALFORMED + "evidence must be an object, got []"),
        # a finite-rank generator is soft too, so verify fails both obligations;
        # pool entry 0 stops commuting with it, so the partner is wrong as well
        ("pinned", ("generator", "weights"), "finite:[1,1/2]", _fails(_SOFT, _FINITE, _COMM)),
    ])
    def test_one_field_changed(self, base, path, value, expected):
        assert _outcome(_changed(self._base(base), path, value)) == expected

    @pytest.mark.parametrize("base", ["pinned", "central", "window"])
    def test_unchanged_base_holds(self, base):
        payload = self._base(base)
        branch = payload["branch"]
        assert verify_certificate(certificate_from_json(payload)).to_json() == _holds(branch)


class TestEveryField:
    """Each stored field of the three tamper-table bases, changed alone."""

    @pytest.mark.parametrize("base", _BASES)
    def test_any_json_type_gives_a_verdict_or_one_error_line(self, base, tmp_path, capsys):
        payload, path_file, bad = TestTamperTable._base(base), tmp_path / "cert.json", []
        for path, _ in _paths(payload):
            for value in _ANY_TYPE:
                path_file.write_text(json.dumps(_changed(payload, path, value)))
                try:
                    code = cli.main(["witness", "verify", "--file", str(path_file)])
                except Exception as exc:  # any escape is the failure sought
                    code = repr(exc)
                out, err = capsys.readouterr()
                verdict = code == 0 and out.startswith(("VERIFIED", "REJECTED")) and not err
                error = code == 2 and not out and len(err.splitlines()) == 1 \
                    and err.startswith("error: ")
                if not (verdict or error):
                    bad.append((path, value, code, err[-200:]))
        assert bad == []

    @pytest.mark.parametrize("base", _BASES)
    def test_every_field_is_checked(self, base):
        # some value of the field's own type (any type for a null) is refused:
        # a field that no obligation reads would hold with every one
        payload, unchecked = TestTamperTable._base(base), []
        for path, old in _paths(payload):
            if isinstance(old, (dict, list)):
                continue
            kind = type(old)
            values = ([not old] if kind is bool else [0, old + 1] if kind is int
                      else ["x"] if kind is str else _ANY_TYPE)
            if all(_outcome(_changed(payload, path, v)) == _holds(payload["branch"])
                   for v in values):
                unchecked.append(path)
        assert unchecked == []


class TestHypothesisGateInvariant:
    def test_no_certificate_with_soft_generator(self):
        soft_weights = [Exp(F(1, 2)), Exp(F(9, 10)), FiniteSupport([1])]
        for w in soft_weights:
            with pytest.raises(CertificateError):
                build_certificate(ShiftModel(w, 32), [ShiftModel(Pow(2), 32)])


class TestLimits:
    # the central branch with a proportional partner builds no matrix and
    # scans no weight, so the limits themselves are what is exercised here
    @staticmethod
    def _central(truncation, window):
        return build_certificate(
            ShiftModel(Pow(1), truncation), [ShiftModel(Scale(3, Pow(1)), truncation)], window
        )

    def test_build_at_the_limits(self):
        cert = self._central(MAX_TRUNCATION, MAX_SCAN_WINDOW)
        assert cert.generator.truncation == MAX_TRUNCATION
        assert verify_certificate(cert).holds

    @pytest.mark.parametrize(
        "truncation,window",
        [(MAX_TRUNCATION + 1, MAX_SCAN_WINDOW), (MAX_TRUNCATION, MAX_SCAN_WINDOW + 1)],
    )
    def test_build_over_a_limit_refused(self, truncation, window):
        with pytest.raises(CertificateError, match="exceeds the limit"):
            self._central(truncation, window)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("generator", MAX_TRUNCATION + 1),
            ("partner", MAX_TRUNCATION + 1),
            ("pool", MAX_TRUNCATION + 1),
            ("scan_window", MAX_SCAN_WINDOW + 1),
        ],
    )
    def test_file_over_a_limit_refused(self, field, value):
        payload = certificate_to_json(
            build_certificate(ShiftModel(Pow(1), 16), [ShiftModel(Pow(2), 16)])
        )
        if field == "scan_window":
            payload["scan_window"] = value
        elif field == "pool":
            payload["pool"][0]["truncation"] = value
        else:
            payload[field]["truncation"] = value
        with pytest.raises(CertificateError, match="exceeds the limit"):
            certificate_from_json(payload)

    @staticmethod
    def _weights_of_bits(n, bits):
        # scale:1/2^j;pow:1 counts j + 2 bits for the scale and 1 + n.bit_length()
        # for its n-th weight 1/n
        return Scale(F(1, 2 ** (bits - 3 - n.bit_length())), Pow(1))

    @given(expr=st.sampled_from(EXACT_BATTERY), n=st.integers(1, 512))
    def test_weight_bits_bound_the_built_weight(self, expr, n):
        w = eval_at(expr, n)
        assert _weight_bits(expr, n) >= w.numerator.bit_length() + w.denominator.bit_length()

    def test_weight_bits_at_the_limit(self):
        n = 1 << 13
        assert MAX_WEIGHT_BITS % n == 0
        generator = ShiftModel(self._weights_of_bits(n, MAX_WEIGHT_BITS // n), n)
        cert = build_certificate(generator, [ShiftModel(Pow(1), n)])
        assert verify_certificate(cert).holds
        assert verify_certificate(certificate_from_json(certificate_to_json(cert))).holds

    def test_weight_bits_over_the_limit(self):
        n = 3
        assert (MAX_WEIGHT_BITS + 1) % n == 0
        generator = ShiftModel(self._weights_of_bits(n, (MAX_WEIGHT_BITS + 1) // n), n)
        with pytest.raises(CertificateError, match="exceeds the limit"):
            build_certificate(generator, [ShiftModel(Pow(1), n)])

    def test_partner_weights_bounded_at_the_generator_truncation(self, tmp_path):
        check(PARTNER_WEIGHTS, tmp_path)

    test_scan_weights_bounded_in_build = staticmethod(table_test(SCAN_WEIGHTS))

    def test_scan_weights_bounded_in_verify(self, tmp_path):
        check(SCAN_WEIGHTS_VERIFY, tmp_path)

    def test_file_at_the_limits_accepted(self):
        payload = certificate_to_json(self._central(64, 64))
        payload["generator"]["truncation"] = MAX_TRUNCATION
        payload["scan_window"] = MAX_SCAN_WINDOW
        cert = certificate_from_json(payload)
        assert cert.scan_window == MAX_SCAN_WINDOW
        assert verify_certificate(cert).holds
