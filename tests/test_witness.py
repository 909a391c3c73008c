"""Non-simplicity certificates: shift commutators, build/verify round trips,
tamper detection, the hypothesis gate."""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from idealkit.ratlinalg import bracket
from idealkit.seqspace import (
    Exp,
    FiniteSupport,
    Pow,
    Product,
    Scale,
    Status,
    eval_at,
    has_exact_eval,
)
from idealkit.witness import (
    Certificate,
    CertificateError,
    MAX_SCAN_WINDOW,
    MAX_TRUNCATION,
    MAX_WEIGHT_BITS,
    OBLIGATION_COMMUTATOR,
    OBLIGATION_NOT_SOFT,
    ShiftModel,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    load_certificate,
    save_certificate,
    shift_bracket,
    shift_matrix,
    verify_certificate,
    _weight_bits,
)

from conftest import EXACT_BATTERY


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
                tm, sm = shift_matrix(ShiftModel(w, n)), shift_matrix(ShiftModel(v, n))
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
        assert "conditional on the recorded pool" in cert.conclusion
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
    def test_round_trip_holds(self):
        cert = build_certificate(ShiftModel(Pow(1), 64), [ShiftModel(Pow(2), 64)])
        assert verify_certificate(cert).holds
        rebuilt = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
        assert verify_certificate(rebuilt).holds

    def test_round_trip_at_truncation_1024(self):
        cert = build_certificate(ShiftModel(Pow(1), 1024), [ShiftModel(Exp(F(1, 2)), 1024)])
        assert cert.obligation("truncation_bracket_matches_formula_window")
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

    def test_file_at_the_limits_accepted(self):
        payload = certificate_to_json(self._central(64, 64))
        payload["generator"]["truncation"] = MAX_TRUNCATION
        payload["scan_window"] = MAX_SCAN_WINDOW
        cert = certificate_from_json(payload)
        assert cert.scan_window == MAX_SCAN_WINDOW
        assert verify_certificate(cert).holds
