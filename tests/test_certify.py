import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from zkwander.certify import (Certificate, check_certificate, default_s_max,
                              save_certificate, verify)
from zkwander.errors import CertificateError, ModeUnsupportedError
from zkwander.model import DegreePattern, GeneratorPair
from zkwander.recovery import attach_register, recover
from zkwander.reduction import reduce_system
from zkwander.scalars import FLOAT, INTERVAL, Radical
from zkwander.weights import dirichlet

C_FLAGSHIP = 0.18894510966828287
HEADLINE_CERTIFICATE = Path(__file__).with_name("data").joinpath(
    "headline_certificate.json")


def _trivial_pair():
    # F_1 = 1 + z^6 fails the very first orthogonality relation
    return GeneratorPair(
        DegreePattern.default(6),
        a_low=(Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        a_high=(Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        b_low=(Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
    )


class TestVerify:

    def test_flagship_passes(self, cert16):
        assert cert16.verdict == "pass"
        assert cert16.passed
        assert cert16.regime == "rational"
        assert cert16.reasons == []
        for name in ("adjacent_zero", "higher_zero", "coupling_nonzero",
                     "strict_contraction"):
            assert cert16.conditions[name]["holds"]

    def test_flagship_ratio(self, cert16):
        assert math.isclose(float(cert16.c_value), C_FLAGSHIP, rel_tol=1e-12)
        assert cert16.c_value < 1

    def test_membership_sweep_ran_clean(self, cert16):
        assert cert16.membership["holds"]
        assert cert16.membership["levels"] == cert16.s_max

    def test_default_sweep_depth(self, pattern6):
        assert default_s_max(pattern6) == 6
        assert default_s_max(DegreePattern.from_phi(6, 2, 34)) == 40

    def test_higher_levels_only_warn(self, cert16):
        # A_(s,1) for s >= 4 is genuinely nonzero; it must warn, not fail
        assert any("harmless" in w for w in cert16.warnings)

    def test_trivial_pair_fails_with_reasons(self, seq16):
        cert = verify(_trivial_pair(), seq16)
        assert cert.verdict == "fail"
        assert any("A_(1,1)" in r for r in cert.reasons)

    def test_rational_regime_rejects_float_coefficients(self, seq16):
        pair = GeneratorPair(
            DegreePattern.default(6),
            a_low=(1.0, 0.0, 0.0, 0.0),
            a_high=(0.0,) * 4,
            b_low=(0.0, 1.0, 0.0, 0.0),
        )
        with pytest.raises(ModeUnsupportedError):
            verify(pair, seq16)

    @pytest.mark.parametrize("regime,value", [
        (INTERVAL, Radical.sqrt(2)),
        (INTERVAL, complex(1.0, 1.0)),
        (FLOAT, Radical.sqrt(2)),
    ], ids=["interval-radical", "interval-complex", "float-radical"])
    def test_regime_rejects_coefficients_it_cannot_multiply(self, seq16,
                                                            regime, value):
        pair = GeneratorPair(DegreePattern.default(6),
                             a_low=(value, 0.0, 0.0, 0.0),
                             a_high=(0.0,) * 4, b_low=(0.0, 1.0, 0.0, 0.0))
        with pytest.raises(ModeUnsupportedError):
            verify(pair, seq16, regime)

    def test_each_level_is_evaluated_once(self, registered16, seq16,
                                          monkeypatch):
        # the membership sweep reuses verify's level-1 block
        import zkwander.certify
        import zkwander.model
        levels = []
        compute_A = zkwander.model.compute_A

        def counted(pair, seq, s, regime):
            levels.append(s)
            return compute_A(pair, seq, s, regime)
        for module in (zkwander.certify, zkwander.model):
            monkeypatch.setattr(module, "compute_A", counted)
        cert = verify(registered16.pair, seq16)
        assert cert.passed
        assert levels == list(range(1, cert.s_max + 1))

    def test_sweep_depth_below_three_rejected(self, registered16, seq16):
        with pytest.raises(ValueError):
            verify(registered16.pair, seq16, s_max=2)


@pytest.fixture(scope="module")
def float_cert():
    rs = reduce_system(dirichlet(-16), DegreePattern.default(6), FLOAT)
    params = attach_register(recover(rs, (1.0, 4.0, 6.0), z3=-2e13), 1.0, 1.0)
    return verify(params.pair, rs.seq, FLOAT)


class TestFloatGate:

    def test_verdict_withheld(self, float_cert):
        assert float_cert.verdict == "fail"
        assert any("soundness gate" in w for w in float_cert.warnings)
        assert any("rational or interval" in r for r in float_cert.reasons)

    def test_conditions_still_reported(self, float_cert):
        for name in ("adjacent_zero", "higher_zero", "coupling_nonzero",
                     "strict_contraction"):
            assert float_cert.conditions[name]["holds"]
        assert float_cert.c_value == pytest.approx(C_FLAGSHIP)


class TestIntervalRegime:

    def test_flagship_fails_honestly(self, z3_main):
        """Interval enclosures of the engineered cancelation keep a tiny
        width, so the equality conditions cannot certify at this alpha."""
        rs = reduce_system(dirichlet(-16), DegreePattern.default(6), INTERVAL)
        params = recover(rs, (1, 4, 6), z3=z3_main)
        cert = verify(params.pair, rs.seq, INTERVAL)
        assert cert.verdict == "fail"
        assert any("exceeds the certification tolerance" in r
                   for r in cert.reasons)


class TestCertificateIO:

    def test_round_trip_and_recheck(self, cert16):
        data = json.loads(cert16.to_json())
        assert data["schema"] == "zkwander-certificate/v1"
        report = check_certificate(data)
        assert report["ok"]
        assert report["schema_ok"]
        assert report["stored_verdict"] == "pass"
        assert report["recomputed_verdict"] == "pass"
        assert report["mismatches"] == []

    def test_save_and_check_file(self, cert16, tmp_path):
        path = tmp_path / "cert.json"
        save_certificate(cert16, str(path))
        report = check_certificate(str(path))
        assert report["ok"]

    def test_embedded_weights_cover_matrix_and_registers(self, cert16):
        data = cert16.to_dict()
        assert len(data["weights_at_matrix_indices"]) == 14
        assert data["weights_at_matrix_indices"]["6"] == str(Fraction(1, 7 ** 16))

    def test_c_float_mirror(self, cert16):
        data = cert16.to_dict()
        assert data["c_float"] == pytest.approx(C_FLAGSHIP)

    def test_tampered_coefficient_is_caught(self, cert16):
        data = json.loads(cert16.to_json())
        data["coefficients"]["a_high"][0] = str(Fraction(123, 10))
        report = check_certificate(data)
        assert not report["ok"]
        assert any("verdict" in m for m in report["mismatches"])

    def test_tampered_ratio_is_caught(self, cert16):
        data = json.loads(cert16.to_json())
        data["c"] = str(Fraction(1, 7))
        report = check_certificate(data)
        assert not report["ok"]
        assert any("contraction ratio" in m for m in report["mismatches"])

    def test_unknown_schema_rejected(self, cert16):
        data = json.loads(cert16.to_json())
        data["schema"] = "zkwander-certificate/v9"
        with pytest.raises(CertificateError):
            check_certificate(data)
        with pytest.raises(CertificateError):
            check_certificate([data])

    def test_headline_bytes_are_pinned(self, cert16):
        assert cert16.to_json().encode() == HEADLINE_CERTIFICATE.read_bytes()
        assert check_certificate(str(HEADLINE_CERTIFICATE))["ok"]

    def test_malformed_payload_rejected(self, cert16):
        data = json.loads(cert16.to_json())
        del data["coefficients"]
        with pytest.raises(CertificateError):
            check_certificate(data)


def _drop(key):
    def mutate(data):
        del data[key]
    return mutate


def _set(key, value):
    def mutate(data):
        data[key] = value
    return mutate


def _bad_weight_index(data):
    data["weights_at_matrix_indices"]["x"] = "1"


def _set_in(*path_and_value):
    *path, key, value = path_and_value

    def mutate(data):
        for step in path:
            data = data[step]
        data[key] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    _drop("verdict"),
    _drop("weights_at_matrix_indices"),
    _set("regime", "bogus"),
    _set("regime", "interval"),
    _set("regime", "float"),
    _set("s_max", -1),
    _set("s_max", 0),
    _set("s_max", 2),
    _set("s_max", "3"),
    _set("s_max", 3.0),
    _set("k", "6"),
    _set("k", True),
    _set("k", 0),
    _set("gamma", [0, 1, 2, 3, 4, "5"]),
    _bad_weight_index,
    _set("c", "x"),
    _set_in("coefficients", "a_low", 0, "1/0"),
    _set_in("coefficients", "a_low", 3, "rational", "1/0"),
    _set("c", "1/0"),
    _set_in("weights", "alpha", "1/0"),
    _set_in("weights_at_matrix_indices", "10", "1/0"),
    _set_in("coefficients", "a_low", 3, "roots", 0, float("inf")),
    _set_in("weights", "alpha", float("inf")),
], ids=["no-verdict", "no-weights", "regime", "regime-interval",
        "regime-float", "s_max-negative", "s_max-0",
        "s_max-2", "s_max-str", "s_max-float", "k-str", "k-bool",
        "k-zero", "gamma-str", "weight-index", "c-str",
        "coefficient-zero-denominator", "radical-zero-denominator",
        "c-zero-denominator", "alpha-zero-denominator",
        "embedded-weight-zero-denominator", "root-infinite",
        "alpha-infinite"])
def test_malformed_field_is_a_certificate_error(cert16, mutate):
    data = json.loads(cert16.to_json())
    mutate(data)
    with pytest.raises(CertificateError):
        check_certificate(data)


def test_smallest_sweep_depth_still_replays(cert16):
    data = json.loads(cert16.to_json())
    data["s_max"] = 3
    assert check_certificate(data)["recomputed_verdict"] == "pass"
