import copy
import functools
import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from zkwander.certify import (MAX_DEGREE, MAX_K, Certificate, check_bounds,
                              check_certificate, json_text, save_certificate,
                              verify)
from zkwander.errors import (CertificateError, ModeUnsupportedError,
                             RegisterTooLargeError)
from zkwander.model import AQuantities, DegreePattern, GeneratorPair
from zkwander.recovery import attach_register, auto_register, recover
from zkwander.reduction import reduce_system
from zkwander.reference_data import TABLE1_ROWS, TABLE2_ROWS
from zkwander.scalars import INTERVAL, RATIONAL, Interval, Radical
from zkwander.weights import dirichlet, exact_regime, perturbed, weight

import sweep_oracle
from sweep_oracle import membership_sweep

C_FLAGSHIP = 0.18894510966828287
DATA = Path(__file__).with_name("data")
# the headline certificate as schema v2 writes it, byte for byte
HEADLINE_CERTIFICATE = DATA / "headline_certificate_v2.json"
# alpha = -33/2, k = 6, d = (1, 1, 4, 6), Z_3 = -2e13, unit registers, in
# the interval regime, as schema v2 writes it since an enclosure proves 0
# only as the point [0, 0]
INTERVAL_CERTIFICATE = DATA / "interval_certificate_v2.json"
# the headline pair in the float regime, as `pipeline --alpha -16 --d 1,4,6
# --z3 -2e13 --regime float` wrote it when floats were still a regime
FLOAT_CERTIFICATE = DATA / "float_certificate_v2.json"
# the same certificate as schema v1 wrote it (with an s_max sweep depth),
# which replay refuses: v1 compared fewer fields than v2
HEADLINE_CERTIFICATE_V1 = DATA / "headline_certificate.json"
HEADLINE_V1_SHA256 = (
    "5b086a957d14e8d31f76fe4bf8ef6d57d4b6cc86d15776b46fc38d0a9cc9aed3")


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
        assert cert16.membership["levels"] == [1, 2]

    def test_a_nonzero_membership_product_fails_the_sweep(
            self, registered16, seq16, monkeypatch):
        # verify computes no sweep product; the oracle it is checked
        # against computes them all, those of F_3 included: one nonzero
        # product, here <F_2, z^12 F_1> and then <F_3, z^6 F_2>, fails the
        # oracle's sweep and is named
        inner_product = sweep_oracle.inner_product
        pair = registered16.pair
        f1, f2 = sweep_oracle.f1_map(pair), sweep_oracle.f2_map(pair)

        def skewed(f, g, seq, regime, shift_f=0, shift_g=0):
            v = inner_product(f, g, seq, regime, shift_f, shift_g)
            product = ("F2" if f == f2 else "F3", shift_g,
                       "F1" if g == f1 else "F2")
            return v + 1 if product == target else v
        monkeypatch.setattr(sweep_oracle, "inner_product", skewed)
        for target in (("F2", 12, "F1"), ("F3", 6, "F2")):
            assert membership_sweep(pair, seq16) == {
                "holds": False, "first_failure": "<%s, z^%d %s> != 0" % target}

    def test_a_degenerate_gap_fails_the_sweep(self, registered16, seq16,
                                              monkeypatch):
        # at Cauchy-Schwarz equality, A_13 A_14 = A_12^2, F_3 does not
        # exist: the sweep refuses to build it and fails the certificate
        import zkwander.certify
        relations = zkwander.certify.orthogonality_relations

        def equality(pair, seq, regime):
            q1, cells = relations(pair, seq, regime)
            a13 = q1.A2 * q1.A2 / q1.A4
            return AQuantities(q1.A1, q1.A2, a13, q1.A4, q1.A5), cells
        monkeypatch.setattr(zkwander.certify, "orthogonality_relations",
                            equality)
        cert = verify(registered16.pair, seq16)
        assert cert.verdict == "fail"
        error = ("A_13 A_14 - |A_12|^2 = Fraction(0, 1) is not certifiably "
                 "positive")
        assert cert.membership == {"holds": False, "error": error}
        assert cert.reasons == ["membership sweep cannot build F_3: the "
                                "Cauchy-Schwarz gap " + error]

    @pytest.mark.parametrize("pattern", [
        DegreePattern.default(6), DegreePattern.from_phi(6, 2, 34),
        DegreePattern.from_phi(88, 3, 166)], ids=["k6", "k6-phi", "k88"])
    def test_sweep_levels_come_from_the_lemma(self, pattern):
        # the old sweep ran 6, 40 and 172 levels on these patterns
        overlaps = pattern.sweep_overlaps()
        assert {s for s, _ in overlaps} == {1, 2}
        assert {t for _, t in overlaps} <= set(pattern.embedded_indices())

    def test_higher_levels_are_one_structural_statement(self, cert16):
        # A_(s,1), A_(s,5) for s >= 4 are nonzero but multiply a zero
        # coefficient; they are stated once and never evaluated
        data = cert16.to_dict()
        assert data["warnings"] == []
        assert "zero coefficient" in data["support_lemma"]["higher_levels"]
        assert sorted(data["A"]) == ["1", "2", "3"]
        assert sorted(data["A"]["2"]) == sorted(data["A"]["3"]) == ["A1", "A5"]

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
    ], ids=["interval-radical", "interval-complex"])
    def test_regime_rejects_coefficients_it_cannot_multiply(self, seq16,
                                                            regime, value):
        pair = GeneratorPair(DegreePattern.default(6),
                             a_low=(value, 0.0, 0.0, 0.0),
                             a_high=(0.0,) * 4, b_low=(0.0, 1.0, 0.0, 0.0))
        with pytest.raises(ModeUnsupportedError):
            verify(pair, seq16, regime)

    def test_inputs_outside_the_replay_bounds_are_refused_first(
            self, registered16, monkeypatch):
        read = TestReadSet.spy_on_weight(monkeypatch)
        with pytest.raises(ValueError, match=r"\|alpha\| <= 64"):
            verify(registered16.pair, dirichlet(-65))
        assert read == set()

    def test_each_level_is_evaluated_once(self, registered16, seq16,
                                          monkeypatch):
        # the full block at level 1 only (the membership sweep reuses it),
        # A_(s,1) and A_(s,5) alone at levels 2 and 3; the spy also sees
        # the level-1 pair that the block is given
        import zkwander.model
        blocks, pairs = [], []
        slot_block = zkwander.model._slot_block
        adjacent = zkwander.model._adjacent

        def counted_block(rows, w, pattern, regime, a1, a5):
            blocks.append(1)
            return slot_block(rows, w, pattern, regime, a1, a5)

        def counted_pair(rows, w, pattern, s, regime):
            pairs.append(s)
            return adjacent(rows, w, pattern, s, regime)
        # model.orthogonality_relations computes all of them for verify
        monkeypatch.setattr(zkwander.model, "_slot_block", counted_block)
        monkeypatch.setattr(zkwander.model, "_adjacent", counted_pair)
        cert = verify(registered16.pair, seq16)
        assert cert.passed
        assert blocks == [1]
        assert pairs == [1, 2, 3]
        assert cert.membership["levels"] == [1, 2]


INTEGER_ROWS = tuple(row for row in TABLE1_ROWS + TABLE2_ROWS
                     if row.alpha.denominator == 1)


class TestMembershipOracle:
    """verify states the membership sweep from the zero cells and the gap;
    tests/sweep_oracle.py builds F_3 and computes the eight products, and
    the two agree wherever verify sweeps (TestCorollary checks its pairs
    too)."""

    def test_the_headline(self, cert16):
        assert cert16.membership == membership_sweep(cert16.pair, cert16.seq)

    @seed(41)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(row=st.sampled_from(INTEGER_ROWS),
           lam=st.fractions(Fraction(1, 99), 99, max_denominator=99),
           register=st.fractions(Fraction(1, 9), 9, max_denominator=9))
    def test_recovered_pairs_on_the_integer_published_rows(self, row, lam,
                                                           register):
        seq = dirichlet(row.alpha)
        params = recover(reduce_system(seq, DegreePattern.from_phi(
            row.k, row.phi2, row.phi3)), tuple(lam * v for v in (1,) + row.d))
        try:
            params = attach_register(params, register, register)
        except RegisterTooLargeError:
            r = auto_register(params)
            params = attach_register(params, r, r)
        cert = verify(params.pair, seq)
        assert cert.passed
        assert cert.membership == membership_sweep(params.pair, seq)


@functools.lru_cache(maxsize=None)
def _float_recovered_json() -> str:
    """The interval certificate of the headline pair with float
    coefficients, the float() of the rational recovery: floats locate the
    pair, the interval regime proves what it can of it."""
    seq = dirichlet(-16)
    rs = reduce_system(seq, DegreePattern.default(6))
    exact = recover(rs, (1, 4, 6), z3=Fraction(-2 * 10 ** 13)).pair
    pair = GeneratorPair(exact.pattern, *(tuple(map(float, part)) for part in
                                          (exact.a_low, exact.a_high,
                                           exact.b_low)), 1.0, 1.0)
    return verify(pair, seq, INTERVAL).to_json()


class TestFloatGate:
    """Floats locate a pair; they do not prove one.  They are no regime:
    verify refuses "float", as any unknown regime, before it evaluates any
    weight."""

    @pytest.mark.parametrize("certify", [verify], ids=["verify"])
    def test_the_float_regime_is_refused(self, certify, registered16,
                                         monkeypatch):
        read = TestReadSet.spy_on_weight(monkeypatch)
        for regime in ("float", "bogus"):
            with pytest.raises(ValueError,
                               match=f"^unknown regime '{regime}'$"):
                certify(registered16.pair, dirichlet(-16), regime)
        assert read == set()

    def test_a_float_certificate_does_not_replay(self):
        data = json.loads(FLOAT_CERTIFICATE.read_text())
        assert data["regime"] == "float"
        with pytest.raises(CertificateError, match="^malformed certificate: "
                           "unknown regime 'float'$"):
            check_certificate(str(FLOAT_CERTIFICATE))

    def test_interval_proves_what_float_found(self):
        data = json.loads(_float_recovered_json())
        conditions = data["conditions"]
        assert conditions["coupling_nonzero"]["holds"]
        assert conditions["strict_contraction"]["holds"]
        # every zero cell is enclosed around 0, but only [0, 0] proves 0
        cells = [conditions["adjacent_zero"]["A_1_1"],
                 *(v for key, v in conditions["higher_zero"].items()
                   if key != "holds")]
        assert len(cells) == 5
        assert all(cell["contains_zero"] for cell in cells)
        assert data["verdict"] == "fail"

    def test_float_ratio_is_the_exact_one(self, cert16):
        # recover rounds Z_1 in every regime, so the float pipeline
        # evaluates the pair the exact one certifies
        c = json.loads(_float_recovered_json())["c"]
        exact = float(cert16.c_value)
        assert abs(c["lo"] - exact) <= 1e-14 and abs(c["hi"] - exact) <= 1e-14


class TestIntervalRegime:

    def test_flagship_fails_honestly(self, z3_main):
        """Interval enclosures of the engineered cancelation keep a tiny
        width, and an enclosure containing 0 does not prove 0, so the
        equality conditions cannot certify."""
        rs = reduce_system(dirichlet(-16), DegreePattern.default(6), INTERVAL)
        params = recover(rs, (1, 4, 6), z3=z3_main)
        cert = verify(params.pair, rs.seq, INTERVAL)
        assert cert.verdict == "fail"
        assert any("contains 0" in r and "does not prove that it is 0" in r
                   for r in cert.reasons)

    def test_interval_bytes_are_pinned(self, z3_main):
        seq = dirichlet(Fraction(-33, 2))
        rs = reduce_system(seq, DegreePattern.default(6), INTERVAL)
        params = attach_register(recover(rs, (1, 4, 6), z3=z3_main), 1, 1)
        cert = verify(params.pair, seq, INTERVAL)
        assert cert.to_json().encode() == INTERVAL_CERTIFICATE.read_bytes()
        report = check_certificate(str(INTERVAL_CERTIFICATE))
        assert report["ok"]
        assert report["recomputed_verdict"] == "fail"

    @pytest.mark.parametrize("degenerate", [False, True],
                             ids=["positive-gap", "degenerate-gap"])
    def test_the_sweep_is_the_gap_in_every_regime(self, z3_main, monkeypatch,
                                                  degenerate):
        # with the zero cells proved, here forced to the point [0, 0], the
        # sweep is "gap certainly positive" in the interval regime too; no
        # rounded F_3 coefficient is left to widen <F_3, z^k F_2> past 0
        import zkwander.certify
        relations = zkwander.certify.orthogonality_relations
        zero = Interval(0.0, 0.0)
        blocks = []

        def proved(pair, seq, regime):
            q1, cells = relations(pair, seq, regime)
            a13 = q1.A2 * q1.A2 / q1.A4 if degenerate else q1.A3
            blocks.append(AQuantities(zero, q1.A2, a13, q1.A4, q1.A5))
            return blocks[-1], tuple((cell, zero) for cell, _ in cells)
        monkeypatch.setattr(zkwander.certify, "orthogonality_relations",
                            proved)
        seq = dirichlet(Fraction(-33, 2))
        rs = reduce_system(seq, DegreePattern.default(6), INTERVAL)
        params = attach_register(recover(rs, (1, 4, 6), z3=z3_main), 1, 1)
        cert = verify(params.pair, seq, INTERVAL)
        if not degenerate:
            assert cert.verdict == "pass"
            assert cert.membership == {"holds": True, "levels": [1, 2],
                                       "worst_residual": 0.0}
            return
        gap = blocks[0].contraction_sides()[0]
        assert gap.contains_zero()
        error = f"A_13 A_14 - |A_12|^2 = {gap!r} is not certifiably positive"
        assert cert.verdict == "fail"
        assert cert.membership == {"holds": False, "error": error}
        assert cert.reasons == ["membership sweep cannot build F_3: the "
                                "Cauchy-Schwarz gap " + error]

    def test_boolean_coefficient_is_malformed(self):
        data = json.loads(INTERVAL_CERTIFICATE.read_text())
        assert data["coefficients"]["a_reg"] == "1"
        data["coefficients"]["a_reg"] = True
        with pytest.raises(CertificateError, match="^malformed certificate: "
                           "unrecognized scalar True$"):
            check_certificate(data)

    def test_boolean_interval_endpoint_is_malformed(self, z3_main):
        seq = dirichlet(Fraction(-33, 2))
        rs = reduce_system(seq, DegreePattern.default(6), INTERVAL)
        one = Interval(1.0, 1.0)
        params = attach_register(recover(rs, (1, 4, 6), z3=z3_main), one, 1)
        data = json.loads(verify(params.pair, seq, INTERVAL).to_json())
        assert data["coefficients"]["a_reg"] == {"lo": 1.0, "hi": 1.0}
        data["coefficients"]["a_reg"] = {"lo": True, "hi": True}
        with pytest.raises(CertificateError, match=r"^malformed certificate: "
                           r"bad interval endpoints \[True, True\]$"):
            check_certificate(data)

    def test_registers_stored_as_json_integers_still_replay(self):
        # as files written before an int register was read as a Fraction
        data = json.loads(INTERVAL_CERTIFICATE.read_text())
        data["coefficients"]["a_reg"] = data["coefficients"]["b_reg"] = 1
        report = check_certificate(data)
        assert report["ok"] and report["recomputed_verdict"] == "fail"


@pytest.mark.parametrize("alpha,regime", [(-16, "rational"),
                                          (Fraction(-33, 2), INTERVAL)],
                         ids=["rational", "interval"])
def test_one_register_value_certifies_to_one_byte_string(z3_main, alpha,
                                                        regime):
    seq = dirichlet(alpha)
    params = recover(reduce_system(seq, DegreePattern.default(6), regime),
                     (1, 4, 6), z3=z3_main)
    texts = {verify(attach_register(params, r, r).pair, seq, regime).to_json()
             for r in (1, Fraction(1), "1")}
    assert len(texts) == 1


# the headline's 14 slot values: D_-16 at the embedded degrees of k = 6
HEADLINE_SLOTS = tuple(weight(dirichlet(-16), t)
                       for t in DegreePattern.default(6).embedded_indices())


def _slot_certificate(alpha, k, z3):
    """The headline point on D_alpha with the headline's slot values at the
    embedded degrees of the default pattern of k, unit registers."""
    pattern = DegreePattern.default(k)
    seq = perturbed(dirichlet(alpha),
                    dict(zip(pattern.embedded_indices(), HEADLINE_SLOTS)))
    regime = exact_regime(seq, pattern.embedded_indices())
    params = recover(reduce_system(seq, pattern, regime), (1, 4, 6), z3=z3)
    return verify(attach_register(params, 1, 1).pair, seq, regime)


class TestCorollary:
    """The paper's corollary: any D_alpha has an equivalent norm, finitely
    many weights changed, in which z^k has no wandering property, k >= 6.
    verify reads only the 14 slot weights, so they fix the verdict data."""

    @pytest.mark.parametrize("k", [6, 7, 13, 100, 10 ** 4])
    @pytest.mark.parametrize("alpha", [0, Fraction(1, 3), 1,
                                       Fraction(-33, 2)])
    def test_the_headline_slots_certify_every_space_and_k(
            self, cert16, z3_main, alpha, k):
        cert = _slot_certificate(alpha, k, z3_main)
        assert (cert.regime, cert.verdict) == (RATIONAL, "pass")
        data, headline = cert.to_dict(), cert16.to_dict()
        for field in ("A", "conditions", "c", "membership"):
            assert json_text(data[field]) == json_text(headline[field])
        assert cert.membership == membership_sweep(cert.pair, cert.seq)
        report = check_certificate(json.loads(cert.to_json()))
        assert report["ok"] and report["recomputed_verdict"] == "pass"

    @pytest.mark.parametrize("slot", range(14))
    def test_a_doubled_slot_value_is_a_mismatch(self, z3_main, slot):
        data = json.loads(_slot_certificate(Fraction(1, 3), 13,
                                            z3_main).to_json())
        t = str(DegreePattern.default(13).embedded_indices()[slot])
        overrides = data["weights"]["overrides"]
        overrides[t] = str(2 * Fraction(overrides[t]))
        report = check_certificate(data)
        fields = {m.split(":")[0] for m in report["mismatches"]}
        assert f"weights_at_matrix_indices.{t}" in fields
        assert any(f.startswith("A.") for f in fields)     # verify read it


class TestCertificateIO:

    def test_round_trip_and_recheck(self, cert16):
        data = json.loads(cert16.to_json())
        assert data["schema"] == "zkwander-certificate/v2"
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
        assert any(m.startswith('c: stored "1/7", recomputed "')
                   for m in report["mismatches"])

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

    def test_v1_headline_is_refused(self):
        raw = HEADLINE_CERTIFICATE_V1.read_bytes()
        assert hashlib.sha256(raw).hexdigest() == HEADLINE_V1_SHA256
        assert json.loads(raw)["schema"] == "zkwander-certificate/v1"
        with pytest.raises(CertificateError, match="^unknown schema "
                           "'zkwander-certificate/v1'$"):
            check_certificate(str(HEADLINE_CERTIFICATE_V1))

    def test_integer_coefficients_replay(self, registered16, seq16):
        # a JSON integer is an exact coefficient, which the rational regime
        # can replay
        cert = verify(registered16.pair.with_registers(1, 1), seq16)
        data = json.loads(cert.to_json())
        assert data["coefficients"]["a_reg"] == 1
        report = check_certificate(data)
        assert report["ok"]
        assert report["recomputed_verdict"] == "pass"

    def test_tampered_overlap_list_is_caught(self, cert16):
        data = json.loads(cert16.to_json())
        data["support_lemma"]["overlaps"].pop()
        report = check_certificate(data)
        assert not report["ok"]
        assert any(m.startswith("support_lemma.overlaps.13: stored nothing")
                   for m in report["mismatches"])

    def test_foreign_embedded_index_is_caught(self, cert16):
        data = json.loads(cert16.to_json())
        data["weights_at_matrix_indices"]["1000000"] = "1"
        report = check_certificate(data)
        assert not report["ok"]
        assert report["mismatches"] == [
            'weights_at_matrix_indices.1000000: stored "1", recomputed '
            'nothing']

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


def _nest_weights(depth):
    def mutate(data):
        for _ in range(depth):
            data["weights"] = {"kind": "perturbed", "base": data["weights"],
                               "overrides": {}}
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
    _set("regime", "bogus"),
    _set("regime", "interval"),
    _set("regime", "float"),
    _set("k", "6"),
    _set("k", True),
    _set("k", 0),
    _set("gamma", [0, 1, 2, 3, 4, "5"]),
    _set_in("coefficients", "a_low", 0, "1/0"),
    _set_in("coefficients", "a_low", 3, "rational", "1/0"),
    _set_in("weights", "alpha", "1/0"),
    _set_in("coefficients", "a_low", 3, "roots", 0, float("inf")),
    _set_in("weights", "alpha", float("inf")),
    _set_in("weights", "alpha", "-1000"),
    _set_in("weights", "alpha", "-100000"),
    _set_in("weights", "alpha", "65"),
    _set_in("weights", "alpha", "-16/10000001"),
    _set_in("weights", "alpha", "-16001/1001"),
    _set_in("weights", "alpha", "-160000001/10000001"),
    _set("k", 10 ** 4 + 1),
    _set("gamma", [0, 1, 2, 3, 4, 10 ** 6 + 5]),
    _set("gamma", [0, 1, 2, 3, 4, -1]),
    _set_in("weights", "alpha", "-1e100000000"),
    _set_in("coefficients", "a_low", 0, "1e100000000"),
    _set_in("coefficients", "b_low", 3, "roots", [str(p) for p in range(2, 11)]),
    _set_in("coefficients", "a_low", 3, "roots", "6"),
    _set_in("coefficients", "a_low", 0, {"re": 1.0, "im": 2.0}),
    _nest_weights(2),
    _nest_weights(20),
    _nest_weights(3000),
], ids=["no-verdict", "regime", "regime-interval", "regime-float",
        "k-str", "k-bool", "k-zero", "gamma-str",
        "coefficient-zero-denominator", "radical-zero-denominator",
        "alpha-zero-denominator", "root-infinite",
        "alpha-infinite", "alpha-minus-1000", "alpha-minus-100000",
        "alpha-above-bound", "alpha-denominator-above-bound",
        "alpha-denominator-1001",
        "alpha-numerator-above-bound", "k-above-bound",
        "degree-above-bound", "degree-negative", "alpha-exponent-form",
        "coefficient-exponent-form", "radical-too-many-atoms",
        "radical-roots-not-a-list",
        "coefficient-complex", "weights-base-perturbed",
        "weights-nested-too-deep",
        "weights-nested-past-recursion-limit"])
def test_malformed_field_is_a_certificate_error(cert16, mutate):
    data = json.loads(cert16.to_json())
    mutate(data)
    with pytest.raises(CertificateError):
        check_certificate(data)


def test_a_float_k_is_refused_by_the_pattern(cert16):
    # DegreePattern's refusal, as the replay reports it
    data = json.loads(cert16.to_json())
    data["k"] = 6.5
    with pytest.raises(CertificateError, match="^malformed certificate: k "
                       "and gamma must be integers, got 6.5$"):
        check_certificate(data)


@pytest.mark.parametrize("mutate,path", [
    (_drop("weights_at_matrix_indices"), "weights_at_matrix_indices"),
    (_drop("support_lemma"), "support_lemma"),
    (_set("support_lemma", []), "support_lemma"),
    (_bad_weight_index, "weights_at_matrix_indices.x"),
    (_set("c", "x"), "c"),
    (_set("c", {"re": 1.0, "im": 0.0}), "c"),
    (_set("c", "1/0"), "c"),
    (_set_in("weights_at_matrix_indices", "10", "1/0"),
     "weights_at_matrix_indices.10"),
], ids=["no-weights", "no-support-lemma", "support-lemma-list",
        "weight-index", "c-str", "c-complex", "c-zero-denominator",
        "embedded-weight-zero-denominator"])
def test_corrupt_recorded_output_is_a_mismatch(cert16, mutate, path):
    # a recorded output is never decoded, only compared with the replay's
    data = json.loads(cert16.to_json())
    mutate(data)
    report = check_certificate(data)
    assert not report["ok"]
    assert any(m.startswith(f"{path}: stored ") for m in report["mismatches"])


@pytest.mark.parametrize("path,value,forged", [
    (("A", "2", "A1"), "5", '"5", recomputed "0"'),
    (("conditions", "strict_contraction", "lhs"), "5", '"5", recomputed "'),
    (("conditions", "higher_zero", "holds"), "5", '"5", recomputed true'),
    (("membership", "worst_residual"), "5", '"5", recomputed 0.0'),
    (("c_float",), "5", '"5", recomputed 0.18894510966828287'),
    (("reasons",), "5", '"5", recomputed [...]'),
    # a certificate passed as a dict may hold values JSON cannot write
    (("c_float",), 10 ** 5000, "<int>, recomputed 0.18894510966828287"),
    (("c_float",), Fraction(1, 3),
     "<Fraction>, recomputed 0.18894510966828287"),
], ids=["A-entry", "condition-lhs", "condition-holds", "worst-residual",
        "c-float", "reasons", "c-float-past-digit-limit", "c-float-fraction"])
def test_forged_output_is_reported_under_its_path(path, value, forged):
    data = json.loads(HEADLINE_CERTIFICATE.read_text())
    _set_in(*path, value)(data)
    [mismatch] = check_certificate(data)["mismatches"]
    assert mismatch.startswith(f"{'.'.join(path)}: stored {forged}")


def test_deeply_nested_stored_output_is_a_mismatch():
    data = json.loads(HEADLINE_CERTIFICATE.read_text())
    for _ in range(3000):
        data["conditions"] = {"adjacent_zero": data["conditions"]}
    report = check_certificate(data)
    assert not report["ok"]
    assert report["mismatches"][0].startswith(
        "conditions.adjacent_zero.holds: stored nothing")


def _leaf_paths(node, path=()):
    """Every (path, value) below a JSON node, containers included."""
    yield path, node
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _leaf_paths(child, path + (key,))


def _interval_certificate():
    seq = dirichlet(Fraction(-33, 2))
    rs = reduce_system(seq, DegreePattern.default(6), INTERVAL)
    params = attach_register(recover(rs, (1, 4, 6)), 1, 1)
    return json.loads(verify(params.pair, seq, INTERVAL).to_json())


# a rational pass and two interval fails, the second with float
# coefficients, each with every path below its root
_FUZZ_BASES = [json.loads(HEADLINE_CERTIFICATE.read_text()),
               _interval_certificate(), json.loads(_float_recovered_json())]
_FUZZ_PATHS = [[p for p, _ in _leaf_paths(base) if p] for base in _FUZZ_BASES]
_JUNK = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-10 ** 30, max_value=10 ** 30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "x", "1/0", "-1000", "-100000", "1e400", "-1e-400",
                     "7/3", "-33/2", "0", "-0", "1" * 5000,
                     "zkwander-certificate/v1", "interval", "float"]),
    st.lists(st.integers(min_value=-5, max_value=5), max_size=3),
    st.dictionaries(st.sampled_from(["lo", "hi", "re", "im", "rational",
                                     "roots", "kind", "alpha"]),
                    st.sampled_from(["1", "-1", "2", 1.0, -1.0, "dirichlet"]),
                    max_size=3))
_MUTATIONS = st.sampled_from(range(len(_FUZZ_BASES))).flatmap(
    lambda i: st.tuples(st.just(i), st.lists(
        st.tuples(st.sampled_from(_FUZZ_PATHS[i]), st.booleans(), _JUNK),
        min_size=1, max_size=3)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_MUTATIONS)
def test_mutated_certificate_gives_a_report_or_certificate_error(mutations):
    base, edits = mutations
    data = copy.deepcopy(_FUZZ_BASES[base])
    for path, delete, junk in edits:
        node = data
        try:
            for step in path[:-1]:
                node = node[step]
            if delete and isinstance(node, dict):
                del node[path[-1]]
            else:
                node[path[-1]] = junk
        except (KeyError, IndexError, TypeError):
            continue                    # an earlier mutation moved the path
    try:
        report = check_certificate(data)
    except CertificateError:
        return
    assert isinstance(report["ok"], bool)
    assert report["ok"] == (report["mismatches"] == [])


@pytest.mark.parametrize("base", range(len(_FUZZ_BASES)),
                         ids=["headline", "interval", "float-recovered"])
def test_every_single_leaf_forgery_is_rejected(base):
    replayed = []
    for path, value in _leaf_paths(_FUZZ_BASES[base]):
        if isinstance(value, (dict, list)):
            continue
        data = copy.deepcopy(_FUZZ_BASES[base])
        _set_in(*path, "forged")(data)
        try:
            if check_certificate(data)["ok"]:
                replayed.append(path)
        except CertificateError:
            pass
    assert replayed == []


@pytest.mark.parametrize("k,gamma,accepted", [
    (MAX_K, (0, 1, 2, 3, 4, 5), True),
    (MAX_K + 1, (0, 1, 2, 3, 4, 5), False),
    (6, (0, 1, 2, 3, MAX_DEGREE, 5), True),             # 10^6 = 4 mod 6
    (6, (0, 1, 2, 3, 4, MAX_DEGREE + 1), False),
], ids=["k-max", "k-past", "degree-max", "degree-past"])
def test_check_bounds_at_its_edges(k, gamma, accepted):
    pattern, seq = DegreePattern(k, gamma), dirichlet(-16)
    if accepted:
        check_bounds(pattern, seq)
        return
    with pytest.raises(ValueError, match=r"^k must lie in 1\.\.10000 and the "
                       r"degrees in 0\.\.1000000$"):
        check_bounds(pattern, seq)


def test_alpha_past_the_digit_limit_gets_the_bound_refusal():
    # str() of this alpha raises; the refusal shows it approximately
    with pytest.raises(ValueError, match=r"^alpha = ~1\.000000e\+5000 "
                       r"\(exact: ~5001 digits over ~1\) is outside "):
        check_bounds(DegreePattern.default(6), dirichlet(10 ** 5000))


class TestCompareFirstReplay:
    """check_certificate compares the stored and the replayed certificate
    whole, with one ==, and walks them leaf by leaf only when they differ;
    the reports of every single-leaf forgery are pinned by digest in
    tests/test_output_digests.py."""

    def test_an_unchanged_certificate_replays_ok_without_a_walk(
            self, monkeypatch):
        import zkwander.certify

        def walk(*args):
            raise AssertionError("an unchanged certificate was walked")
        monkeypatch.setattr(zkwander.certify, "_differences", walk)
        for base in _FUZZ_BASES:
            report = check_certificate(copy.deepcopy(base))
            assert report["ok"]
            assert report["mismatches"] == []

    @pytest.mark.parametrize("path,recomputed", [
        (("c_float",), "0.18894510966828287"),
        (("membership", "worst_residual"), "0.0"),
        (("conditions", "strict_contraction", "c"), "0.18894510966828287"),
    ])
    def test_a_stored_nan_leaf_is_a_mismatch(self, path, recomputed):
        data = json.loads(HEADLINE_CERTIFICATE.read_text())
        _set_in(*path, math.nan)(data)
        report = check_certificate(data)
        assert not report["ok"]
        assert report["mismatches"] == [
            f"{'.'.join(path)}: stored NaN, recomputed {recomputed}"]

    @pytest.mark.parametrize("path", [
        *((key, i) for key in ("a_low", "a_high", "b_low") for i in range(4)),
        ("a_reg",), ("b_reg",)], ids=lambda path: ".".join(map(str, path)))
    def test_a_nan_coefficient_is_a_mismatch(self, path):
        # float coefficients replay only in the interval regime, where a
        # NaN has no enclosure: the replay refuses it before any compare
        data = json.loads(_float_recovered_json())
        assert isinstance(data["coefficients"]["a_high"][1], float)
        _set_in("coefficients", *path, math.nan)(data)
        with pytest.raises(CertificateError, match="cannot be replayed: bad "
                           "interval endpoints"):
            check_certificate(data)

    def test_negative_zero_against_zero_is_no_mismatch(self):
        data = json.loads(HEADLINE_CERTIFICATE.read_text())
        assert data["membership"]["worst_residual"] == 0.0
        data["membership"]["worst_residual"] = -0.0
        report = check_certificate(data)
        assert report["ok"]
        assert report["mismatches"] == []


class TestReadSet:
    """verify and check_certificate read only the 14 embedded weights."""

    @staticmethod
    def spy_on_weight(monkeypatch):
        import zkwander.certify
        import zkwander.model
        read = set()
        weight = zkwander.model.weight

        def spy(seq, t, regime="rational"):
            read.add(t)
            return weight(seq, t, regime)
        for module in (zkwander.certify, zkwander.model):
            monkeypatch.setattr(module, "weight", spy)
        return read

    def _check(self, monkeypatch, pair, seq, regime):
        read = self.spy_on_weight(monkeypatch)
        cert = verify(pair, seq, regime)
        assert read <= set(pair.pattern.embedded_indices())
        data = json.loads(cert.to_json())
        read.clear()
        report = check_certificate(data)
        assert report["ok"]
        assert read == set(pair.pattern.embedded_indices())
        assert sorted(data["weights_at_matrix_indices"], key=int) == \
            [str(t) for t in pair.pattern.embedded_indices()]
        return cert

    def test_headline(self, monkeypatch, registered16, seq16):
        assert self._check(monkeypatch, registered16.pair, seq16,
                           "rational").passed

    def test_verify_evaluates_each_input_once(self, monkeypatch,
                                              registered16, seq16):
        # one weight per embedded index, one zero test of each of the
        # pair's 14 coefficients and one Cauchy-Schwarz gap per call,
        # however many products read them
        import zkwander.certify
        import zkwander.model
        calls = []
        weight = zkwander.model.weight
        is_exact_zero = zkwander.model.is_exact_zero

        def counted_weight(seq, t, regime="rational"):
            calls.append(t)
            return weight(seq, t, regime)
        for module in (zkwander.certify, zkwander.model):
            monkeypatch.setattr(module, "weight", counted_weight)

        def counted_zero_test(x):
            calls.append(("coefficient", id(x)))
            return is_exact_zero(x)
        monkeypatch.setattr(zkwander.model, "is_exact_zero",
                            counted_zero_test)
        contraction_sides = AQuantities.contraction_sides

        def counted_sides(self):
            calls.append("contraction_sides")
            return contraction_sides(self)
        monkeypatch.setattr(AQuantities, "contraction_sides", counted_sides)
        pair = registered16.pair
        assert verify(pair, seq16).passed
        coefficients = (*pair.a_low, *pair.a_high, *pair.b_low, pair.a_reg,
                        pair.b_reg)
        assert Counter(calls) == Counter(
            [*pair.pattern.embedded_indices(),
             *(("coefficient", id(x)) for x in coefficients),
             "contraction_sides"])

    def test_table2_k88(self, monkeypatch):
        row = TABLE2_ROWS[-1]
        assert row.k == 88
        seq = dirichlet(row.alpha)
        rs = reduce_system(seq, DegreePattern.from_phi(row.k, row.phi2,
                                                       row.phi3), INTERVAL)
        params = recover(rs, (1,) + row.d)
        r = auto_register(params)      # unit registers break the inequality
        params = attach_register(params, r, r)
        self._check(monkeypatch, params.pair, seq, INTERVAL)



# ---------------------------------------------------------------------------
# the certificate writer, byte for byte json.dumps(sort_keys=True, indent=2)

class _Int(int):
    def __repr__(self):             # json writes int.__repr__, not this
        return "forged"


class _Float(float):
    def __repr__(self):             # json writes float.__repr__, not this
        return "forged"


class _Str(str):
    pass


_FLOATS = (st.floats(allow_subnormal=True)
           | st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf,
                              5e-324, -2.2250738585072014e-308,
                              1.7976931348623157e308]))
_STRINGS = st.text() | st.text(st.characters(categories=["Cc", "Cs", "Co"]))
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-10 ** 400, max_value=10 ** 400)
           | _FLOATS | _STRINGS | st.builds(_Int, st.integers())
           | st.builds(_Float, _FLOATS) | st.builds(_Str, _STRINGS))
# keys of one dict are mutually comparable, as json's sort needs
_KEYS = (st.lists(_STRINGS, max_size=6)
         | st.lists(st.integers() | st.booleans() | _FLOATS, max_size=6))
_JSON = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.tuples(_KEYS, st.lists(inner, min_size=6,
                                               max_size=6)).map(
                       lambda kv: dict(zip(*kv)))),
    max_leaves=40)
_UNSUPPORTED = st.sampled_from([object(), Fraction(1, 3), 1j, frozenset({1}),
                                b"x", range(2)])


def _outcome(write, value):
    """The text written, or the type of the exception raised."""
    try:
        return write(value)
    except Exception as exc:           # noqa: BLE001 - compared below
        return type(exc)


def _json_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


@given(_JSON)
@settings(max_examples=150, deadline=None)
def test_json_text_writes_what_json_dumps_writes(value):
    assert json_text(value) == _json_dumps(value)


@given(_JSON, _UNSUPPORTED)
@settings(max_examples=50, deadline=None)
def test_json_text_refuses_what_json_dumps_refuses(value, bad):
    # the unsupported value as a leaf, and as a dict key
    for tree in ([value, bad], {"a": value, "b": [bad]}, {bad: value},
                 {None: 1, "a": 2}, {1: 1, "a": 2}):
        assert _outcome(json_text, tree) == _outcome(_json_dumps, tree)
    assert _outcome(json_text, bad) is TypeError
    huge = 10 ** 5000                   # past the integer-string limit
    assert _outcome(json_text, [huge]) == _outcome(_json_dumps, [huge])


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], True, 1, None, "\u00e9",
    {1: "one", 2.5: "two and a half", True: "true"}, {None: "null"},
    {"x": [True, 1, 1.0, _Int(1), _Float(1.0), _Str("1")]},
])
def test_json_text_edge_cases(value):
    assert json_text(value) == _json_dumps(value)


def test_certificate_json_is_json_dumps(cert16):
    seq = dirichlet(Fraction(-33, 2))
    rs = reduce_system(seq, DegreePattern.default(6), INTERVAL)
    params = attach_register(recover(rs, (1, 4, 6)), 1, 1)
    for cert in (cert16, verify(params.pair, seq, INTERVAL)):
        assert cert.to_json() == _json_dumps(cert.to_dict()) + "\n"
