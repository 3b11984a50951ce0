import hashlib
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from zkwander.certify import verify
from zkwander.errors import (DegenerateReductionError, DegenerateZ3Error,
                             SingularSystemError)
from zkwander.model import DegreePattern
from zkwander.recovery import attach_register, recover
from zkwander.reduction import (_reduce, b0_minimum, compute_C, objective_B0,
                                objective_B1, objective_B2, pivot_modulus,
                                reduce_system, split_e, z1_star)
from zkwander.reference_data import (D_SQ_UPPER, DET_N1_INTERVAL, E_INTERVALS,
                                     G_INTERVALS, H_UPPER, TABLE1_ROWS,
                                     TABLE2_ROWS, in_published_interval)
from zkwander.scalars import INTERVAL, RATIONAL, Radical, det3, strictly_less
from zkwander.weights import (WeightSequence, dirichlet, exact_regime,
                              perturbed, weight)

INTEGER_ROWS = tuple(row for row in TABLE1_ROWS + TABLE2_ROWS
                     if row.alpha.denominator == 1)

# Frozen from a high-precision mpmath evaluation of the same formulas,
# independent of the Fraction pipeline under test.
DET_N1 = 1.620761583531512e-56
E_REF = (-16.374779565561333, 65.63437068012293, -73.35945623501185)
G_REF = (7.812622610731204e14, -4.303741611350925e15, 5.469540438318715e15)
C_REF = {"C1": 3.640198727870885e-14, "C2": 3.3720005626009325e-16,
         "C3": 0.7115690922069678, "C4": 20703950080879.242,
         "C5": 0.6270822842171272}
B2_REF = 0.02792549252831457
B1_REF = 0.02323523492261636


@lru_cache(maxsize=None)
def _rational_system(row):
    return reduce_system(dirichlet(row.alpha), DegreePattern.from_phi(
        row.k, row.phi2, row.phi3))


def _close(x, ref, rel=1e-12):
    return math.isclose(float(x), ref, rel_tol=rel)


class TestReducedSystem:

    @pytest.mark.parametrize("regime", [RATIONAL, INTERVAL])
    def test_a_vanishing_e_is_degenerate(self, seq16, pattern6, regime):
        # omega_(6s) = omega_(6s+2) at s = 1, 2, 3 makes columns 0 and 2
        # of the weight block equal, so E_1 = 0 exactly
        seq = perturbed(seq16, {6 * s: weight(seq16, 6 * s + 2)
                                for s in (1, 2, 3)})
        with pytest.raises(DegenerateReductionError,
                           match=r"^E_1 vanishes; D undefined$"):
            reduce_system(seq, pattern6, regime)

    def test_matrix_shapes_and_det_identity(self, seq16, pattern6, rs16):
        assert len(rs16.W) == 3
        assert all(len(row) == 4 for row in rs16.W)
        assert rs16.W[0][1] == weight(seq16, 7)
        assert rs16.W[2][3] == weight(seq16, 3 * 6 + 3)
        assert det3([row[1:] for row in rs16.W]) == rs16.det_N1

    def test_one_weight_block_and_one_det_N1(self, seq16, pattern6,
                                             monkeypatch):
        import zkwander.reduction
        import zkwander.scalars
        calls = {"weight": 0, "det3": 0}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)
        counting(zkwander.reduction, "weight")
        counting(zkwander.scalars, "det3")
        rs = reduce_system(seq16, pattern6)
        # 12 block weights; det N_1 once plus three Cramer numerators per rhs
        assert calls == {"weight": 12, "det3": 7}
        compute_C(rs, (1, 4, 6))
        assert calls["weight"] == 12

    @pytest.mark.parametrize("alpha, k, digest", [
        (-64, 27, "eb9f7b1116b7df1c733c17a627c123a29b8c135c2470826fe440233841effc1d"),
        (-52, 62, "17d752a4275aab58dd0aa06c844c090dcef76ca7f64dcf04c0cdb31dba3edb88"),
    ], ids=["-64-k27", "-52-k62"])
    def test_a_reduction_below_the_doubles_is_pinned(self, alpha, k, digest):
        # det N_1 lies below the normal doubles at both; the digest of the
        # exact strings was taken from the Fraction cofactor route
        seq, pattern = dirichlet(alpha), DegreePattern.default(k)
        rs = reduce_system(seq, pattern)
        values = (rs.det_N1, *rs.E, *rs.G, *rs.H, *rs.D)
        assert all(v.__class__ is Fraction for v in values)
        text = " ".join(str(v) for v in values)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        w = [row[1:] for row in rs.W]
        assert rs.det_N1 == det3(w)
        for s in range(3):
            assert sum(w[s][i] * rs.E[i] for i in range(3)) == -rs.W[s][0]
            assert sum(w[s][i] * rs.G[i] for i in range(3)) == (s == 0)

    def test_det_against_frozen_value(self, rs16):
        assert _close(rs16.det_N1, DET_N1)

    def test_det_inside_published_window(self, rs16):
        assert in_published_interval(rs16.det_N1, DET_N1_INTERVAL)

    def test_E_and_G_frozen_and_published(self, rs16):
        for i in range(3):
            assert _close(rs16.E[i], E_REF[i])
            assert _close(rs16.G[i], G_REF[i])
            assert in_published_interval(rs16.E[i], E_INTERVALS[i])
            assert in_published_interval(rs16.G[i], G_INTERVALS[i])

    def test_E_solves_the_linear_system_exactly(self, rs16, seq16, pattern6):
        k, g = pattern6.k, pattern6.gamma
        for r, s in enumerate((1, 2, 3)):
            lhs = sum(weight(seq16, s * k + g[i + 1]) * rs16.E[i]
                      for i in range(3))
            assert lhs == -weight(seq16, s * k + g[0])

    def test_G_solves_the_linear_system_exactly(self, rs16, seq16, pattern6):
        k, g = pattern6.k, pattern6.gamma
        for r, s in enumerate((1, 2, 3)):
            lhs = sum(weight(seq16, s * k + g[i + 1]) * rs16.G[i]
                      for i in range(3))
            assert lhs == (1 if r == 0 else 0)

    def test_H_and_D_identities(self, rs16):
        for i in range(3):
            assert rs16.H[i] == rs16.E[i] ** 2
            assert rs16.D[i] == -rs16.G[i] / rs16.E[i]

    def test_H_and_D_below_published_caps(self, rs16):
        for i in range(3):
            assert rs16.H[i] <= H_UPPER[i]
            assert rs16.D[i] ** 2 <= D_SQ_UPPER[i]

    @pytest.mark.parametrize(
        "row", TABLE1_ROWS + TABLE2_ROWS,
        ids=lambda row: f"{row.alpha}-k{row.k}-{row.phi2}-{row.phi3}")
    def test_D_is_strictly_increasing_and_positive(self, row):
        # the closed-form infimum of B_1 has no tie D_i = D_j to break on
        # a published row, in the regime that proves the row
        seq = dirichlet(row.alpha)
        pattern = DegreePattern.from_phi(row.k, row.phi2, row.phi3)
        d1, d2, d3 = reduce_system(
            seq, pattern, exact_regime(seq, pattern.matrix_indices())).D
        assert strictly_less(0, d1)
        assert strictly_less(d1, d2)
        assert strictly_less(d2, d3)

    @pytest.mark.parametrize("alpha", [0, 1])
    def test_affine_weights_are_singular(self, alpha):
        with pytest.raises(SingularSystemError):
            reduce_system(dirichlet(alpha), DegreePattern.default(6))

    def test_interval_regime_encloses_exact(self, rs16, seq16, pattern6):
        ivs = reduce_system(seq16, pattern6, INTERVAL)
        det = ivs.det_N1
        assert Fraction(det.lo) <= rs16.det_N1 <= Fraction(det.hi)
        for i in range(3):
            e = ivs.E[i]
            assert Fraction(e.lo) <= rs16.E[i] <= Fraction(e.hi)


def _certificate_json(seq, regime, d, z3=None) -> str:
    """reduce -> recover -> attach_register(1, 1) -> verify -> to_json."""
    rs = reduce_system(seq, DegreePattern.default(6), regime)
    params = attach_register(recover(rs, d, z3=z3), 1, 1)
    return verify(params.pair, seq, regime).to_json()


class TestMemo:
    """reduce_system keeps its latest reduction (conftest empties the memo
    before each test)."""

    @pytest.mark.parametrize("regime", [RATIONAL, INTERVAL])
    def test_a_warm_reduction_equals_a_cold_one(self, seq16, pattern6,
                                                regime):
        first = reduce_system(seq16, pattern6, regime)
        assert reduce_system(seq16, pattern6, regime) is first
        _reduce.cache_clear()
        cold = reduce_system(seq16, pattern6, regime)
        assert cold is not first and cold == first

    @pytest.mark.parametrize("seq, regime, d, z3", [
        (dirichlet(-16), RATIONAL, (1, 4, 6), Fraction(-2) * 10 ** 13),
        (dirichlet(Fraction(-33, 2)), INTERVAL, (1, 1, 4, 6), None),
    ], ids=["headline", "alpha-33/2"])
    def test_a_warm_certificate_has_the_cold_bytes(self, seq, regime, d, z3):
        cold = _certificate_json(seq, regime, d, z3)
        hits = _reduce.cache_info().hits
        assert _certificate_json(seq, regime, d, z3) == cold
        assert _reduce.cache_info().hits == hits + 1

    def test_the_memo_holds_one_entry(self, seq16, pattern6):
        reduce_system(seq16, pattern6)
        reduce_system(seq16, pattern6, INTERVAL)
        reduce_system(seq16, pattern6)
        info = _reduce.cache_info()
        assert (info.maxsize, info.currsize, info.hits) == (1, 1, 0)

    def test_one_override_value_apart_is_another_system(self, seq16,
                                                         pattern6):
        near = perturbed(seq16, {7: Fraction(3, 10 ** 15)})
        far = perturbed(seq16, {7: Fraction(4, 10 ** 15)})
        assert reduce_system(near, pattern6).W[0][1] == Fraction(3, 10 ** 15)
        assert reduce_system(far, pattern6).W[0][1] == Fraction(4, 10 ** 15)
        assert _reduce.cache_info().misses == 2

    def test_an_int_alpha_reads_as_its_fraction(self, seq16, pattern6):
        by_int = reduce_system(WeightSequence(-16), pattern6)
        assert reduce_system(seq16, pattern6) is by_int
        _reduce.cache_clear()
        assert reduce_system(seq16, pattern6) == by_int

    @pytest.mark.parametrize("regime", ["float", ["rational"]],
                             ids=["float", "list"])
    def test_an_unknown_regime_is_refused_before_the_memo(self, seq16,
                                                          pattern6, regime):
        with pytest.raises(ValueError, match="^unknown regime "):
            reduce_system(seq16, pattern6, regime)

    def test_a_refusal_is_raised_on_every_call(self, seq16, pattern6):
        kept = reduce_system(seq16, pattern6)
        for _ in range(3):
            with pytest.raises(SingularSystemError):
                reduce_system(dirichlet(0), pattern6)
        # nor does it evict the reduction before it
        assert reduce_system(seq16, pattern6) is kept
        assert _reduce.cache_info().misses == 4


class TestCQuantities:

    def test_frozen_values(self, c16):
        for name, ref in C_REF.items():
            assert _close(getattr(c16, name), ref)

    def test_c5_identity_and_positivity(self, c16):
        assert c16.C5 == c16.C1 * c16.C4 - c16.C3 ** 2 / 4
        for name in ("C1", "C2", "C4", "C5"):
            assert getattr(c16, name) > 0

    def test_d0_defaults_to_one(self, rs16):
        assert compute_C(rs16, (1, 4, 6)) == compute_C(rs16, (1, 1, 4, 6))

    def test_d_must_be_positive(self, rs16):
        with pytest.raises(ValueError):
            compute_C(rs16, (0, 4, 6))
        with pytest.raises(ValueError):
            compute_C(rs16, (1, -4, 6))

    @pytest.mark.parametrize("d", [(4, 6), (1, 1, 4, 6, 8)],
                             ids=["two", "five"])
    def test_d_must_hold_three_or_four_values(self, rs16, d):
        with pytest.raises(ValueError, match="^d must supply 3 values"):
            compute_C(rs16, d)

    def test_objectives_frozen(self, c16):
        assert _close(objective_B2(c16), B2_REF)
        assert _close(objective_B1(c16), B1_REF)

    @pytest.mark.parametrize("lam", [2, 3, Fraction(1, 5)])
    def test_objectives_are_scale_invariant(self, rs16, c16, lam):
        # C2 ~ 1/lambda and C4 ~ lambda, so both products drop the scale
        scaled = compute_C(rs16, tuple(lam * v for v in c16.d))
        assert objective_B1(scaled) == objective_B1(c16)
        assert objective_B2(scaled) == objective_B2(c16)

    @pytest.mark.parametrize("row", INTEGER_ROWS, ids=lambda row:
                             f"alpha{row.alpha}-k{row.k}-phi{row.phi2}"
                             f",{row.phi3}")
    @seed(1)
    @settings(max_examples=20, deadline=None)
    @given(d=st.tuples(*[st.fractions(Fraction(1, 1000), 10 ** 6,
                                      max_denominator=1000)] * 3))
    def test_b1_never_exceeds_b2(self, row, d):
        # B_2 - B_1 = C_2 C_3^2 / C_1, as C_5 / C_1 = C_4 - C_3^2 / (4 C_1),
        # so a search on B_2 finds no point that B_1 misses
        c = compute_C(_rational_system(row), d)
        assert objective_B1(c) <= objective_B2(c)
        assert (objective_B1(c) == objective_B2(c)) == (c.C3 == 0)

    def test_constituents_do_scale(self, rs16, c16):
        scaled = compute_C(rs16, tuple(2 * v for v in c16.d))
        assert scaled.C1 == 2 * c16.C1
        assert scaled.C2 == c16.C2 / 2
        assert scaled.C4 == 2 * c16.C4
        assert scaled.C5 == 4 * c16.C5


class TestZ3Split:

    def test_pivot_modulus_real(self, c16, z3_main):
        assert pivot_modulus(c16, z3_main) == \
            abs(c16.C1 * z3_main - c16.C3 / 2)

    @pytest.mark.parametrize("row", INTEGER_ROWS, ids=lambda row:
                             f"alpha{row.alpha}-k{row.k}-phi{row.phi2}"
                             f",{row.phi3}")
    def test_mirrored_z3_gives_the_same_b0(self, row):
        # Z_3 and C_3/C_1 - Z_3 give the pivots P and -P, and B_0 reads
        # Z_3 only through |P|
        pattern = DegreePattern.from_phi(row.k, row.phi2, row.phi3)
        c = compute_C(reduce_system(dirichlet(row.alpha), pattern), row.d)
        z1 = Fraction(7)
        for x in (Fraction(-2 * 10 ** 13), Fraction(1, 3),
                  Fraction(10 ** 9, 7)):
            assert objective_B0(c, x, z1) == \
                objective_B0(c, c.C3 / c.C1 - x, z1)

    def test_degenerate_z3_detected(self, c16):
        with pytest.raises(DegenerateZ3Error):
            pivot_modulus(c16, c16.C3 / (2 * c16.C1))


class TestB0:

    def test_split_e_frozen(self, c16, z3_main):
        e0, e1 = split_e(c16, z3_main)
        assert _close(e0, 0.5785829760712053)
        assert _close(e1, 0.015399264329175062)

    def test_b0_is_e0_over_z1_plus_e1_z1(self, c16, z3_main):
        e0, e1 = split_e(c16, z3_main)
        for z1 in (Fraction(1), Fraction(7), Fraction(13, 2)):
            assert objective_B0(c16, z3_main, z1) == e0 / z1 + e1 * z1

    def test_z1_must_be_positive(self, c16, z3_main):
        with pytest.raises(ValueError):
            objective_B0(c16, z3_main, Fraction(-1))

    def test_minimum_squares_to_4_e0_e1(self, c16, z3_main):
        e0, e1 = split_e(c16, z3_main)
        val = b0_minimum(c16, z3_main)
        assert val * val == 4 * e0 * e1
        assert _close(val, 0.18878296729187474)

    def test_b0_at_the_exact_minimiser(self, c16, z3_main):
        z1s = z1_star(c16, z3_main)
        assert isinstance(z1s, Radical)
        b0 = objective_B0(c16, z3_main, z1s)
        assert float(b0) == pytest.approx(float(b0_minimum(c16, z3_main)),
                                          rel=1e-12)

    def test_minimizer_location(self, c16, z3_main):
        z1s = z1_star(c16, z3_main)
        assert _close(z1s, 6.129609936437393)
        # nearby points do strictly worse; compare through exact squares
        e0, e1 = split_e(c16, z3_main)
        best_sq = 4 * e0 * e1
        for q in (Fraction(61296, 10000), Fraction(61297, 10000)):
            b0 = objective_B0(c16, z3_main, q)
            assert b0 * b0 > best_sq

    def test_minimizer_finite_difference(self, c16, z3_main):
        z1s = float(z1_star(c16, z3_main))
        e0, e1 = split_e(c16, z3_main)
        f = lambda t: float(e0) / t + float(e1) * t
        assert f(z1s * (1 + 1e-6)) > f(z1s)
        assert f(z1s * (1 - 1e-6)) > f(z1s)


class TestIntervalObjective:

    def test_near_one_row_certifies_below_one(self):
        """The tightest published row still lands strictly below 1."""
        seq = dirichlet(Fraction(-4999, 1000))
        pattern = DegreePattern.from_phi(6, phi2=2, phi3=34)
        rs = reduce_system(seq, pattern, INTERVAL)
        b1 = objective_B1(compute_C(rs, (4, 11, 100000)))
        assert b1.hi < 1
        assert b1.lo == pytest.approx(0.9990058926783769, rel=1e-9)
        assert b1.hi == pytest.approx(0.9990058926787443, rel=1e-9)
