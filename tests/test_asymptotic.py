import math
import signal
from fractions import Fraction

import pytest

from zkwander import asymptotic
from zkwander.asymptotic import (DEFAULT_SIGMA_GRID, a_factor,
                                 a_factor_exact, a_factor_q_form,
                                 beta_cap, check_five_k_readings,
                                 e_bracket_check, five_k_rule, minimal_beta,
                                 objective_bound, reproduce_table5,
                                 sigma_condition, sigma_threshold)
from zkwander.model import DegreePattern
from zkwander.reduction import compute_C, objective_B2, reduce_system
from zkwander.weights import dirichlet


class TestAFactor:

    def test_first_usable_k_sits_below_one(self):
        assert a_factor(10) == pytest.approx(0.9735259348033664)
        assert a_factor_exact(10) < 1

    def test_limit_is_one_half(self):
        assert 0.4999 < a_factor(10 ** 6) < 0.5001

    def test_decreasing_in_k(self):
        vals = [a_factor_exact(k) for k in range(1, 101)]
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))

    @pytest.mark.parametrize("k", range(2, 41))
    def test_q_form_identity_exact(self, k):
        assert a_factor_exact(k) == a_factor_q_form(k)

    def test_the_memo_forms_a_once_per_k(self, monkeypatch):
        calls = []

        def counted(k):
            calls.append(k)
            return a_factor_exact(k)

        a_factor.cache_clear()
        monkeypatch.setattr(asymptotic, "a_factor_exact", counted)
        assert minimal_beta(10) == (523, 0.01)
        assert calls == [10]

    def test_the_memo_returns_the_exact_double_after_eviction(self):
        ks = [*range(10, 61), 10 ** 6]
        a_factor.cache_clear()
        maxsize = a_factor.cache_info().maxsize
        for _ in range(2):
            for k in ks:
                assert a_factor(k).hex() == float(a_factor_exact(k)).hex()
            for k in range(1000, 1000 + maxsize + 1):
                a_factor(k)
            # the newer k have pushed every one of ks out
            assert a_factor.cache_info().currsize == maxsize


class TestConditions:

    def test_threshold_formula(self):
        want = 6.0 * 11 / 10 * 12 * math.log(2 / 0.05)
        assert sigma_threshold(10, 0.05) == pytest.approx(want)

    def test_condition_is_a_cutoff(self):
        # a plain comparison: the first integer beta at or above the
        # threshold passes, the one below it does not
        for k in range(10, 61):
            for sigma in DEFAULT_SIGMA_GRID:
                floor = math.ceil(sigma_threshold(k, sigma))
                assert sigma_condition(k, floor, sigma), (k, sigma)
                assert not sigma_condition(k, floor - 1, sigma), (k, sigma)

    def test_bound_shrinks_with_beta_eventually(self):
        # a(k)^beta decays geometrically and beats the beta^2 prefactor
        assert objective_bound(10, 600, 0.05) < objective_bound(10, 530, 0.05)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            sigma_condition(10, 100, 0.0)
        with pytest.raises(ValueError):
            sigma_condition(10, 100, 1.0)
        with pytest.raises(ValueError):
            sigma_condition(10, 0, 0.5)
        with pytest.raises(ValueError):
            sigma_condition(8, 100, 0.5)

    @pytest.mark.parametrize("sigma", [
        Fraction(10 ** 400), Fraction(-(10 ** 400)), Fraction(1, 10 ** 400),
        1 - Fraction(1, 10 ** 20)], ids=["above", "below", "double-0",
                                         "double-1"])
    def test_sigma_is_refused_unless_its_double_is_in_the_range(self, sigma):
        # an exact sigma, as the CLI passes it, is refused as its double is
        with pytest.raises(ValueError, match=r"^sigma must lie in \(0, 1\)$"):
            sigma_condition(10, 100, sigma)

    @pytest.mark.parametrize("k,beta", [
        (10, 10 ** 400), (10 ** 400, 100), (10, 10 ** 155), (10 ** 155, 100)],
        ids=["beta-no-double", "k-no-double", "beta-square", "k-square"])
    def test_a_value_whose_square_has_no_double_is_refused(self, k, beta):
        name = "beta" if beta > k else "k"
        with pytest.raises(ValueError, match=fr"^\|{name}\| > 1.3e154: its "
                                             "square has no double$"):
            objective_bound(k, beta, 0.5)

    def test_k9_warns_about_the_cap(self):
        with pytest.warns(UserWarning):
            sigma_condition(9, 1000, 0.5)


class TestMinimalBeta:

    def test_frozen_examples(self):
        assert minimal_beta(10) == (523, 0.01)
        assert minimal_beta(11) == (162, 0.3)

    def test_always_below_the_cap(self):
        for k in range(10, 41):
            found = minimal_beta(k)
            assert found is not None
            beta, sigma = found
            assert beta <= beta_cap(k)
            assert sigma_condition(k, beta, sigma)
            assert objective_bound(k, beta, sigma) < 1

    @staticmethod
    def _full_scan(k):
        """minimal_beta's scan from beta = 1, as it ran before it started at
        the first beta the sigma-condition admits."""
        for beta in range(1, math.ceil(beta_cap(k)) + 1):
            for sigma in DEFAULT_SIGMA_GRID:
                if (sigma_condition(k, beta, sigma)
                        and objective_bound(k, beta, sigma) < 1.0):
                    return beta, sigma
        return None

    def test_the_scan_start_changes_nothing(self):
        for k in range(10, 151):
            assert minimal_beta(k) == self._full_scan(k)

    @staticmethod
    def _within_one_second(k):
        """minimal_beta(k), failing once it runs past 1 s."""
        def expire(signum, frame):
            raise TimeoutError(f"minimal_beta({k}) ran past 1 s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            return minimal_beta(k)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("k", [2 * 10 ** 152, 10 ** 153],
                             ids=["2e152", "1e153"])
    def test_a_bound_past_the_doubles_ends_the_scan(self, k):
        # here the prefactor overflows while a(k)^beta underflows: inf * 0
        # was nan, never < 1, and the scan walked about 10^152 betas
        beta, sigma = self._within_one_second(k)
        assert beta <= beta_cap(k)
        assert sigma_condition(k, beta, sigma)
        assert objective_bound(k, beta, sigma) < 1

    @pytest.mark.parametrize("k, beta", [
        (10, 10 ** 4), (10, 10 ** 100), (10, 10 ** 153), (10 ** 60, 10 ** 62),
        (2 * 10 ** 152, 8 * 10 ** 152), (10 ** 153, 5 * 10 ** 153)],
        ids=["10-1e4", "10-1e100", "10-1e153", "1e60-1e62", "2e152-8e152",
             "1e153-5e153"])
    def test_only_the_nan_product_is_taken_in_logs(self, k, beta):
        for sigma in (0.01, 0.5, 0.99):
            b = float(beta)
            plain = (432.0 * b * b / ((1.0 - sigma) ** 4 * k * k)
                     * a_factor(k) ** b)
            bound = objective_bound(k, beta, sigma)
            assert bound == (0.0 if math.isnan(plain) else plain)

    @pytest.mark.parametrize("k", [-1, 0, 5, 8])
    def test_k_below_nine_still_raises(self, k):
        with pytest.raises(ValueError, match="needs k >= 9"):
            minimal_beta(k)

    def test_cap_values(self):
        assert beta_cap(10) == pytest.approx(750.0)
        assert beta_cap(11) == pytest.approx(230.0)

    @pytest.mark.parametrize("k", [10 ** 155, -(10 ** 400)],
                             ids=["square", "no-double"])
    def test_the_cap_of_a_k_whose_square_has_no_double_is_refused(self, k):
        assert beta_cap(10 ** 150) == 5.0 * 10 ** 150
        with pytest.raises(ValueError, match=r"^\|k\| > 1.3e154: its square"):
            beta_cap(k)


class TestEBracket:

    @pytest.mark.parametrize("k,beta,sigma", [(10, 530, 0.05), (12, 120, 0.6)])
    def test_exact_magnitudes_inside_bracket(self, k, beta, sigma):
        report = e_bracket_check(k, beta, sigma)
        assert report["all_within"]
        assert len(report["E_abs"]) == 4
        assert report["E_abs"][0] == 1.0


class TestFiveK:

    def test_readings(self):
        readings = check_five_k_readings(10, 60)
        assert readings["k_ge_18_reading"]
        assert not readings["k_le_18_reading"]

    def test_boundary_cases(self):
        assert not five_k_rule(10)["holds"]
        assert five_k_rule(18)["holds"]
        assert five_k_rule(60)["holds"]


class TestTable5:

    def test_every_row_checks_out(self):
        rows = reproduce_table5()
        assert len(rows) == 8
        for row in rows:
            assert row["sigma_condition"]
            assert row["threshold_match"]
            assert row["bound_below_one"]
            assert row["cap_ok"]

    def test_known_row_values(self):
        rows = {r["k"]: r for r in reproduce_table5()}
        assert rows[10]["computed_bound"] == pytest.approx(0.9938702, rel=1e-5)
        assert rows[11]["computed_bound"] == pytest.approx(0.612, rel=2e-3)
        assert rows[12]["computed_bound"] == pytest.approx(0.387, rel=3e-3)


class TestDominance:
    """The closed-form bound really sits above the exact objective."""

    @pytest.mark.parametrize("k,beta,sigma", [
        (10, 530, 0.05), (12, 120, 0.6), (18, 90, 0.985)])
    def test_exact_B2_below_bound_and_one(self, k, beta, sigma):
        rs = reduce_system(dirichlet(-beta), DegreePattern.default(k))
        b2 = objective_B2(compute_C(rs, (1, 1, 1, 1)))
        assert b2 < 1
        assert float(b2) <= objective_bound(k, beta, sigma)
