import math
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zkwander import recovery
from zkwander.certify import verify
from zkwander.errors import (DegeneratePairError, DegenerateReductionError,
                             DegenerateZ3Error, ModeUnsupportedError,
                             NoAdmissibleSystemError, RegisterTooLargeError)
from zkwander.model import DegreePattern, orthogonality_relations
from zkwander.recovery import (attach_register, auto_register, choose_Z3,
                               cross_check, level1_block,
                               max_register_estimate, recover)
from zkwander.reduction import reduce_system
from zkwander.reference_data import TABLE1_ROWS, TABLE2_ROWS
from zkwander.scalars import (INTERVAL, Interval, Radical, is_exact_zero,
                              round_significant, to_float)
from zkwander.weights import dirichlet, perturbed, weight

# the interval-regime systems: the non-integer published rows and -33/2
INTERVAL_SYSTEMS = tuple(
    (row.alpha, DegreePattern.from_phi(row.k, row.phi2, row.phi3),
     (1,) + row.d)
    for row in TABLE1_ROWS + TABLE2_ROWS
    if row.alpha.denominator != 1) + (
    (Fraction(-33, 2), DegreePattern.default(6), (1, 1, 4, 6)),)


def _orthogonality_residuals(pair, seq):
    return [v for _, v in orthogonality_relations(pair, seq)[1]]


class TestEngineeredRelations:

    def test_five_relations_vanish_exactly(self, registered16, seq16):
        for r in _orthogonality_residuals(registered16.pair, seq16):
            assert is_exact_zero(r)

    def test_relations_survive_any_register_values(self, params16, seq16):
        bumped = attach_register(params16, Fraction(1, 2), Fraction(1, 3))
        for r in _orthogonality_residuals(bumped.pair, seq16):
            assert is_exact_zero(r)

    def test_normalization_makes_unit_coupling(self, params16, seq16):
        q1 = orthogonality_relations(params16.pair, seq16)[0]
        prod = (q1.A5 * q1.A5) * (q1.A2 * q1.A2)
        assert prod == 1 and isinstance(prod, Fraction)

    def test_requested_a15_is_reproduced(self, rs16, z3_main, seq16):
        params = recover(rs16, (1, 4, 6), z3=z3_main, a15=Fraction(3))
        q1 = orthogonality_relations(params.pair, seq16)[0]
        assert q1.A5 == 3

    def test_contraction_identities_match_oracle(self, params16):
        report = cross_check(params16)
        assert report["all_equal"]
        for key in ("A13_from_C", "A14_from_C", "A12_sq_from_C",
                    "A15_engineered", "c_equals_B0"):
            assert report[key]["exact"]

    @pytest.mark.parametrize("alpha,pattern,d", INTERVAL_SYSTEMS,
                             ids=[str(s[0]) for s in INTERVAL_SYSTEMS])
    def test_contraction_enclosures_meet_the_oracle(self, alpha, pattern, d):
        params = recover(reduce_system(dirichlet(alpha), pattern, INTERVAL),
                         d)
        report = cross_check(params)
        assert report["all_equal"], report
        assert not any(v["exact"] for k, v in report.items()
                       if k != "all_equal")


class TestLevel1Block:

    @settings(max_examples=40, deadline=None)
    @given(d=st.tuples(*[st.fractions(Fraction(1, 100), 10 ** 4,
                                      max_denominator=100)] * 3),
           z3=st.fractions(-10 ** 15, 10 ** 15, max_denominator=7),
           a_reg=st.fractions(-50, 50, max_denominator=9),
           b_reg=st.fractions(-50, 50, max_denominator=9))
    def test_closed_form_is_the_oracle_block(self, rs16, d, z3, a_reg,
                                             b_reg):
        try:
            params = recover(rs16, d, z3=z3)
        except (DegenerateReductionError, DegenerateZ3Error):
            assume(False)
        oracle = orthogonality_relations(
            params.pair.with_registers(a_reg, b_reg), rs16.seq)[0]
        block = level1_block(params, a_reg, b_reg)
        assert block.A1 == oracle.A1 == 0
        assert isinstance(block.A1, Fraction)
        # A_12 is an irrational Radical here, compared with its sign
        for name in ("A2", "A3", "A4", "A5"):
            assert getattr(block, name) == getattr(oracle, name), name

    def test_vanishing_pivot_is_degenerate(self, rs16, c16):
        params = recover(rs16, (1, 4, 6), z3=c16.C3 / (2 * c16.C1),
                         z1=Fraction(6), a15=Fraction(1))
        for check in (level1_block, max_register_estimate, cross_check):
            with pytest.raises(DegenerateZ3Error):
                check(params)


class TestRegisters:

    def test_flagship_accepts_unit_registers(self, params16):
        assert max_register_estimate(params16) > 1
        assert auto_register(params16) == 1
        reg = attach_register(params16, 1, 1)
        assert reg.pair.a_reg == 1 and reg.pair.b_reg == 1

    def test_registers_tighten_the_inequality(self, params16):
        lhs0, rhs0 = level1_block(params16).contraction_sides()
        lhs1, rhs1 = level1_block(params16, Fraction(1),
                                  Fraction(1)).contraction_sides()
        assert rhs1 == rhs0
        assert lhs1 > lhs0

    def test_oversized_register_rejected_with_estimate(self, params16):
        est = max_register_estimate(params16)
        too_big = Fraction(int(est * 4) + 4)
        with pytest.raises(RegisterTooLargeError) as exc:
            attach_register(params16, too_big, too_big)
        assert exc.value.max_register == pytest.approx(est)

    def test_a_tight_inequality_admits_no_register(self, rs16):
        # at Z_3 = 10^13 the unregistered inequality fails, c = 14.66
        params = recover(rs16, (1, 4, 6), z3=Fraction(10 ** 13))
        assert max_register_estimate(params) == 0.0
        with pytest.raises(DegeneratePairError, match=(
                r"^no admissible register: A_13 A_14 - A_12\^2 < "
                r"\|A_15 A_12\| fails before any register is attached, "
                r"c = 14\.658126043556841$")):
            auto_register(params)

    def test_a_slack_below_the_doubles_still_fits_a_register(self, rs16,
                                                              seq16,
                                                              z3_main):
        # both sides scale with A_15^2, so at A_15 = 10^-200 the slack,
        # about 10^-400, underflows a double; the estimate is solved in a
        # decimal whose exponent range it never leaves
        params = recover(rs16, (1, 4, 6), z3=z3_main,
                         a15=Fraction(1, 10 ** 200))
        est = max_register_estimate(params)
        assert est == pytest.approx(7.351360226388178e-186, rel=1e-12)
        reg = auto_register(params)
        assert reg == Fraction(368, 10 ** 188)
        cert = verify(attach_register(params, reg, reg).pair, seq16)
        assert (cert.verdict, cert.regime) == ("pass", "rational")

    def test_a_register_below_the_smallest_double_is_attached(self, rs16,
                                                              seq16,
                                                              z3_main):
        # at A_15 = 10^-400 the largest register, ~10^-386, is below the
        # smallest double; it was refused while the estimate was a double,
        # and the decimal estimate now gives a register that verifies
        params = recover(rs16, (1, 4, 6), z3=z3_main,
                         a15=Fraction(1, 10 ** 400))
        est = max_register_estimate(params)
        assert est * 10 ** 200 == pytest.approx(7.351360226388178e-186,
                                                rel=1e-12)
        reg = auto_register(params)
        assert reg == Fraction(368, 10 ** 388)
        cert = verify(attach_register(params, reg, reg).pair, seq16)
        assert (cert.verdict, cert.regime) == ("pass", "rational")

    def test_the_estimate_survives_a_huge_z3(self, rs16):
        # beta^2 overflows a double from |Z_3| ~ 10^100 on; the estimate
        # read 0.0 there and no register was attached
        params = recover(rs16, (1, 4, 6), z3=Fraction(10 ** 100))
        est = max_register_estimate(params)
        assert 0 < est < 1
        reg = auto_register(params)
        cert = verify(attach_register(params, reg, reg).pair, rs16.seq)
        assert cert.verdict == "pass"
        assert to_float(cert.c_value) == 0.363334962129787

    @pytest.mark.parametrize("kwargs", [
        {}, {"z3": 10 ** 100}, {"z3": 10 ** 200}, {"z3": -10 ** 300},
        {"a15": Fraction(1, 10 ** 200)}, {"a15": 10 ** 200}],
        ids=["headline", "z3-1e100", "z3-1e200", "z3--1e300", "a15-1e-200",
             "a15-1e200"])
    def test_the_estimate_is_the_root_of_the_exact_quadratic(
            self, rs16, seq16, z3_main, kwargs):
        # the values run far past both ends of the doubles; the reference
        # is the root in 50 digits
        params = recover(rs16, (1, 4, 6), **{"z3": z3_main, **kwargs})
        q1 = level1_block(params)
        gap, coupling = q1.contraction_sides()
        slack = abs(coupling) - gap
        w4, w5 = (weight(seq16, 6 + g) for g in (4, 5))
        beta = w4 * q1.A4 + w5 * q1.A3
        with localcontext() as ctx:
            ctx.prec = 50
            s, b, disc = (Decimal(q.numerator) / q.denominator for q in (
                slack, beta, beta * beta + 4 * w4 * w5 * slack))
            t = float((2 * s / (b + disc.sqrt())).sqrt())
        assert max_register_estimate(params) == pytest.approx(t, rel=1e-15)

    def test_estimate_is_sharp(self, params16):
        """Magnitudes just inside the estimate pass, just outside fail."""
        est = max_register_estimate(params16)
        lo = Fraction(f"{est * 0.999:.6e}")
        hi = Fraction(f"{est * 1.001:.6e}")
        attach_register(params16, lo, lo)
        with pytest.raises(RegisterTooLargeError):
            attach_register(params16, hi, hi)


@pytest.fixture(scope="module")
def override_params(pattern6, z3_main):
    seq = perturbed(dirichlet(0), {t: weight(dirichlet(-16), t)
                                   for t in pattern6.matrix_indices()})
    rs = reduce_system(seq, pattern6)
    return recover(rs, (1, 4, 6), z3=z3_main)


class TestOverrideCorollary:
    """Hardy weights, demoted on just the 12 matrix indices."""

    def test_same_reduction_as_donor(self, override_params, rs16):
        assert override_params.rs.E == rs16.E
        assert override_params.rs.G == rs16.G

    def test_unit_registers_are_too_large(self, override_params):
        with pytest.raises(RegisterTooLargeError):
            attach_register(override_params, 1, 1)

    def test_auto_register_recovers_a_pass(self, override_params):
        reg = auto_register(override_params)
        assert 0 < reg < 1
        done = attach_register(override_params, reg, reg)
        cert = verify(done.pair, done.rs.seq)
        assert cert.verdict == "pass"

    def test_a_refusal_and_auto_register_share_one_register_free_block(
            self, override_params, monkeypatch):
        # the order of bench/workloads.py run_certify: unit registers are
        # refused, auto_register picks r, and r is attached
        seen = []
        built = recovery.level1_block

        def counting(params, a_reg=Fraction(0), b_reg=Fraction(0)):
            seen.append((a_reg, b_reg))
            return built(params, a_reg, b_reg)

        monkeypatch.setattr(recovery, "level1_block", counting)
        with pytest.raises(RegisterTooLargeError):
            attach_register(override_params, 1, 1)
        r = auto_register(override_params)
        attach_register(override_params, r, r)
        assert seen == [(1, 1), (0, 0), (r, r)]


class TestRegisterFreeParts:
    """level1_block adds the two register terms to parts held once per
    recovery."""

    def test_a_refusal_auto_register_and_attach_form_them_once(
            self, override_params, monkeypatch):
        # the order of bench/workloads.py run_certify, counting the pivot
        # and the Z_3 quadratic as recovery binds them
        calls = {"pivot": 0, "z3_quadratic": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(recovery, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(recovery, name, counting)
        with pytest.raises(RegisterTooLargeError):
            attach_register(override_params, 1, 1)
        r = auto_register(override_params)
        attach_register(override_params, r, r)
        assert calls == {"pivot": 1, "z3_quadratic": 1}

    @pytest.mark.parametrize("r", [Fraction(0), Fraction(1), Fraction(1, 3)],
                             ids=["0", "1", "1/3"])
    @pytest.mark.parametrize("alpha,pattern,d", INTERVAL_SYSTEMS,
                             ids=[str(s[0]) for s in INTERVAL_SYSTEMS])
    def test_the_interval_block_is_the_inline_formula(self, alpha, pattern,
                                                      d, r):
        rs = reduce_system(dirichlet(alpha), pattern, INTERVAL)
        params = recover(rs, d)
        c, z3, z1, a15 = params.c, params.z3, params.z1, params.a15
        w4, w5 = (weight(rs.seq, pattern.k + g, INTERVAL)
                  for g in pattern.register_degrees)
        scale = a15 / z1
        inline = (Interval.exact(0), scale * (c.C1 * z3 - c.C3 / 2),
                  c.C1 + z1 * z1 * c.C2 + r * r * w4,
                  scale * scale * (c.C1 * (z3 * z3) - c.C3 * z3 + c.C4)
                  + r * r * w5, a15)
        level1_block(params)            # the parts are held from here on
        block = level1_block(params, r, r)
        for name, want in zip(("A1", "A2", "A3", "A4", "A5"), inline):
            got = getattr(block, name)
            assert (got.lo, got.hi) == (want.lo, want.hi), name


class TestRoundSignificant:
    """scalars.round_significant is one correctly rounded division; on
    doubles it agrees with the former round(x / 10 ** exp) rule."""

    def test_below_the_normal_powers_of_ten_it_rounds_exactly(self):
        # there 10 ** exp is subnormal; decimal at precision 9 is the oracle
        rng, nine = random.Random(45), Context(prec=9)
        xs = [rng.choice((1, -1)) * 10.0 ** rng.uniform(-307, -299)
              for _ in range(3000)]
        wrong = [x for x in xs if round_significant(x)
                 != Fraction(nine.plus(Decimal(x)))]
        assert wrong == []

    @pytest.mark.parametrize("digits", [3, 9])
    def test_elsewhere_the_float_path_is_unchanged(self, digits):
        rng = random.Random(46)
        for _ in range(2000):
            x = rng.choice((1, -1)) * 10.0 ** rng.uniform(-290, 290)
            exp = math.floor(math.log10(abs(x))) - digits + 1
            assert round_significant(x, digits) == (
                Fraction(round(x / 10 ** exp)) * Fraction(10) ** exp)


class TestRegimeOfArguments:

    @pytest.mark.parametrize("kwargs", [{"z3": -2e13}, {"z1": 5.0},
                                        {"a15": 2.0}, {"a_reg": 1.0},
                                        {"b_reg": 1.0}],
                             ids=["z3", "z1", "a15", "a_reg", "b_reg"])
    def test_float_argument_in_rational_regime(self, rs16, z3_main, kwargs):
        # a register is refused as Z_3, Z_1 and A_15 are
        args = {"z3": z3_main, **kwargs}
        registers = args.pop("a_reg", 1), args.pop("b_reg", 1)
        with pytest.raises(ModeUnsupportedError,
                           match=r"rational regime needs exact coefficients "
                                 r"\(got float\)"):
            attach_register(recover(rs16, (1, 4, 6), **args), *registers)

    @pytest.mark.parametrize("kwargs, name", [
        ({"z3": -Radical.sqrt(2)}, "Z_3"), ({"z1": Radical.sqrt(2)}, "Z_1")],
        ids=["z3", "z1"])
    def test_an_irrational_z3_or_z1_is_refused_by_name(self, rs16, z3_main,
                                                       kwargs, name):
        # refused before any arithmetic, not by a TypeError or a sum of
        # unlike radicals deep inside it; a Radical A_15 stays legal
        with pytest.raises(ModeUnsupportedError,
                           match=f"^{name} cannot be irrational, got "):
            recover(rs16, (1, 4, 6), **{"z3": z3_main, **kwargs})

    def test_a_tiny_exact_a15_is_nonzero(self, rs16, z3_main):
        # A_15^2 = 10^-400 underflows a double; exactly it is not 0
        a15 = Fraction(1, 10 ** 200)
        assert recover(rs16, (1, 4, 6), z3=z3_main, a15=a15).a15 == a15

    def test_an_a15_enclosure_that_holds_0_is_refused(self, z3_main):
        rs = reduce_system(dirichlet(Fraction(-33, 2)),
                           DegreePattern.default(6), INTERVAL)
        with pytest.raises(DegeneratePairError, match="^A_15 must be nonzero$"):
            recover(rs, (1, 4, 6), z3=z3_main, a15=Interval(-1.0, 2.0))


class TestDefaults:

    def test_choose_z3_is_negative_and_admissible(self, c16):
        z3 = choose_Z3(c16)
        assert z3 < 0
        # the margin rule: e_0-type mass under half of the headroom
        from zkwander.reduction import objective_B1, pivot_modulus
        b1 = float(objective_B1(c16))
        ratio = float(c16.C5) / float(pivot_modulus(c16, z3)) ** 2
        assert ratio < (1 - b1) / 2

    def test_choose_z3_gives_up_after_bounded_doublings(self, c16,
                                                        monkeypatch):
        # a pivot this small never clears the margin rule
        monkeypatch.setattr("zkwander.recovery.pivot_modulus",
                            lambda c, z3: Fraction(1, 10 ** 30))
        with pytest.raises(NoAdmissibleSystemError):
            choose_Z3(c16)

    def test_default_recovery_certifies(self, rs16, seq16):
        params = recover(rs16, (1, 4, 6))
        done = attach_register(params, auto_register(params), auto_register(params))
        cert = verify(done.pair, seq16)
        assert cert.verdict == "pass"


    def test_every_scale_of_the_headline_d_certifies(self, rs16, seq16):
        # B_1 does not change when d is scaled, so neither may the outcome:
        # across 10^-400..10^400 the C values leave the doubles, and no
        # parameter choice may end in OverflowError or ZeroDivisionError
        rng = random.Random(46)
        for n in (rng.randint(-400, 400) for _ in range(40)):
            d = tuple(v * Fraction(10) ** n for v in (1, 1, 4, 6))
            params = recover(rs16, d)
            reg = auto_register(params)
            done = attach_register(params, reg, reg)
            assert verify(done.pair, seq16).verdict == "pass", n


class TestValidation:

    def test_zero_d_rejected(self, rs16):
        with pytest.raises(ValueError):
            recover(rs16, (0, 4, 6))

    def test_zero_a15_rejected(self, rs16, z3_main):
        with pytest.raises(DegeneratePairError):
            recover(rs16, (1, 4, 6), z3=z3_main, a15=Fraction(0))

    def test_negative_z1_rejected(self, rs16, z3_main):
        with pytest.raises(ValueError):
            recover(rs16, (1, 4, 6), z3=z3_main, z1=Fraction(-2))
