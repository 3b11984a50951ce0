import json
import math
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from zkwander import scalars
from zkwander.certify import check_certificate, verify
from zkwander.errors import ModeUnsupportedError, SingularSystemError
from zkwander.model import DegreePattern, orthogonality_relations
from zkwander.recovery import attach_register, recover
from zkwander.reduction import compute_C, reduce_system
from zkwander.reference_data import TABLE1_ROWS, TABLE2_ROWS
from zkwander.scalars import (INTERVAL, MAX_ALPHA_DENOMINATOR, RATIONAL,
                              REGIMES, Interval, Radical, agreement,
                              certainly_positive,
                              cramer_solve3, det3, excludes_zero,
                              is_exact_zero, nonzero_evidence, power,
                              power_interval, scalar_from_json,
                              scalar_to_json, sqrt, strictly_less, to_float,
                              to_regime, zero_evidence)
from zkwander.search import confirm_value
from zkwander.weights import dirichlet, perturbed

rationals = st.fractions(min_value=-1000, max_value=1000,
                         max_denominator=10 ** 6)
nonzero_rationals = rationals.filter(lambda q: q != 0)

# non-square atoms; a few draws from six give identical, partly shared and
# disjoint atom sets alike
ATOMS = (Fraction(2), Fraction(3), Fraction(6), Fraction(1, 2),
         Fraction(10, 7), Fraction(5, 3))
radicals = st.builds(lambda c, atoms: Radical(c, tuple(sorted(atoms))),
                     nonzero_rationals,
                     st.sets(st.sampled_from(ATOMS), min_size=1, max_size=3))


def _fraction_hashes(build) -> int:
    """How often build() hashes a Fraction, counted by a profile hook."""
    code, count = Fraction.__hash__.__code__, 0

    def hook(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code is code

    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        build()
    finally:
        sys.setprofile(outer)
    return count


class TestInterval:

    def test_exact_point_for_representable(self):
        iv = Interval.exact(Fraction(1, 2))
        assert iv.lo == iv.hi == 0.5

    def test_exact_encloses_unrepresentable(self):
        iv = Interval.exact(Fraction(1, 3))
        assert iv.lo < iv.hi
        assert Fraction(iv.lo) < Fraction(1, 3) < Fraction(iv.hi)

    @given(a=rationals, b=rationals)
    @settings(max_examples=50)
    def test_add_contains_exact(self, a, b):
        iv = Interval.exact(a) + Interval.exact(b)
        assert Fraction(iv.lo) <= a + b <= Fraction(iv.hi)

    @given(a=rationals, b=rationals)
    @settings(max_examples=50)
    def test_mul_contains_exact(self, a, b):
        iv = Interval.exact(a) * Interval.exact(b)
        assert Fraction(iv.lo) <= a * b <= Fraction(iv.hi)

    @given(a=rationals, b=nonzero_rationals)
    @settings(max_examples=50)
    def test_div_contains_exact(self, a, b):
        iv = Interval.exact(a) / Interval.exact(b)
        assert Fraction(iv.lo) <= a / b <= Fraction(iv.hi)

    @given(a=rationals.filter(lambda q: q > 0))
    @settings(max_examples=50)
    def test_sqrt_contains_square_root(self, a):
        iv = (Interval.exact(a) * Interval.exact(a)).sqrt()
        assert Fraction(iv.lo) <= a <= Fraction(iv.hi)

    def test_division_through_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Interval.exact(1) / Interval(-1.0, 1.0)

    def test_abs_of_each_sign(self):
        nonnegative = Interval(0.0, 2.0)
        assert abs(nonnegative) is nonnegative
        assert abs(Interval(-2.0, -0.5)) == Interval(0.5, 2.0)
        assert abs(Interval(-3.0, 2.0)) == Interval(0.0, 3.0)
        assert abs(Interval(-1.0, 2.0)) == Interval(0.0, 2.0)

    def test_sqrt_reaching_below_zero_is_refused(self):
        with pytest.raises(ValueError, match="reaching below zero"):
            Interval(-1e-300, 4.0).sqrt()

    @pytest.mark.parametrize("base", [0, -2, Fraction(-1, 3)])
    def test_power_interval_needs_a_positive_base(self, base):
        with pytest.raises(ValueError, match="needs a positive base"):
            power_interval(base, Fraction(-1, 2))

    @pytest.mark.parametrize("op", [
        lambda x, y: x - y, lambda x, y: x * y, lambda x, y: y * x,
        lambda x, y: x / y, lambda x, y: y / x, lambda x, y: y + x],
        ids=["sub", "mul", "rmul", "truediv", "rtruediv", "radd"])
    def test_every_operator_refuses_a_foreign_operand(self, op):
        # each returns NotImplemented, so Python raises TypeError
        with pytest.raises(TypeError):
            op(Interval(1.0, 2.0), object())

    def test_contains_zero_and_sign_queries(self):
        assert Interval(-1.0, 2.0).contains_zero()
        assert Interval(0.5, 2.0).is_positive()
        assert not Interval(-1.0, 2.0).is_positive()

    def test_strict_compare_uses_outer_endpoints(self):
        assert strictly_less(Interval(0.0, 1.0), Interval(1.5, 2.0))
        assert not strictly_less(Interval(0.0, 1.0), Interval(0.9, 2.0))

    @given(a=rationals.filter(lambda q: q > 0),
           e=st.fractions(min_value=-4, max_value=4, max_denominator=16))
    @settings(max_examples=30, deadline=None)
    def test_power_interval_contains_true_power(self, a, e):
        iv = power_interval(a, e)
        # compare in high-precision floats through mpmath
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(120):
            true = mpmath.power(mpmath.mpf(a.numerator) / a.denominator,
                                mpmath.mpf(e.numerator) / e.denominator)
            assert mpmath.mpf(iv.lo) <= true <= mpmath.mpf(iv.hi)

    @given(b=st.one_of(st.integers(1, 20000),
                       st.fractions(Fraction(1, 1000), 1000,
                                    max_denominator=1000)),
           e=st.fractions(-17, 17, max_denominator=64))
    @example(b=15000, e=Fraction(-4999, 1000))
    @example(b=7, e=Fraction(-4999, 1000))
    @example(b=14611, e=Fraction(63999, 1000))
    @example(b=2, e=Fraction(7, 1000))
    @settings(max_examples=60, deadline=None)
    def test_power_interval_is_proved_exactly(self, b, e):
        # lo <= b**(p/q) <= hi  iff  lo**q <= b**p <= hi**q, for 0 < lo
        iv = power_interval(b, e)
        p, q = e.numerator, e.denominator
        assert 0 < iv.lo
        assert Fraction(iv.lo) ** q <= Fraction(b) ** p <= Fraction(iv.hi) ** q

    @pytest.mark.parametrize("b, e, exact", [
        (4, Fraction(1, 2), 2), (Fraction(1, 27), Fraction(-2, 3), 9),
        (10 ** 6, Fraction(1, 3), 100), (2 ** 10, Fraction(-3, 10),
                                          Fraction(1, 8)),
        (9, Fraction(35, 2), 3 ** 35), (9, Fraction(-35, 2),
                                         Fraction(1, 3 ** 35)),
        # 195**7 is an odd 54-bit integer, halfway between two doubles: the
        # tie goes to the even significand, as float() rounds it
        (195 ** 2, Fraction(7, 2), 195 ** 7)])
    def test_power_interval_centres_the_nearest_double(self, b, e, exact):
        r = float(exact)
        lo = math.nextafter(math.nextafter(r, -math.inf), -math.inf)
        hi = math.nextafter(math.nextafter(r, math.inf), math.inf)
        assert power_interval(b, e) == Interval(lo, hi)

    def test_power_interval_bounds_the_denominator(self):
        assert MAX_ALPHA_DENOMINATOR == 1000
        power_interval(3, Fraction(-16001, 1000))
        with pytest.raises(ModeUnsupportedError, match="denominator"):
            power_interval(3, Fraction(-16001, 1001))

    @pytest.mark.parametrize("b, e", [
        (10, Fraction(617, 2)), (Fraction(1, 10), Fraction(-617, 2)),
        (10, Fraction(-651, 2)), (10 ** 400, Fraction(-1, 2)),
        (Fraction(1, 10 ** 400), Fraction(-1, 2))],
        ids=["over", "over-small-base", "under", "base-over", "base-under"])
    def test_power_interval_refuses_past_the_doubles(self, b, e):
        with pytest.raises(ModeUnsupportedError):
            power_interval(b, e)

    @pytest.mark.parametrize("a", [391, 392, 3 * 10 ** 7])
    def test_integer_power_past_the_doubles_is_refused_alike(self, a):
        # 7^391 ~ 2^1097.7 is formed and refused; from 7^392 ~ 2^1100.5 on
        # the size of a log2(7) alone refuses it, with the same messages
        with pytest.raises(ModeUnsupportedError,
                           match="past the largest double"):
            power(7, Fraction(a), INTERVAL)
        underflow = rf"^7\^\(-{a}\) is not certifiably positive"
        with pytest.raises(ModeUnsupportedError, match=underflow):
            power(7, Fraction(-a), INTERVAL)

    def test_float_underflow_names_only_its_cause(self):
        # 3001^-3000 ~ 10^-10431 is far below the least double, so the
        # enclosure's float bounds underflow; the message says just that
        with pytest.raises(ModeUnsupportedError) as info:
            power(3001, Fraction(-3000), INTERVAL)
        assert str(info.value) == ("3001^(-3000) is not certifiably positive "
                                   "in the interval regime (underflow)")

    def test_power_interval_matches_the_mpmath_enclosure(self):
        # the enclosure mpmath gave before: its nearest double at 80 bits,
        # two ulps out on each side; the certificates keep these bytes
        mpmath = pytest.importorskip("mpmath")

        def old(b, e):
            with mpmath.workprec(80):
                r = float(mpmath.power(mpmath.mpf(b),
                                       mpmath.mpf(e.numerator) / e.denominator))
            return Interval(math.nextafter(math.nextafter(r, -math.inf),
                                           -math.inf),
                            math.nextafter(math.nextafter(r, math.inf),
                                           math.inf))

        rows = TABLE1_ROWS + TABLE2_ROWS
        cases = {(Fraction(-33, 2), DegreePattern.default(6))}
        for row in rows:
            pattern = DegreePattern.from_phi(row.k, row.phi2, row.phi3)
            for offset in (Fraction(-1, 2), Fraction(-1, 4), 0,
                           Fraction(1, 4)):
                if (row.alpha + offset).denominator != 1:
                    cases.add((row.alpha + offset, pattern))
        assert len(cases) == 45
        for alpha, pattern in sorted(cases, key=str):
            for t in pattern.embedded_indices():
                assert power_interval(t + 1, alpha) == old(t + 1, alpha), \
                    (alpha, t)


class _OldInterval:
    """The interval kernel as it was before operands were coerced only when
    needed and results built by one guarded constructor, kept verbatim
    (less the queries) as the reference of TestIntervalKernelParity."""

    def __init__(self, lo, hi):
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ValueError(f"bad interval endpoints [{lo}, {hi}]")
        self.lo, self.hi = lo, hi

    @classmethod
    def exact(cls, value):
        if isinstance(value, _OldInterval):
            return value
        if isinstance(value, float):
            return cls(value, value)
        q = Fraction(value)
        try:
            f = float(q)
        except OverflowError as exc:
            raise ModeUnsupportedError(
                "a rational past the largest double has no interval "
                "enclosure; use the rational regime") from exc
        if Fraction(f) == q:
            return cls(f, f)
        return cls(_down(f), _up(f))

    def contains_zero(self):
        return self.lo <= 0.0 <= self.hi

    @staticmethod
    def _coerce(value):
        if isinstance(value, _OldInterval):
            return value
        if isinstance(value, (int, float, Fraction)):
            return _OldInterval.exact(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _OldInterval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    __radd__ = __add__

    def __neg__(self):
        return _OldInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ps = (self.lo * other.lo, self.lo * other.hi,
              self.hi * other.lo, self.hi * other.hi)
        return _OldInterval(_down(min(ps)), _up(max(ps)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.contains_zero():
            raise ZeroDivisionError("interval divisor encloses zero")
        ps = (self.lo / other.lo, self.lo / other.hi,
              self.hi / other.lo, self.hi / other.hi)
        return _OldInterval(_down(min(ps)), _up(max(ps)))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self


def _down(x):
    return math.nextafter(x, -math.inf)


def _up(x):
    return math.nextafter(x, math.inf)


# endpoints: signed zeros, subnormals, the extreme doubles and infinities
# among ordinary doubles; the pairs below make 0 * inf and inf - inf
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
           1.7976931348623157e308, -1.7976931348623157e308, math.inf,
           -math.inf)
endpoints = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False))
intervals = st.tuples(endpoints, endpoints).map(sorted)
# operands an interval coerces, a rational past the largest double included
coercibles = st.one_of(
    st.integers(min_value=-10 ** 400, max_value=10 ** 400), rationals,
    st.fractions(max_denominator=10 ** 400), endpoints,
    st.floats(allow_nan=True))


def _outcome(compute):
    """The endpoints of compute()'s interval, by float.hex, or the type and
    message of what it raised."""
    try:
        iv = compute()
    except (ValueError, ZeroDivisionError, ModeUnsupportedError) as exc:
        return type(exc).__name__, str(exc)
    return iv.lo.hex(), iv.hi.hex()


BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b, "/": lambda a, b: a / b}


class TestIntervalKernelParity:
    """The kernel gives the endpoints and exceptions of its predecessor,
    bit for bit (float.hex tells -0.0 from 0.0)."""

    @settings(max_examples=400, deadline=None)
    @given(x=intervals, y=intervals, op=st.sampled_from(sorted(BINARY)))
    @example(x=[0.0, math.inf], y=[-math.inf, -0.0], op="*")
    @example(x=[math.inf, math.inf], y=[math.inf, math.inf], op="-")
    @example(x=[-0.0, -0.0], y=[0.0, 0.0], op="-")
    @example(x=[5e-324, 5e-324], y=[-5e-324, 5e-324], op="/")
    @example(x=[1e308, 1e308], y=[10.0, 10.0], op="*")
    @example(x=[5e-324, 5e-324], y=[0.5, 0.5], op="*")
    @example(x=[-0.0, 1.0], y=[0.0, 2.0], op="*")
    @example(x=[0.0, math.inf], y=[0.0, 0.0], op="*")
    @example(x=[1.0, 2.0], y=[0.0, 1.0], op="/")
    @example(x=[1.0, 2.0], y=[-0.0, 1.0], op="/")
    def test_interval_by_interval(self, x, y, op):
        assert _outcome(lambda: BINARY[op](Interval(*x), Interval(*y))) == \
            _outcome(lambda: BINARY[op](_OldInterval(*x), _OldInterval(*y)))

    @settings(max_examples=400, deadline=None)
    @given(x=intervals, v=coercibles, op=st.sampled_from(sorted(BINARY)),
           reflected=st.booleans())
    @example(x=[0.0, 1.0], v=math.inf, op="*", reflected=True)
    @example(x=[1.0, 2.0], v=10 ** 400, op="+", reflected=False)
    @example(x=[1.0, 2.0], v=math.nan, op="-", reflected=True)
    @example(x=[-1.0, 1.0], v=Fraction(1, 3), op="/", reflected=True)
    def test_interval_and_scalar(self, x, v, op, reflected):
        def run(cls):
            return (BINARY[op](v, cls(*x)) if reflected
                    else BINARY[op](cls(*x), v))
        assert _outcome(lambda: run(Interval)) == _outcome(
            lambda: run(_OldInterval))

    @settings(max_examples=200, deadline=None)
    @given(x=intervals)
    def test_negation(self, x):
        assert _outcome(lambda: -Interval(*x)) == _outcome(
            lambda: -_OldInterval(*x))

    @settings(max_examples=400, deadline=None)
    @given(v=coercibles)
    @example(v=10 ** 400)
    @example(v=Fraction(1, 10 ** 400))
    @example(v=-0.0)
    @example(v=math.nan)
    @example(v=2 ** 53)
    @example(v=-2 ** 53)
    @example(v=2 ** 53 + 1)
    @example(v=-(2 ** 53 + 1))
    @example(v=True)
    def test_exact(self, v):
        assert _outcome(lambda: Interval.exact(v)) == _outcome(
            lambda: _OldInterval.exact(v))

    def test_a_foreign_operand_is_not_implemented(self):
        with pytest.raises(TypeError):
            Interval(1.0, 2.0) + "1"
        with pytest.raises(TypeError):
            "1" - Interval(1.0, 2.0)


def _interval_certificate_json() -> str:
    """reduce -> recover -> attach_register -> verify -> to_json ->
    check_certificate at alpha = -33/2, k = 6, d = (1, 1, 4, 6)."""
    seq = dirichlet(Fraction(-33, 2))
    rs = reduce_system(seq, DegreePattern.default(6), INTERVAL)
    params = attach_register(recover(rs, (1, 1, 4, 6)), 1, 1)
    text = verify(params.pair, seq, INTERVAL).to_json()
    assert check_certificate(json.loads(text))["ok"]
    return text


class TestPowerMemo:

    def test_each_interval_weight_is_proved_once(self, monkeypatch):
        # a certificate reads 14 weights; without the memo the build and
        # replay prove 126 enclosures for them
        calls = []
        proved = scalars.power_interval

        def counting(base, exponent):
            calls.append((base, exponent))
            return proved(base, exponent)

        monkeypatch.setattr(scalars, "power_interval", counting)
        scalars._power_enclosure.cache_clear()
        _interval_certificate_json()
        assert len(calls) == 14 == len(set(calls))

    def test_a_warm_memo_gives_the_same_bytes(self):
        scalars._power_enclosure.cache_clear()
        cold = _interval_certificate_json()
        assert _interval_certificate_json() == cold

    def test_a_warm_memo_hashes_no_fraction(self):
        _interval_certificate_json()
        assert _fraction_hashes(_interval_certificate_json) == 0

    def test_a_refused_power_is_refused_again(self):
        for _ in range(2):
            with pytest.raises(ModeUnsupportedError, match="denominator"):
                power(3, Fraction(-16001, 1001), INTERVAL)


class TestRadical:

    def test_sqrt_squares_back(self):
        r = Radical.sqrt(Fraction(6))
        assert r * r == 6 and isinstance(r * r, Fraction)

    def test_perfect_square_collapses(self):
        assert Radical.sqrt(4) == 2 and isinstance(Radical.sqrt(4), Fraction)
        assert Radical.sqrt(Fraction(9, 16)) == Fraction(3, 4)
        assert Radical.sqrt(0) == 0 and isinstance(Radical.sqrt(0), Fraction)

    def test_pair_cancellation_without_factoring(self):
        r = Radical.sqrt(Fraction(10, 7))
        s = Radical(Fraction(3), (Fraction(10, 7), Fraction(2)))
        prod = r * s
        assert prod.coeff == 3 * Fraction(10, 7)
        assert prod.roots == (Fraction(2),)

    def test_addition_needs_matching_atoms(self):
        a = Radical.sqrt(2)
        b = Radical.sqrt(3)
        assert (a + a).coeff == 2
        with pytest.raises(ModeUnsupportedError):
            a + b

    def test_sqrt_of_a_negative_is_refused(self):
        with pytest.raises(ValueError, match="sqrt of a negative rational"):
            Radical.sqrt(Fraction(-2, 3))

    @pytest.mark.parametrize("op", [
        lambda x, y: x + y, lambda x, y: y + x, lambda x, y: x * y,
        lambda x, y: y * x, lambda x, y: x / y, lambda x, y: y / x],
        ids=["add", "radd", "mul", "rmul", "truediv", "rtruediv"])
    @pytest.mark.parametrize("foreign", [object(), 1.5, Interval(1.0, 2.0)],
                             ids=["object", "float", "interval"])
    def test_every_operator_refuses_a_foreign_operand(self, op, foreign):
        with pytest.raises(TypeError):
            op(Radical.sqrt(2), foreign)

    @pytest.mark.parametrize("op", [lambda x, y: x - y, lambda x, y: y - x],
                             ids=["sub", "rsub"])
    def test_no_difference_has_a_radical_operand(self, op):
        # the package forms every difference of rationals or of intervals
        with pytest.raises(TypeError):
            op(Radical.sqrt(2), Fraction(1))

    def test_division(self):
        a = Radical.sqrt(2)
        assert (1 / a) * a == 1 and isinstance((1 / a) * a, Fraction)
        assert a / a == 1
        assert (a / 2) * 2 == a

    def test_float_and_sign(self):
        assert float(Radical.sqrt(2)) == pytest.approx(math.sqrt(2))
        assert float(-Radical.sqrt(2)) == pytest.approx(-math.sqrt(2))

    @pytest.mark.parametrize("value, square", [
        (Radical(Fraction(3), (Fraction(1, 10 ** 400),)), "9e-400"),
        (Radical(Fraction(-1, 10 ** 310), (Fraction(2),)), "-2e-620"),
        (Radical(Fraction(10 ** 400), (Fraction(1, 10 ** 800), Fraction(2))),
         "2"),
        (Radical(Fraction(-10 ** 400), (Fraction(2, 10 ** 184),)),
         "-2e616"),
        (Radical(Fraction(1, 10 ** 162), (Fraction(1, 10 ** 700),)),
         "1e-1024"),
    ], ids=["atom-below-the-doubles", "subnormal", "coefficient-overflows",
            "near-the-largest", "below-the-subnormals"])
    def test_float_at_both_ends_of_the_doubles(self, value, square):
        # where a value leaves the normal doubles on the way, the correctly
        # rounded double of sign * sqrt(value^2)
        with localcontext() as ctx:
            ctx.prec = 60
            square = Decimal(square)
            near = float(square.copy_abs().sqrt().copy_sign(square))
        assert float(value) == near

    def test_float_past_the_largest_double_overflows(self):
        # as float() of the rational 10^350 does
        with pytest.raises(OverflowError):
            float(Radical(Fraction(10 ** 200), (Fraction(10 ** 300),)))

    @given(value=radicals)
    @settings(max_examples=100)
    def test_float_inside_the_doubles_is_atom_by_atom(self, value):
        # the formula the digests were taken with, bit for bit
        out = float(value.coeff)
        for r in value.roots:
            out *= math.sqrt(float(r))
        assert float(value) == out

    def test_irrational_as_fraction_raises(self):
        # an irrational has no Fraction to compare through
        with pytest.raises(ModeUnsupportedError):
            strictly_less(Radical.sqrt(2), Fraction(2))
        with pytest.raises(ModeUnsupportedError):
            strictly_less(Fraction(1), Radical.sqrt(2))

    def test_equality_and_hash(self):
        assert Radical.sqrt(2) == Radical(Fraction(1), (Fraction(2),))
        assert hash(Radical.sqrt(2)) == hash(Radical(Fraction(1), (Fraction(2),)))
        assert Radical.sqrt(2) != Fraction(2)

    def test_abs(self):
        r = Radical(Fraction(-2), (Fraction(3),))
        assert abs(r).coeff == 2
        assert abs(r).roots == r.roots

    @given(start=nonzero_rationals,
           steps=st.lists(st.tuples(
               st.sampled_from(["mul", "div"]),
               st.one_of(st.sampled_from([2, 3, 4, 6, Fraction(1, 2),
                                          Fraction(9, 4), Fraction(10, 7)]),
                         rationals.filter(lambda q: q > 0))),
               max_size=8))
    @settings(max_examples=100)
    def test_products_keep_the_normal_form(self, start, steps):
        value, approx = start, float(start)
        for op, q in steps:
            root = Radical.sqrt(q)
            if op == "mul":
                value, approx = value * root, approx * math.sqrt(q)
            else:
                value, approx = value / root, approx / math.sqrt(q)
            if isinstance(value, Radical):
                atoms = value.roots
                assert value.coeff != 0 and atoms
                assert list(atoms) == sorted(set(atoms))
                for r in atoms:
                    assert r > 0
                    assert Radical.sqrt(r) == Radical(Fraction(1), (r,))
            else:
                assert isinstance(value, Fraction)
            assert float(value) == pytest.approx(approx, rel=1e-9)

    @given(a=radicals, b=radicals)
    @example(a=Radical(Fraction(3), (Fraction(2), Fraction(3))),
             b=Radical(Fraction(-1, 2), (Fraction(2), Fraction(3))))
    @example(a=Radical(Fraction(3), (Fraction(2), Fraction(3))),
             b=Radical(Fraction(5), (Fraction(3), Fraction(6))))
    @example(a=Radical(Fraction(3), (Fraction(2),)),
             b=Radical(Fraction(5), (Fraction(1, 2), Fraction(6))))
    @settings(max_examples=200)
    def test_product_matches_the_set_reference(self, a, b):
        # b's atoms as the decoder rebuilds them on replay: equal, not the
        # same objects
        b = Radical(b.coeff, tuple(Fraction(str(r)) for r in b.roots))
        mine, theirs = set(a.roots), set(b.roots)
        roots = tuple(sorted(mine ^ theirs))
        coeff = a.coeff * b.coeff * math.prod(mine & theirs)
        product = a * b
        assert product == (Radical(coeff, roots) if roots else coeff)
        assert isinstance(product, Fraction) == (not roots)
        assert product == b * a
        assert math.isclose(float(product), float(a) * float(b),
                            rel_tol=1e-12)

    def test_the_rational_headline_hashes_no_fraction(self, seq16, pattern6,
                                                      z3_main):
        def build():
            rs = reduce_system(seq16, pattern6)
            params = attach_register(recover(rs, (1, 4, 6), z3=z3_main), 1, 1)
            text = verify(params.pair, seq16).to_json()
            assert check_certificate(json.loads(text))["ok"]

        assert _fraction_hashes(build) == 0

    def test_decoder_normalises_untrusted_atoms(self):
        two = scalar_from_json({"rational": "3", "roots": ["2", "5", "2"]})
        assert two == 6 * Radical.sqrt(5)
        square = scalar_from_json({"rational": "3", "roots": ["9/4", "7"]})
        assert square == Fraction(9, 2) * Radical.sqrt(7)
        rational = scalar_from_json({"rational": "1/2", "roots": ["3", "3"]})
        assert rational == Fraction(3, 2) and isinstance(rational, Fraction)
        for bad in ("0", "-2"):
            with pytest.raises(ValueError):
                scalar_from_json({"rational": "1", "roots": ["2", bad]})

    @pytest.mark.parametrize("obj", [
        "1e100000000", "-2E9", {"rational": "1e9", "roots": ["2"]},
        {"rational": "1", "roots": ["2e9"]},
        {"rational": "1", "roots": [str(p) for p in range(2, 11)]},
        {"re": 1, "im": 2},
    ], ids=["exponent", "exponent-upper", "radical-coefficient",
            "radical-atom", "nine-atoms", "complex"])
    def test_decoder_refuses_unbounded_forms(self, obj):
        with pytest.raises(ValueError):
            scalar_from_json(obj)


def _left_to_right(terms):
    """The per-term sum that sum_of_products replaces."""
    total = None
    for x, y, w in terms:
        term = x * y * w
        total = term if total is None else total + term
    return total


def _exact_outcome(compute):
    """compute()'s type and value, or ModeUnsupportedError if it raised."""
    try:
        value = compute()
    except ModeUnsupportedError:
        return ModeUnsupportedError
    return type(value), value


# factors over three atoms, zero among them; a weight is a positive rational
factors = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-3, 7)]),
    rationals,
    st.builds(lambda c, atoms: Radical(c, tuple(sorted(atoms))),
              nonzero_rationals,
              st.sets(st.sampled_from(ATOMS[:3]), min_size=1, max_size=2)))
exact_terms = st.lists(
    st.tuples(factors, factors, rationals.filter(lambda q: q > 0)),
    min_size=1, max_size=6)
S2, S3 = Radical.sqrt(2), Radical.sqrt(3)


class TestSumOfProducts:

    @seed(37)
    @settings(max_examples=150, deadline=None)
    @given(terms=exact_terms, cancel=st.booleans())
    @example(terms=[(S2, 1, Fraction(1)), (-S2, 1, Fraction(1)),
                    (S3, 2, Fraction(1))], cancel=False)
    @example(terms=[(S2, S3, Fraction(2)), (S3, S2, Fraction(-2)),
                    (Fraction(1), 0, Fraction(5))], cancel=False)
    @example(terms=[(S2, 1, Fraction(1)), (Fraction(1), 1, Fraction(1))],
             cancel=False)
    @example(terms=[(S2, S2 * S3, Fraction(1)), (S3, 5, Fraction(1, 3))],
             cancel=True)
    def test_exact_sums_match_the_left_to_right_sum(self, terms, cancel):
        # cancel appends each term's negation: the sum is exactly 0 unless
        # the atoms clash on the way
        if cancel:
            terms = terms + [(-x, y, w) for x, y, w in terms]
        assert _exact_outcome(lambda: scalars.sum_of_products(terms)) == \
            _exact_outcome(lambda: _left_to_right(terms))

    @seed(37)
    @settings(max_examples=150, deadline=None)
    @given(terms=st.lists(st.tuples(
        st.one_of(factors, st.builds(lambda a, b: Interval(*sorted((a, b))),
                                     st.floats(-1e6, 1e6),
                                     st.floats(-1e6, 1e6)))
        .filter(lambda v: not isinstance(v, Radical)),
        st.one_of(st.integers(-3, 3), rationals),
        st.one_of(st.floats(1e-3, 1e3).map(lambda x: Interval(x, _up(x))),
                  rationals.filter(lambda q: q > 0))),
        min_size=1, max_size=6))
    def test_interval_sums_keep_the_loop_bits(self, terms):
        # one Interval factor anywhere, a later term's too, selects the loop
        assume(any(isinstance(v, Interval) for term in terms for v in term))
        assert _outcome(lambda: scalars.sum_of_products(terms)) == \
            _outcome(lambda: _left_to_right(terms))

    def test_clashing_atoms_raise(self):
        with pytest.raises(ModeUnsupportedError,
                           match="different root atoms"):
            scalars.sum_of_products([(S2, 1, Fraction(1)),
                                     (S3, 1, Fraction(1))])

    def test_zero_terms_drop_out(self):
        total = scalars.sum_of_products([(Fraction(0), S3, Fraction(1)),
                                         (S2, 3, Fraction(1, 2)),
                                         (S2, 0, Fraction(7))])
        assert total == Radical(Fraction(3, 2), (Fraction(2),))

    def test_the_headline_a21_is_a_plain_zero(self, registered16, seq16):
        relations = orthogonality_relations(registered16.pair, seq16)[1]
        a21 = dict(relations)[2, 1]
        assert a21 == 0 and type(a21) is Fraction


class TestOneFloatRule:
    """Every entry point that takes a float reads it as the decimal its
    repr prints, through scalars.to_rational (the alpha = -6 row of Table 1
    prints d_1 = 0.2); the rational regime takes no float coefficient
    (test_recovery.TestRegimeOfArguments)."""

    @pytest.mark.parametrize("x", [0.2, 0.1, -4.999])
    def test_a_float_is_the_decimal_it_prints(self, x):
        q = Fraction(repr(x))
        # d and an override weight must be positive
        v, qv = abs(x), abs(q)
        seq, pattern = dirichlet(-16), DegreePattern.default(6)
        rs = reduce_system(seq, pattern)
        assert dirichlet(x).alpha == q
        assert compute_C(rs, (v, 13, 16000)).d == (1, qv, 13, 16000)
        params = recover(rs, (v, 13, 16000), z3=Fraction("-2e13"))
        assert params == recover(rs, (qv, 13, 16000), z3=Fraction("-2e13"))
        assert (confirm_value(seq, pattern, (v, 13, 16000))
                == confirm_value(seq, pattern, (qv, 13, 16000)))
        assert perturbed(seq, {6: v}).overrides == ((6, qv),)

    def test_a_bool_is_no_number(self):
        # a bool is an int to Python: True once read as 1 at each of these
        seq, pattern = dirichlet(-16), DegreePattern.default(6)
        rs = reduce_system(seq, pattern)
        params = recover(rs, (1, 4, 6), z3=Fraction("-2e13"))
        for call in (lambda: dirichlet(True),
                     lambda: compute_C(rs, (True, 4, 6)),
                     lambda: recover(rs, (1, 4, 6), z3=True),
                     lambda: attach_register(params, True, True),
                     lambda: perturbed(seq, {3: True})):
            with pytest.raises(ValueError, match="^True is a bool, not a "
                               "rational$"):
                call()

    def test_the_interval_regime_reads_a_float_the_same_way(self):
        # a float register, Z_3, Z_1 or A_15
        rs = reduce_system(dirichlet(Fraction(-33, 2)),
                           DegreePattern.default(6), INTERVAL)
        params = recover(rs, (1, 4, 6), z3=-2e13)
        assert type(params.z3) is Fraction and params.z3 == -2 * 10 ** 13
        assert attach_register(params, 0.2, 0.2).pair.a_reg == Fraction(1, 5)
        again = recover(rs, (1, 4, 6), z3=-2e13, z1=0.1, a15=0.2)
        assert (again.z1, again.a15) == (Fraction(1, 10), Fraction(1, 5))

    def test_the_interval_regime_reads_an_int_exactly(self):
        # A_15 / Z_1 of two ints is a rational, not a double taken as exact
        rs = reduce_system(dirichlet(Fraction(-33, 2)),
                           DegreePattern.default(6), INTERVAL)
        ints = recover(rs, (1, 4, 6), z3=-2 * 10 ** 13, z1=3, a15=1)
        exact = recover(rs, (1, 4, 6), z3=Fraction(-2 * 10 ** 13),
                        z1=Fraction(3), a15=Fraction(1))
        assert (ints.z3, ints.z1, ints.a15) == (exact.z3, exact.z1, exact.a15)
        assert all(type(v) is Fraction for v in (ints.z3, ints.z1, ints.a15))
        b = ints.pair.b_low[0]
        assert (b.lo, b.hi) == (exact.pair.b_low[0].lo,
                                exact.pair.b_low[0].hi) == (
            -6666666666666.671, -6666666666666.662)


class TestHelpers:

    @pytest.mark.parametrize("value,text", [
        (Fraction(-33, 2), "-33/2"),
        (Fraction(10 ** 5000 + 1, 10 ** 5000),
         "~1.0 (exact: ~5001 digits over ~5001)"),
        (Fraction(-(10 ** 5000)), "~-1.000000e+5000 (exact: ~5001 digits "
         "over ~1)"),
        (Fraction(10 ** 4301 - 1, 7), "~1.428571e+4300 (exact: ~4301 digits "
         "over ~1)")])
    def test_scalar_text_never_raises(self, value, text):
        # past the doubles too, where the nearest double overflows
        assert scalars.scalar_text(value) == text

    @pytest.mark.parametrize("k", [1, 2, 15, 16, 17, 22, 23, 300, 308, 309,
                                   4299, 4300, 4301, 10000])
    def test_digits_next_to_a_power_of_ten(self, k):
        # 10**k has k + 1 digits, 10**k - 1 has k
        assert scalars._digits(10 ** k - 1) == k
        assert scalars._digits(10 ** k) == k + 1
        assert scalars._digits(10 ** k + 1) == k + 1
        assert scalars._digits(-(10 ** k)) == k + 1

    def test_digits_of_small_integers(self):
        assert [scalars._digits(n) for n in (0, 1, -1, 9, 10, 99, 100)] == [
            1, 1, 1, 1, 2, 2, 3]

    def test_is_exact_zero(self):
        assert is_exact_zero(Fraction(0))
        assert not is_exact_zero(Fraction(1, 10 ** 30))
        assert is_exact_zero(0.0)
        assert not is_exact_zero(Interval(-1e-30, 1e-30))

    def test_to_regime_conversions(self):
        q = Fraction(1, 3)
        assert to_regime(q, RATIONAL) == q
        assert isinstance(to_regime(q, RATIONAL), Fraction)
        assert isinstance(to_regime(q, INTERVAL), Interval)
        # floats locate, they do not prove: they are no regime
        assert REGIMES == (RATIONAL, INTERVAL)
        for regime in ("float", "bogus"):
            with pytest.raises(ValueError,
                               match=f"^unknown regime '{regime}'$"):
                to_regime(q, regime)

    def test_enclosures_agree_when_they_meet(self):
        one = Interval.exact(1.0)
        assert agreement(one, Interval.exact(1.0)) == {"equal": True,
                                                       "exact": False}
        assert agreement(one, Fraction(1))["equal"]
        assert agreement(Interval(0.5, 1.5), Interval(1.25, 2.0))["equal"]
        # two disjoint points differ, however close
        assert not agreement(one, Interval.exact(1.0 + 1e-12))["equal"]

    def test_exact_values_agree_exactly(self):
        root2 = Radical.sqrt(Fraction(2))
        assert agreement(root2, Radical.sqrt(Fraction(8)) / 2) == {
            "equal": True, "exact": True}
        assert not agreement(root2, -root2)["equal"]
        assert not agreement(Fraction(1), Fraction(1) + Fraction(1, 10 ** 30))[
            "equal"]

    def test_to_float_of_interval_is_midpoint(self):
        assert to_float(Interval(1.0, 3.0)) == 2.0

    @given(q=rationals)
    @settings(max_examples=50)
    def test_sqrt_of_a_square_is_exact(self, q):
        root = sqrt(q * q)
        assert isinstance(root, Fraction)
        assert root == abs(q)

    def test_sqrt_exact_irrational_and_float(self):
        root = sqrt(Fraction(2))
        assert isinstance(root, Radical)
        assert root * root == 2
        # a float is read as the rational it stores
        assert sqrt(2.25) == Fraction(3, 2)
        assert isinstance(sqrt(2.25), Fraction)
        with pytest.raises(ModeUnsupportedError):
            sqrt(Radical.sqrt(2))

    @given(a=rationals.filter(lambda q: q > 0))
    @settings(max_examples=50)
    def test_sqrt_interval_encloses_true_root(self, a):
        iv = sqrt(Interval.exact(a))
        assert Fraction(iv.lo) ** 2 <= a <= Fraction(iv.hi) ** 2

    def test_is_zero_per_regime(self):
        assert zero_evidence(Fraction(0))[0]
        assert not zero_evidence(Fraction(1, 10 ** 30))[0]
        assert not zero_evidence(Radical.sqrt(2))[0]
        # an interval proves 0 only as the point [0, 0]
        assert zero_evidence(Interval(0.0, 0.0))[0]
        assert not zero_evidence(Interval(-1e-30, 1e-30))[0]
        assert not zero_evidence(Interval(-1e-10, 1e-10))[0]
        assert not zero_evidence(Interval(1e-30, 2e-30))[0]
        # a float proves nothing: refused, never recorded as exact
        for evidence in (zero_evidence, nonzero_evidence):
            for x in (0.0, 1e-12, 1.0):
                with pytest.raises(ModeUnsupportedError,
                                   match="floats locate, they do not prove"):
                    evidence(x)

    def test_excludes_zero_and_certainly_positive(self):
        assert excludes_zero(Fraction(-1, 3)) and not excludes_zero(Fraction(0))
        assert excludes_zero(Radical.sqrt(2))
        assert excludes_zero(Interval(-2.0, -1.0))
        assert not excludes_zero(Interval(-1.0, 1.0))
        assert certainly_positive(Fraction(1, 3)) and certainly_positive(0.5)
        assert not certainly_positive(Fraction(0))
        assert certainly_positive(Interval(0.5, 1.0))
        # touching 0 is not certainly positive
        assert not certainly_positive(Interval(0.0, 1.0))
        assert not certainly_positive(Interval(-1.0, 1.0))

    @pytest.mark.parametrize("value", [
        Fraction(-22, 7),
        Interval(1.25, 1.75),
        Radical(Fraction(-1, 3), (Fraction(2), Fraction(3))),
        2.75,
        Radical(Fraction(3, 2), (Fraction(5),)),
    ])
    def test_json_round_trip(self, value):
        again = scalar_from_json(scalar_to_json(value))
        assert again == value

    @pytest.mark.parametrize("value", [
        Fraction(10 ** 5000, 3),
        Radical(Fraction(1, 10 ** 5000), (Fraction(5),)),
    ], ids=["fraction", "radical"])
    def test_json_refuses_values_past_the_digit_limit(self, value):
        # the interpreter's limit stays: it guards parsing untrusted JSON
        with pytest.raises(ModeUnsupportedError,
                           match="certificate format cannot carry"):
            scalar_to_json(value)


class TestSmallMatrix:

    def test_det3_known(self):
        m = [[Fraction(2), 0, 0], [0, Fraction(3), 0], [0, 0, Fraction(5)]]
        assert det3(m) == 30

    def test_only_3x3(self):
        with pytest.raises(ValueError):
            cramer_solve3([[Fraction(1), 0, 0, 0]] * 3, (1, 0, 0))
        with pytest.raises(ValueError):
            cramer_solve3([[Fraction(1), 0, 0]] * 2, (1, 0, 0))

    @pytest.mark.parametrize("rhs", [(1, 0), (1, 0, 0, 0)])
    def test_each_right_hand_side_has_three_entries(self, rhs):
        identity = [[Fraction(int(i == j)) for j in range(3)]
                    for i in range(3)]
        with pytest.raises(ValueError, match="rhs must have 3 entries"):
            cramer_solve3(identity, (0, 1, 0), rhs)

    @given(entries=st.lists(rationals, min_size=9, max_size=9))
    @settings(max_examples=40)
    def test_det_transpose_invariance(self, entries):
        rows = [entries[0:3], entries[3:6], entries[6:9]]
        cols = [[rows[j][i] for j in range(3)] for i in range(3)]
        assert det3(rows) == det3(cols)

    @given(entries=st.lists(rationals, min_size=9, max_size=9),
           rhs=st.lists(rationals, min_size=3, max_size=3))
    @settings(max_examples=40)
    def test_cramer_solves_exactly(self, entries, rhs):
        rows = [entries[0:3], entries[3:6], entries[6:9]]
        if det3(rows) == 0:
            with pytest.raises(SingularSystemError):
                cramer_solve3(rows, tuple(rhs))
            return
        det, x = cramer_solve3(rows, tuple(rhs))
        assert det == det3(rows)
        for i in range(3):
            assert sum(rows[i][j] * x[j] for j in range(3)) == rhs[i]

    @staticmethod
    def _cofactor_route(m, *rhs):
        """cramer_solve3 as the cofactor expansion on the entries gives it."""
        def replaced(j, b):
            return [[b[i] if c == j else m[i][c] for c in range(3)]
                    for i in range(3)]
        d = det3(m)
        if not excludes_zero(d):
            raise SingularSystemError(
                "3x3 weight system is singular (or not certifiably "
                "nonsingular)")
        return (d,) + tuple(tuple(det3(replaced(j, b)) / d for j in range(3))
                            for b in rhs)

    small = st.one_of(st.integers(-9, 9), st.fractions(-50, 50,
                                                       max_denominator=12))

    @seed(45)
    @settings(max_examples=150, deadline=None)
    @given(entries=st.lists(small, min_size=15, max_size=15))
    def test_the_integer_pass_is_the_fraction_route(self, entries):
        m = [entries[0:3], entries[3:6], entries[6:9]]
        rhs = (entries[9:12], entries[12:15])
        exact = [[Fraction(v) for v in row] for row in m]
        try:
            want = self._cofactor_route(exact, *(
                [Fraction(v) for v in b] for b in rhs))
        except SingularSystemError as exc:
            with pytest.raises(SingularSystemError,
                               match=f"^{re.escape(str(exc))}$"):
                cramer_solve3(m, *rhs)
            return
        got = cramer_solve3(m, *rhs)
        assert got == want
        assert all(v.__class__ is Fraction for v in (got[0], *got[1], *got[2]))

    @example([[Fraction(1, 3), 2, -1], [0, Fraction(-5, 7), 4], [3, 0, 0]],
             [0, 1, Fraction(2, 9)], 0)
    @seed(45)
    @settings(max_examples=100, deadline=None)
    @given(m=st.lists(st.lists(small, min_size=3, max_size=3), min_size=3,
                      max_size=3),
           b=st.lists(small, min_size=3, max_size=3), at=st.integers(0, 8))
    def test_an_interval_entry_keeps_the_cofactor_route(self, m, b, at):
        m[at // 3][at % 3] = Interval.exact(m[at // 3][at % 3])
        try:
            want = self._cofactor_route(m, b, [1, 0, 0])
        except SingularSystemError as exc:
            with pytest.raises(SingularSystemError,
                               match=f"^{re.escape(str(exc))}$"):
                cramer_solve3(m, b, [1, 0, 0])
            return
        got = cramer_solve3(m, b, [1, 0, 0])
        for g, w in zip((got[0], *got[1], *got[2]),
                        (want[0], *want[1], *want[2])):
            assert (g.lo, g.hi) == (w.lo, w.hi)

    def test_a_rational_singular_matrix_is_refused(self):
        m = [[1, 2, 3], [Fraction(1, 2), 1, Fraction(3, 2)], [0, 5, -7]]
        with pytest.raises(SingularSystemError, match=r"^3x3 weight system "
                           r"is singular \(or not certifiably nonsingular\)$"):
            cramer_solve3(m, (1, 0, 0))

    @given(entries=st.lists(rationals, min_size=9, max_size=9))
    @settings(max_examples=30)
    def test_regime_agreement(self, entries):
        """Float dets track the exact value; interval dets enclose it."""
        rows = [entries[0:3], entries[3:6], entries[6:9]]
        exact = det3(rows)
        fl = det3([[float(v) for v in r] for r in rows])
        # Cancelation can shrink the det itself, so scale by entry size.
        biggest = max(abs(float(v)) for v in entries)
        scale = max(1.0, biggest ** 3)
        assert abs(fl - float(exact)) / scale < 1e-12
        iv = det3([[Interval.exact(v) for v in r] for r in rows])
        assert Fraction(iv.lo) <= exact <= Fraction(iv.hi)
