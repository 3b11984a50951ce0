"""Scalar regimes and the small linear algebra kernel.

Two regimes run through the whole package, both with real scalars:

* ``rational``  -- exact ``fractions.Fraction`` arithmetic (bigint backed).
  The only regime allowed to assert exact equalities.
* ``interval``  -- closed float intervals with outward rounding via
  ``math.nextafter``: pure Python has no directed rounding, so every endpoint
  operation is widened by one step, at one ulp per operation.  ``Interval``
  builds results through its slot setters, and a product of finite
  nonnegative intervals from two endpoint products, not four.  A non-integer
  power b**(p/q) is enclosed around its nearest double, which exact integer
  comparisons of q-th powers prove; q is bounded by MAX_ALPHA_DENOMINATOR.
  ``power`` proves each interval weight once, in a bounded memo.

Irrational algebraic values (square roots of positive rationals) appear in
recovered coefficients; ``Radical`` keeps them exact as c * sqrt(r1*...*rn)
with rational c and rational root atoms.  A ``Radical`` always has an atom
and a nonzero coefficient: arithmetic that cancels every atom returns a plain
``Fraction``, so the inner products the verifier forms come back as plain
rationals.

Every choice that depends on the regime is made here, mostly by the type of
the scalar: powers and square roots, the zero and sign tests with their
evidence, the refusal of an unknown regime, the scalar types a regime
refuses, and display.  The modules above never branch on it
(tests/test_hygiene.py checks that).  ``to_decimal`` reads an exact value,
or an interval's midpoint, into a ``decimal`` context with no exponent
range to leave; recovery chooses its free scalars there.

Determinants of the 3x3 weight matrix are taken by cofactor expansion.
Entries span ~50 orders of magnitude, which would destroy float pivoting
anyway; exact or interval entries make expansion the right tool.  Rational
rows are first scaled to integers, so the exact solve normalises a
Fraction once per unknown, not at every step.
"""

from __future__ import annotations

import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import ModeUnsupportedError, SingularSystemError
from .record import Record, slot_setters, store

RATIONAL = "rational"
INTERVAL = "interval"
REGIMES = (RATIONAL, INTERVAL)

_INF, _NINF, _next = math.inf, -math.inf, math.nextafter


def _down(x: float) -> float:
    return _next(x, _NINF)


def _up(x: float) -> float:
    return _next(x, _INF)


class Interval(Record):
    """Closed interval [lo, hi] of doubles; all operations round outward.

    An operation coerces only an operand that is not already an Interval
    (an int, Fraction or float, through ``exact``), and builds its result
    through ``_interval``, the one constructor of results: it sets the slot
    descriptors and keeps the endpoint guard, refusing NaN and inverted
    endpoints, without the checks on caller input of ``Interval(lo, hi)``.

    [a, b] * [c, d] with a, c >= 0 and b, d finite is [down(a c), up(b d)]:
    no product is NaN and rounding is monotone, so a c is the least of the
    four and b d the greatest, and a signed zero does not survive the
    step.  An infinite end takes all four: b d could be inf * 0 = NaN.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        # a bool is an int to Python, but no endpoint
        if (isinstance(lo, bool) or isinstance(hi, bool) or math.isnan(lo)
                or math.isnan(hi) or lo > hi):
            raise ValueError(f"bad interval endpoints [{lo}, {hi}]")
        store(self, "lo", lo)
        store(self, "hi", hi)

    @classmethod
    def exact(cls, value) -> "Interval":
        """Tight enclosure of an int, Fraction or float; a rational past
        the largest double raises ModeUnsupportedError."""
        if isinstance(value, Interval):
            return value
        if isinstance(value, float):
            return _interval(value, value)
        if value.__class__ is int and -2 ** 53 <= value <= 2 ** 53:
            return _interval(float(value), float(value))    # exact
        q = Fraction(value)
        try:
            f = float(q)
        except OverflowError as exc:
            raise ModeUnsupportedError(
                "a rational past the largest double has no interval "
                "enclosure; use the rational regime") from exc
        if f.as_integer_ratio() == (q.numerator, q.denominator):
            return _interval(f, f)      # the conversion was exact
        return _interval(_down(f), _up(f))

    # -- queries ---------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def is_positive(self) -> bool:
        return self.lo > 0.0

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Interval and (
                other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _interval(_next(self.lo + other.lo, _NINF),
                         _next(self.hi + other.hi, _INF))

    __radd__ = __add__

    def __neg__(self):
        return _interval(-self.hi, -self.lo)

    def __sub__(self, other):
        if other.__class__ is not Interval and (
                other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _interval(_next(self.lo - other.hi, _NINF),
                         _next(self.hi - other.lo, _INF))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _interval(_down(other.lo - self.hi), _up(other.hi - self.lo))

    def __mul__(self, other):
        if other.__class__ is not Interval and (
                other := _coerce(other)) is NotImplemented:
            return NotImplemented
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a >= 0.0 and c >= 0.0 and b < _INF and d < _INF:
            return _interval(_next(a * c, _NINF), _next(b * d, _INF))
        ps = (a * c, a * d, b * c, b * d)
        return _interval(_next(min(ps), _NINF), _next(max(ps), _INF))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not Interval and (
                other := _coerce(other)) is NotImplemented:
            return NotImplemented
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if c <= 0.0 <= d:
            raise ZeroDivisionError("interval divisor encloses zero")
        ps = (a / c, a / d, b / c, b / d)
        return _interval(_next(min(ps), _NINF), _next(max(ps), _INF))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __abs__(self):
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return _interval(0.0, max(-self.lo, self.hi))

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise ValueError("sqrt of an interval reaching below zero")
        # math.sqrt is correctly rounded, one outward step suffices
        return _interval(_down(math.sqrt(self.lo)), _up(math.sqrt(self.hi)))

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"


_new_interval = object.__new__
_set_lo, _set_hi = slot_setters(Interval)


def _interval(lo: float, hi: float) -> Interval:
    """The Interval [lo, hi] of computed endpoints; NaN or lo > hi fails
    the one comparison and raises as Interval(lo, hi) does."""
    if not lo <= hi:
        raise ValueError(f"bad interval endpoints [{lo}, {hi}]")
    iv = _new_interval(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    return iv


def _coerce(value):
    """A non-Interval operand as an Interval, NotImplemented if foreign."""
    if isinstance(value, (int, float, Fraction)):
        return Interval.exact(value)
    return NotImplemented


# largest denominator of an interval exponent: the proof of a power takes
# q-th powers of doubles, a few ms per power at q = 1000 (alpha = -4.999)
MAX_ALPHA_DENOMINATOR = 10 ** 3


def _nearest_power(b: Fraction, e: Fraction) -> float:
    """The double nearest to b**e (ties to even), b > 0, proved: for e = p/q
    and x > 0, x <= b**e exactly when x**q <= b**p.  From the float power,
    corrected to first order for the rounding of e, it steps by ulps until
    b**e lies between the midpoints to the neighbours.  0.0 or inf, not
    proved, where the float power underflows or overflows."""
    try:
        r = float(b) ** float(e)
        r *= 1 + float(e - Fraction(float(e))) * math.log(b)
    except OverflowError:
        return _INF
    if r in (0.0, _INF):            # b**p may be too large to form
        return r
    q, (num, den) = e.denominator, (b ** e.numerator).as_integer_ratio()

    def rounds_down(u: float, v: float) -> bool:
        # b**e rounds to u, not to its upper neighbour v: mid**q > b**p at
        # their midpoint mid = m / 2d (d a power of two), or = with u even
        m, d = (Fraction(u) + Fraction(v)).as_integer_ratio()
        lhs, rhs = m ** q * den, num << d.bit_length() * q
        return lhs > rhs or lhs == rhs and u / math.ulp(u) % 2 == 0

    while r > 0.0 and rounds_down(_down(r), r):
        r = _down(r)
    while _up(r) < _INF and not rounds_down(r, _up(r)):
        r = _up(r)
    return r


def power_interval(base, exponent) -> Interval:
    """Enclosure of base**exponent, base > 0 and the exponent's denominator
    <= MAX_ALPHA_DENOMINATOR: the proved nearest double, two ulps out on
    each side.  A power that rounds to 0 or past the largest double, or a
    base outside the normal doubles, raises ModeUnsupportedError."""
    b, e = Fraction(base), Fraction(exponent)
    if b <= 0:
        raise ValueError("power_interval needs a positive base")
    if e.denominator > MAX_ALPHA_DENOMINATOR:
        raise ModeUnsupportedError(f"an interval power needs a denominator <= "
                                   f"{MAX_ALPHA_DENOMINATOR}, got {e}")
    r = (_nearest_power(b, e)
         if sys.float_info.min <= b <= sys.float_info.max else 0.0)
    if r == 0.0 or _up(_up(r)) == _INF:
        raise ModeUnsupportedError(
            f"{base}^({exponent}) has no interval enclosure: it or its base "
            "lies outside the range of doubles")
    return _interval(_down(_down(r)), _up(_up(r)))


def power(base: int, exponent: Fraction, regime: str):
    """base**exponent, base >= 1 an integer: exact in the rational regime,
    which needs an integer exponent, else an enclosure; an enclosure past
    the range of doubles raises ModeUnsupportedError."""
    if regime == INTERVAL:
        return _power_enclosure(base, exponent.numerator, exponent.denominator)
    check_regime(regime)
    if exponent.denominator != 1:
        raise ModeUnsupportedError(
            f"rational regime needs an integer exponent, got alpha={exponent}")
    a = exponent.numerator
    return Fraction(base ** a) if a >= 0 else Fraction(1, base ** (-a))


@lru_cache(maxsize=4096)
def _power_enclosure(base: int, num: int, den: int) -> Interval:
    """The interval power base**(num/den), proved once per (base, exponent)
    in a process.  The key holds the exponent's integers, not the Fraction:
    hashing a Fraction costs a modular inverse on every hit.  A refusal is
    not cached: it raises again on every call.  Exact powers are not
    memoized: they are cheap, and one can be megabytes."""
    if den != 1:
        v = power_interval(base, Fraction(num, den))
    elif abs(num) * math.log2(base) > 1100:
        # outside the doubles (2^-1074 .. 2^1024), so refused below just
        # as 2^(+-1100) is; base ** num would take seconds at |num| ~ 1e6
        v = Interval.exact(Fraction(2) ** (1100 if num > 0 else -1100))
    else:
        v = Interval.exact(Fraction(base) ** num)
    if not v.is_positive():
        raise ModeUnsupportedError(
            f"{base}^({Fraction(num, den)}) is not certifiably positive in "
            "the interval regime (underflow)")
    return v


_ONE = Fraction(1)     # the coefficient of every Radical.sqrt


class Radical(Record):
    """Exact c * sqrt(r_1) * ... * sqrt(r_n), c != 0 rational, n >= 1 atoms.

    Root atoms are kept as the original rationals (not multiplied out), so a
    product of two values sharing an atom cancels that atom exactly without
    any integer factoring.  A product finds its shared atoms by comparing
    atoms, never by hashing them: hashing a Fraction costs a modular
    inverse.  Normal form: atoms sorted, distinct, positive and none of
    them a rational square.  ``sqrt`` and the JSON decoder establish it
    and every operation keeps it; a result with no atom left, or with a
    zero coefficient, is a plain ``Fraction``.  Atoms are not factored, so
    distinct atoms whose product is a square (sqrt(2) sqrt(8)) stay a
    Radical.  The constructor trusts its caller.
    """

    __slots__ = ("coeff", "roots")

    def __init__(self, coeff: Fraction, roots: tuple):
        store(self, "coeff", coeff)
        store(self, "roots", roots)

    @classmethod
    def sqrt(cls, value):
        """Exact square root of a nonnegative rational; a Fraction when the
        root is rational.  A Fraction is kept as the atom, not copied, and
        every result shares one coefficient 1."""
        q = value if value.__class__ is Fraction else Fraction(value)
        if q < 0:
            raise ValueError("sqrt of a negative rational")
        num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
        if num * num == q.numerator and den * den == q.denominator:
            return Fraction(num, den)
        return cls(_ONE, (q,))

    def __float__(self) -> float:
        # atom by atom while every atom and partial product is a normal
        # double; else the root of the exact square, rounded once
        try:
            out = _normal(float(self.coeff))
            for r in self.roots:
                out = _normal(out * math.sqrt(_normal(float(r))))
            return out
        except OverflowError:       # float(self.coeff) may raise it too
            out = _sqrt_double(self.coeff * self.coeff * math.prod(self.roots))
            return -out if self.coeff < 0 else out

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Radical(self.coeff * other, self.roots) if other else Fraction(0)
        if not isinstance(other, Radical):
            return NotImplemented
        shared, roots = _split_atoms(self.roots, other.roots)
        coeff = math.prod(shared, start=self.coeff * other.coeff)
        return Radical(coeff, roots) if roots else coeff

    __rmul__ = __mul__

    def __neg__(self):
        return Radical(-self.coeff, self.roots)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) and other == 0:
            return self
        if isinstance(other, Radical) and other.roots == self.roots:
            coeff = self.coeff + other.coeff
            return Radical(coeff, self.roots) if coeff else Fraction(0)
        if isinstance(other, (int, Fraction, Radical)):
            raise ModeUnsupportedError(
                f"cannot add radicals with different root atoms: {self!r} + {other!r}")
        return NotImplemented

    __radd__ = __add__

    def _inverse(self) -> "Radical":
        # 1 / (c sqrt(r1..rn)) = (1 / (c r1..rn)) sqrt(r1..rn)
        prod = self.coeff
        for r in self.roots:
            prod *= r
        return Radical(1 / prod, self.roots)

    def __truediv__(self, other):
        if isinstance(other, Radical):
            return self * other._inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._inverse() * other
        return NotImplemented

    def __abs__(self):
        return Radical(abs(self.coeff), self.roots)

    def __repr__(self):
        tail = "*".join(f"sqrt({r})" for r in self.roots)
        return f"Radical({self.coeff}*{tail})"


def _split_atoms(mine: tuple, theirs: tuple) -> tuple:
    """(the atoms two sorted atom tuples share, the sorted rest): as
    sqrt(r) sqrt(r) = r, the shared ones leave the root of a product."""
    if mine == theirs:
        return mine, ()
    shared = [r for r in mine if r in theirs]
    rest = [r for r in mine + theirs if r not in shared]
    return shared, tuple(sorted(rest))


def _normal(x: float) -> float:
    """x when it is a normal double, else OverflowError: out of range."""
    if not sys.float_info.min <= abs(x) <= sys.float_info.max:
        raise OverflowError(f"{x!r} is not a normal double")
    return x


def _sqrt_double(q: Fraction) -> float:
    """sqrt(q), q > 0 a rational of any size, as a double: the integer root
    of q scaled by an even power of two, 64 bits or more, rounded once.
    OverflowError past the largest double, as float(q) raises."""
    half = (129 - q.numerator.bit_length() + q.denominator.bit_length()) // 2
    return float(math.isqrt(math.floor(q * Fraction(4) ** half))
                 / Fraction(2) ** half)


def _left_to_right(terms: Sequence[tuple]):
    """The sum of the products x y w, formed and added one at a time."""
    total = None
    for x, y, w in terms:
        total = x * y * w if total is None else total + x * y * w
    return total


def sum_of_products(terms: Sequence[tuple]):
    """x_1 y_1 w_1 + x_2 y_2 w_2 + ... over nonempty (x, y, w) terms, w a
    weight, as the left-to-right sum of the products gives it.  A factor
    that is not exact, an Interval above all, selects that loop, so no
    enclosure bit moves.  Exact terms are summed in one integer pass: a
    product's numerator and denominator are plain ints, with the atoms its
    factors share moved in, and the sum over the lcm of the denominators
    is normalised once.  A zero product drops out, as 0 + x does; atoms
    unlike a nonzero partial sum's raise ModeUnsupportedError, as
    Radical.__add__ does."""
    parts = []
    for term in terms:
        num, den, roots = 1, 1, ()
        for v in term:
            if v.__class__ is Radical:
                shared, roots = (_split_atoms(roots, v.roots) if roots
                                 else ((), v.roots))
                for r in shared:
                    num, den = num * r.numerator, den * r.denominator
                v = v.coeff
            elif v.__class__ is not Fraction and v.__class__ is not int:
                return _left_to_right(terms)
            num, den = num * v.numerator, den * v.denominator
        if num:
            parts.append((num, den, roots))
    lcm = math.lcm(*(den for _, den, _ in parts))
    total, atoms = 0, ()
    for num, den, roots in parts:
        if total and roots != atoms:
            raise ModeUnsupportedError("cannot add radicals with different "
                                       f"root atoms: {atoms} and {roots}")
        total, atoms = total + num * (lcm // den), roots
    q = Fraction(total, lcm)
    return Radical(q, atoms) if total and atoms else q


# ---------------------------------------------------------------------------
# generic scalar helpers

def check_regime(regime) -> None:
    """Raise ValueError unless regime is one of REGIMES."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")


def _exact_evidence(x) -> dict:
    """The evidence of an exact value; a float proves nothing: refused."""
    if isinstance(x, float):
        raise ModeUnsupportedError(
            "floats locate, they do not prove: certify in the rational or "
            "interval regime")
    return {"exact": True, "value": scalar_to_json(x)}


def is_exact_zero(x) -> bool:
    if isinstance(x, Interval):
        return x.lo == 0.0 and x.hi == 0.0
    return x == 0


def zero_evidence(x) -> tuple:
    """(x = 0 proved, the evidence as a JSON dict).

    Exact for rational and Radical values.  An interval proves 0 only as
    the point [0, 0]: containing 0 does not prove that the value is 0.  A
    float is refused, never recorded as exact.
    """
    if isinstance(x, Interval):
        return is_exact_zero(x), {"contains_zero": x.contains_zero(),
                                  "width": x.width}
    return is_exact_zero(x), _exact_evidence(x)


def excludes_zero(x) -> bool:
    """x != 0 as far as the regime can tell; an interval must not contain 0."""
    if isinstance(x, Interval):
        return not x.contains_zero()
    return not is_exact_zero(x)


def nonzero_evidence(x) -> tuple:
    """(x != 0 proved, the evidence as a JSON dict); a float is refused."""
    ok = excludes_zero(x)
    if isinstance(x, Interval):
        return ok, {"excludes_zero": ok}
    return ok, _exact_evidence(x)


def agreement(x, y) -> dict:
    """Whether x and y agree: exactly for exact values, as equal squares (a
    square takes the radical away) and equal signs; with an interval, when
    the enclosures meet, as two enclosures of one real number always do."""
    if isinstance(x, Interval) or isinstance(y, Interval):
        return {"equal": (x - y).contains_zero(), "exact": False}
    return {"equal": (x * x == y * y and certainly_positive(x)
                      == certainly_positive(y)), "exact": True}


def certainly_positive(x) -> bool:
    """Certified x > 0; an interval must lie strictly above 0, and a Radical
    has the sign of its coefficient, its root atoms being positive."""
    if isinstance(x, Interval):
        return x.is_positive()
    if isinstance(x, Radical):
        return x.coeff > 0
    return x > 0


def sqrt(x):
    """Square root in the regime of x: an outward enclosure for Interval,
    and exact for rational input: a Radical, or a Fraction when the root is
    rational."""
    if isinstance(x, Interval):
        return x.sqrt()
    if isinstance(x, Radical):
        raise ModeUnsupportedError(f"no exact square root of {x!r}")
    return Radical.sqrt(x)


def strictly_less(a, b) -> bool:
    """Certified a < b; for intervals compares outer endpoints.  Ordering
    an irrational Radical is not supported."""
    if isinstance(a, Interval) or isinstance(b, Interval):
        return Interval.exact(a).hi < Interval.exact(b).lo
    if isinstance(a, Radical) or isinstance(b, Radical):
        raise ModeUnsupportedError(f"cannot order irrational {a!r} < {b!r}")
    return a < b


# scalar types each regime's arithmetic cannot multiply; all are real
_FOREIGN = {RATIONAL: ((float, complex, Interval), "exact coefficients"),
            INTERVAL: ((Radical, complex), "rational, float or interval "
                       "coefficients")}


def refuse_foreign(regime: str, values) -> None:
    """Raise ModeUnsupportedError on a value the regime cannot multiply."""
    foreign, need = _FOREIGN[regime]
    for v in values:
        if isinstance(v, foreign):
            raise ModeUnsupportedError(
                f"{regime} regime needs {need} (got {type(v).__name__})")


def refuse_irrational(named) -> None:
    """Refuse, by name, an irrational value among (name, value) pairs of
    free scalars that meet the reduction's rationals in a sum (Z_3, Z_1)."""
    for name, v in named:
        if isinstance(v, Radical):
            raise ModeUnsupportedError(
                f"{name} cannot be irrational, got {display(v)}")


def to_regime(q, regime: str):
    """Convert an exact rational into the given regime."""
    check_regime(regime)
    return Fraction(q) if regime == RATIONAL else Interval.exact(q)


def to_float(x) -> float:
    if isinstance(x, Interval):
        return x.mid
    return float(x)


@lru_cache(maxsize=16)
def _decimal_context(digits: int) -> Context:
    return Context(prec=digits, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN,
                   Emax=MAX_EMAX)


DECIMAL = _decimal_context(20)


def to_decimal(x, digits: int = 20) -> Decimal:
    """An exact value (a Fraction, int, float or Decimal), or an interval's
    midpoint, correctly rounded half-even to digits significant digits: a
    double with no exponent range to leave.  ``DECIMAL`` is the 20-digit
    context its values are combined in."""
    context = _decimal_context(digits)
    if isinstance(x, Interval):
        return context.plus(Decimal(x.mid))
    n, d = x.as_integer_ratio()
    return context.divide(n, d)


def round_significant(x, digits: int = 9) -> Fraction:
    """x rounded half-even to digits significant digits, as a Fraction."""
    return Fraction(to_decimal(x, digits))


def as_coefficient(v):
    """A coefficient as a caller gives it: an Interval or a Radical as it
    is, anything else through ``to_rational``.  ``refuse_foreign`` says
    first which of these a regime refuses."""
    if isinstance(v, (Interval, Radical)):
        return v
    return to_rational(v)


def display(x) -> str:
    """A float as its repr, an interval as [lo, hi], an exact value as its
    nearest double or, past the largest double or a nonzero one below the
    smallest, as ~m.mmmmmme+N or ~m.mmmmmme-N."""
    if isinstance(x, (float, Interval)):
        return repr(x)
    try:
        near = to_float(x)
    except OverflowError:
        near = math.inf
    if math.isfinite(near) and (near or not x):
        return repr(near)
    square = x * x                  # a Fraction, for a Radical too
    exponent = (math.log10(square.numerator)
                - math.log10(square.denominator)) / 2
    whole = math.floor(exponent)
    mantissa, shift = f"{10 ** (exponent - whole):.6e}".split("e")
    sign = "-" if (x.coeff if isinstance(x, Radical) else x) < 0 else ""
    return f"~{sign}{mantissa}e{whole + int(shift):+d}"


def _digits(n: int) -> int:
    """The number of decimal digits of the integer n, without str(n)."""
    n = abs(n)
    if not n:
        return 1
    d = math.floor(math.log10(n)) + 1   # may be one off next to 10**k
    if n < 10 ** (d - 1):
        return d - 1
    return d + 1 if n >= 10 ** d else d


def scalar_text(x) -> str:
    """str(x), or for an exact rational past the interpreter's
    integer-string limit its ``display`` and its approximate size; never
    raises."""
    try:
        return str(x)
    except ValueError:
        num, den = (_digits(n) for n in (x.numerator, x.denominator))
        near = display(x).lstrip("~")
        return f"~{near} (exact: ~{num} digits over ~{den})"


def scalar_to_json(x):
    """JSON-encodable form; exact types stay exact (strings), floats numeric.
    An exact value past the interpreter's integer-string limit raises
    ModeUnsupportedError: the limit also guards parsing untrusted JSON, so
    it stays in place."""
    try:
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, Radical):
            return {"rational": str(x.coeff),
                    "roots": [str(r) for r in x.roots]}
    except ValueError as exc:
        raise ModeUnsupportedError(
            "the certificate format cannot carry an exact value with more "
            f"than {sys.get_int_max_str_digits()} digits") from exc
    if isinstance(x, Interval):
        return {"lo": x.lo, "hi": x.hi}
    return x


# root atoms a decoded Radical may carry; recovered coefficients have <= 3
MAX_ROOT_ATOMS = 8


# the largest exponent a rational string may carry: Fraction forms 10**e, so
# "1e99999999" would take minutes; 4300 is the default integer-string limit
_MAX_EXPONENT = 4300


def to_rational(value) -> Fraction:
    """The one reading of a number a caller passes as a rational: a float
    as the decimal its repr prints (0.2 -> 1/5), a string as Fraction reads
    it ("-33/2", "0.25", "-2e13") with an exponent of at most _MAX_EXPONENT,
    anything else as Fraction(value).  Any other string, a float that is
    not finite and a bool, which no caller means as a number, raise
    ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is a bool, not a rational")
    if isinstance(value, float):
        value = repr(float(value))
    try:
        if isinstance(value, str):
            _, e, exponent = value.lower().partition("e")
            if e and abs(int(exponent)) > _MAX_EXPONENT:
                raise ValueError("exponent past _MAX_EXPONENT")
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cannot parse {value!r} as a rational") from exc


def rational_from_json(text) -> Fraction:
    """An exact rational as JSON output writes it, "p" or "p/q".  The
    exponent form that Fraction also reads is refused: "1e99999999" costs
    work far beyond its length."""
    if not isinstance(text, str) or "e" in text.lower():
        raise ValueError(f"not an exact rational string: {text!r}")
    return Fraction(text)


def scalar_from_json(obj):
    if isinstance(obj, str):
        return rational_from_json(obj)
    if isinstance(obj, dict):
        if "roots" in obj:
            # untrusted atoms: rebuild the normal form through Radical.sqrt
            value = rational_from_json(obj["rational"])
            if not isinstance(obj["roots"], list):
                raise ValueError("radical atoms must be a list")
            if len(obj["roots"]) > MAX_ROOT_ATOMS:
                raise ValueError(f"more than {MAX_ROOT_ATOMS} radical atoms")
            for r in obj["roots"]:
                r = rational_from_json(r)
                if r <= 0:
                    raise ValueError("radical atoms must be positive")
                value = Radical.sqrt(r) * value
            return value
        if "lo" in obj:
            return Interval(obj["lo"], obj["hi"])
        raise ValueError(f"unrecognized scalar object {obj!r}")
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return obj                  # a JSON integer stays exact
    raise ValueError(f"unrecognized scalar {obj!r}")


# ---------------------------------------------------------------------------
# 3x3 determinants, matrices given as sequences of rows

def _det2(a, b, c, d):
    return a * d - b * c


def _replace_col(m, j: int, col) -> list:
    return [[col[i] if c == j else m[i][c] for c in range(3)]
            for i in range(3)]


def det3(m: Sequence[Sequence]):
    return (m[0][0] * _det2(m[1][1], m[1][2], m[2][1], m[2][2])
            - m[0][1] * _det2(m[1][0], m[1][2], m[2][0], m[2][2])
            + m[0][2] * _det2(m[1][0], m[1][1], m[2][0], m[2][1]))


def cramer_solve3(m: Sequence[Sequence], *rhs: Sequence) -> tuple:
    """(det m, x_1, x_2, ...) with m x_j = rhs[j], by Cramer's rule taking
    det m once; raises on a (possibly) singular m.

    When every entry, right-hand ones included, is a Fraction or an int,
    row i and its right-hand entries are scaled to integers by the lcm L_i
    of their denominators, so no step normalises a Fraction: with D the
    scaled determinant, det m = D / (L_1 L_2 L_3) and each unknown is one
    Fraction(numerator, D).  Any other entry, an Interval above all, keeps
    the cofactor expansion on the entries themselves."""
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise ValueError("only 3x3 matrices are supported")
    if any(len(b) != 3 for b in rhs):
        raise ValueError("rhs must have 3 entries")
    rational = all(v.__class__ is Fraction or v.__class__ is int
                   for row in (*m, *rhs) for v in row)
    if rational:
        scale = [math.lcm(*(v.denominator
                            for v in (*m[i], *(b[i] for b in rhs))))
                 for i in range(3)]
        m = [[v.numerator * (scale[i] // v.denominator) for v in m[i]]
             for i in range(3)]
        rhs = [[b[i].numerator * (scale[i] // b[i].denominator)
                for i in range(3)] for b in rhs]
    d = det3(m)
    # an interval determinant that straddles zero cannot certify invertibility
    if not excludes_zero(d):
        raise SingularSystemError(
            "3x3 weight system is singular (or not certifiably nonsingular)")
    if rational:
        return (Fraction(d, math.prod(scale)),) + tuple(
            tuple(Fraction(det3(_replace_col(m, j, b)), d) for j in range(3))
            for b in rhs)
    return (d,) + tuple(tuple(det3(_replace_col(m, j, b)) / d
                              for j in range(3)) for b in rhs)
