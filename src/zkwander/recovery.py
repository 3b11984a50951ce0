"""From reduced quantities back to explicit generator coefficients.

Given the solved system (E, G), squared moduli d_i, and free scalars Z_3,
Z_1 > 0, A_15 != 0, the engineered pair is

    a_i     = sqrt(d_i)                       i = 0..3
    a_{k+0} = Z_1 / a_0
    a_{k+i} = E_i Z_1 / a_i                   i = 1..3
    b_0     = a_0 A_15 Z_3 / Z_1
    b_i     = a_i A_15 / Z_1 (Z_3 - D_i),     D_i = -G_i/E_i

Every coefficient is real.  In the rational regime the square roots are
carried exactly by ``Radical``; every inner product the verifier forms then
collapses to a plain rational.  The normalizing choice
A_15^2 = Z_1 / |C_1 Z_3 - C_3/2| makes |A_15 A_12| = 1, which is the scaling
the published constants use; the contraction ratio does not depend on A_15.
"""

from __future__ import annotations

from decimal import localcontext
from fractions import Fraction

from .errors import (DegeneratePairError, NoAdmissibleSystemError,
                     RegisterTooLargeError)
from .model import AQuantities, GeneratorPair, orthogonality_relations
from .record import Record, store
from .reduction import (CQuantities, ReducedSystem, compute_C, objective_B0,
                        objective_B1, pivot, pivot_modulus, split_e,
                        z3_quadratic)
from .scalars import (DECIMAL, agreement, as_coefficient, certainly_positive,
                      display, excludes_zero, is_exact_zero, refuse_foreign,
                      refuse_irrational, round_significant, sqrt,
                      strictly_less, to_decimal, to_regime)
from .weights import weight


class RecoveredParameters(Record):
    __slots__ = ("rs", "c", "z3", "z1", "a15", "pair")

    def __init__(self, rs, c, z3, z1, a15, pair):
        store(self, "rs", rs)
        store(self, "c", c)
        store(self, "z3", z3)
        store(self, "z1", z1)
        store(self, "a15", a15)
        store(self, "pair", pair)   # registers zero until attach_register

    @property
    def regime(self) -> str:
        return self.rs.regime


def choose_Z3(c: CQuantities) -> Fraction:
    """Default real Z_3: negative, with C_5/|C_1 Z_3 - C_3/2|^2 < (1-B_1)/2.

    Keeping that ratio under half of 1 - B_1 guarantees the minimized B_0
    stays below 1 (B_0^2 <= B_1 (1 + C_5/|..|^2) < B_1 + (1-B_1) = 1).
    Z_3 = (C_3/2 - m sqrt(2 C_5/(1-B_1))) / C_1 rounded to three digits, for
    the first margin m = 2, 4, ..., 2**17 whose rounded value clears the rule.
    Each value is read once with ``to_decimal`` and combined in ``DECIMAL``.
    """
    b1 = to_decimal(objective_B1(c))
    if b1 >= 1:
        raise NoAdmissibleSystemError(
            f"B_1 = {b1:.6g} >= 1; no Z_3 can rescue this point")
    c1, c3, c5 = map(to_decimal, (c.C1, c.C3, c.C5))
    with localcontext(DECIMAL):
        bound = (c5 * 2 / (1 - b1)).sqrt()
        for margin in (2 ** n for n in range(1, 18)):
            x = round_significant((c3 / 2 - margin * bound) / c1, 3)
            # confirm the rounded value still clears the margin rule
            lhs = c5 / to_decimal(pivot_modulus(c, x)) ** 2
            if lhs < (1 - b1) / 2:
                return x
    raise NoAdmissibleSystemError(
        f"no rounded Z_3 clears the margin rule up to margin {margin}")


def choose_A15(rs: ReducedSystem, c: CQuantities, z3, z1):
    """Positive A_15 with A_15^2 = Z_1 / |C_1 Z_3 - C_3/2|."""
    return sqrt(to_regime(z1 / pivot_modulus(c, z3), rs.regime))


def recover(rs: ReducedSystem, d, z3=None, z1=None, a15=None) -> RecoveredParameters:
    """Build the engineered generator pair at the point d.

    Z_3 defaults to ``choose_Z3``; Z_1, in every regime, to the minimizer
    sqrt(e_0/e_1), read with ``to_decimal`` and rounded to 9 digits (any
    positive Z_1 keeps the relations, only the reported ratio moves); A_15
    to the normalizing root.  None of these choices passes through a
    double.  A given value is read as ``attach_register`` reads a register,
    but an irrational Z_3 or Z_1 is refused, and A_15 must be nonzero
    exactly or by an enclosure that excludes 0.
    """
    regime = rs.regime
    refuse_foreign(regime, (z3, z1, a15))
    refuse_irrational((("Z_3", z3), ("Z_1", z1)))
    z3, z1, a15 = (v if v is None else as_coefficient(v)
                   for v in (z3, z1, a15))
    c = compute_C(rs, d)
    if z3 is None:
        z3 = to_regime(choose_Z3(c), regime)
    if z1 is None:
        e0, e1 = split_e(c, z3)
        z1 = to_regime(round_significant(DECIMAL.sqrt(to_decimal(e0 / e1))),
                       regime)
    if not certainly_positive(z1):
        raise ValueError("Z_1 must be positive")
    if a15 is None:
        a15 = choose_A15(rs, c, z3, z1)
    if not excludes_zero(a15):
        raise DegeneratePairError("A_15 must be nonzero")

    dd = c.d
    a_low = tuple(sqrt(dd[i]) for i in range(4))
    a_high = (z1 / a_low[0],) + tuple(
        rs.E[i - 1] * z1 / a_low[i] for i in (1, 2, 3))
    scale = a15 / z1
    b_low = (a_low[0] * scale * z3,) + tuple(
        a_low[i] * scale * (z3 - rs.D[i - 1]) for i in (1, 2, 3))
    pair = GeneratorPair(pattern=rs.pattern, a_low=a_low, a_high=a_high,
                         b_low=b_low)
    return RecoveredParameters(rs=rs, c=c, z3=z3, z1=z1, a15=a15, pair=pair)


def level1_block(params: RecoveredParameters, a_reg=Fraction(0),
                 b_reg=Fraction(0)) -> AQuantities:
    """The level-1 block of the pair with registers (a_reg, b_reg), from the
    reduction alone; the closed form of the block that
    ``orthogonality_relations`` sums for ``params.pair`` so registered:

      A_11 = 0
      A_12 = (A_15/Z_1)(C_1 Z_3 - C_3/2)
      A_13 = C_1 + Z_1^2 C_2 + a_reg^2 w_{k+gamma_4}
      A_14 = (A_15^2/Z_1^2)(C_1 Z_3^2 - C_3 Z_3 + C_4) + b_reg^2 w_{k+gamma_5}
      A_15 = A_15

    Only the register terms are formed per call; ``_register_free`` holds
    the rest.
    """
    a1, a2, a3, a4, w4, w5, _ = _register_free(params)
    return AQuantities(A1=a1, A2=a2, A3=a3 + a_reg * a_reg * w4,
                       A4=a4 + b_reg * b_reg * w5, A5=params.a15)


def cross_check(params: RecoveredParameters) -> dict:
    """Reduction identities vs the slot sums, on the core pair: the level-1
    block of ``orthogonality_relations``, summed over the pair's slot rows,
    against the ``level1_block`` one, and its contraction ratio c against
    B_0(C; Z_3, Z_1).

    Exact equality for exact values; enclosures agree when they meet.
    """
    core = params.pair.with_registers(Fraction(0), Fraction(0))
    q1 = orthogonality_relations(core, params.rs.seq, params.regime)[0]
    pred = level1_block(params)
    gap, coupling = q1.contraction_sides()
    report = {
        "A13_from_C": agreement(q1.A3, pred.A3),
        "A14_from_C": agreement(q1.A4, pred.A4),
        "A12_sq_from_C": agreement(q1.A2 * q1.A2, pred.A2 * pred.A2),
        "A15_engineered": agreement(q1.A5, pred.A5),
        "c_equals_B0": agreement(gap / abs(coupling),
                                 objective_B0(params.c, params.z3, params.z1)),
    }
    report["all_equal"] = all(v["equal"] for v in report.values())
    return report


def max_register_estimate(params: RecoveredParameters) -> Fraction:
    """Largest common |a4| = |b5| magnitude keeping the inequality strict,
    solved from the quadratic in t^2 (exact for symmetric registers) in
    ``DECIMAL``, whose exponents do not run out as the values scale with
    A_15^2; 0 when no register fits."""
    return _free_sides(params)[2]


_free = [(None, None)]  # (last params asked, held so its id stays; parts)


def _register_free(params: RecoveredParameters) -> list:
    """The register-free parts of the level-1 block, formed once per
    recovery: [A_11, A_12, C_1 + Z_1^2 C_2, (A_15/Z_1)^2 (C_1 Z_3^2 - C_3 Z_3
    + C_4), w_{k+gamma_4}, w_{k+gamma_5}, ``_free_sides`` once asked].
    level1_block adds a_reg^2 w_{k+gamma_4} and b_reg^2 w_{k+gamma_5} last,
    as the closed form's sums do, so no enclosure bit moves."""
    held, parts = _free[0]
    if held is not params:
        c, z3, z1, rs = params.c, params.z3, params.z1, params.rs
        scale = params.a15 / z1
        parts = [to_regime(Fraction(0), rs.regime), scale * pivot(c, z3),
                 c.C1 + z1 * z1 * c.C2, scale * scale * z3_quadratic(c, z3),
                 *(weight(rs.seq, rs.pattern.k + g, rs.regime)
                   for g in rs.pattern.register_degrees), None]
        _free[0] = params, parts
    return parts


def _free_sides(params: RecoveredParameters) -> tuple:
    """(gap, |coupling|, max_register_estimate) of the register-free
    level-1 block, held with its parts."""
    parts = _register_free(params)
    if parts[6] is None:
        q1 = level1_block(params)
        gap, coupling = q1.contraction_sides()
        parts[6] = gap, abs(coupling), _register_estimate(
            parts[4:6], q1, abs(coupling) - gap)
    return parts[6]


def _register_estimate(weights, q1: AQuantities, slack) -> Fraction:
    """max_register_estimate from the register weights, the register-free
    block q1 and its slack."""
    if not certainly_positive(slack):
        return Fraction(0)
    s, w4, w5, a13, a14 = map(to_decimal, (slack, *weights, q1.A3, q1.A4))
    # slack > u beta + u^2 w4 w5, u = t^2, beta = w4 a14 + w5 a13; the root
    # is subtraction-free, as beta^2 can dwarf the slack
    with localcontext(DECIMAL):
        beta = w4 * a14 + w5 * a13
        u = 2 * s / (beta + (beta * beta + 4 * w4 * w5 * s).sqrt())
        return Fraction(u.sqrt())


def attach_register(params: RecoveredParameters, a_reg, b_reg) -> RecoveredParameters:
    """Set the register coefficients and re-check the strict inequality.
    ``refuse_foreign`` refuses what the regime cannot multiply (a float in
    the rational regime); ``as_coefficient`` reads the rest."""
    refuse_foreign(params.regime, (a_reg, b_reg))
    a_reg, b_reg = as_coefficient(a_reg), as_coefficient(b_reg)
    gap, coupling = level1_block(params, a_reg, b_reg).contraction_sides()
    if not strictly_less(gap, abs(coupling)):
        est = max_register_estimate(params)
        raise RegisterTooLargeError(
            f"registers |a4|={display(abs(a_reg))}, "
            f"|b5|={display(abs(b_reg))} break the strict "
            f"inequality; max common magnitude ~ {to_decimal(est):.3g}", est)
    return RecoveredParameters(params.rs, params.c, params.z3, params.z1,
                               params.a15,
                               params.pair.with_registers(a_reg, b_reg))


def auto_register(params: RecoveredParameters):
    """Register magnitude policy: 1 when admissible, else half the estimate;
    none when the strict inequality fails, or is tight, with no register."""
    gap, rhs, est = _free_sides(params)
    if not strictly_less(gap, rhs):
        how = "is tight" if is_exact_zero(gap - rhs) else "fails"
        raise DegeneratePairError(
            f"no admissible register: A_13 A_14 - A_12^2 < |A_15 A_12| {how} "
            f"before any register is attached, c = {display(gap / rhs)}")
    if est > 1:
        return Fraction(1)
    return round_significant(est / 2, 3)
