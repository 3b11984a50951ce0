"""Closed-form reduction of the certificate conditions.

Fixing the weight sequence and degree pattern, the orthogonality relations
force the high coefficients of F_1 to be E_i Z_1 / a_i and the low
coefficients of F_2 to be multiples involving G_i / E_i, where E and G solve

    N_1 E = -(w_{k+g0}, w_{2k+g0}, w_{3k+g0})^T,   N_1 G = (1, 0, 0)^T,

with N_1 the 3x3 matrix (w_{s k + g_i})_{s=1..3, i=1..3}.  With the squared
moduli d_i = |a_i|^2 as free parameters, every remaining quantity collapses
into five positive reals C_1..C_5 and the contraction objectives

    B_2 = 4 C_2 C_4                      (crude, Z_3-free)
    B_1 = 4 C_2 C_5 / C_1                (Z_3 -> infinity limit, scale free)
    B_0 = e_0/Z_1 + e_1 Z_1              (the certified ratio itself)

A value B_0 < 1 at admissible parameters is exactly the strict inequality
the certificate needs.  ``c_values`` holds C_1..C_5 in any arithmetic, the
search's doubles included, as one evaluator of plain values per system
(``c_grid`` yields records over a grid); ``compute_C`` wraps its values in
a regime and a record, and ``b1_value`` is B_1 of the values.

Every scalar is real.  A complex Z_3 would reach nothing more: since
C_1 (C_1 |Z_3|^2 - C_3 Re Z_3 + C_4) = |P|^2 + C_5 with P = C_1 Z_3 - C_3/2,
B_0 and c read Z_3 only through |P|, and the real Z_3 = (C_3/2 - |P|) / C_1
gives the same values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DegenerateReductionError, DegenerateZ3Error
from .model import DegreePattern
from .record import Record, slot_setters, store
from .scalars import (RATIONAL, certainly_positive, check_regime,
                      cramer_solve3, excludes_zero, sqrt, to_rational,
                      to_regime)
from .weights import WeightSequence, weight


def weight_block(seq: WeightSequence, pattern: DegreePattern,
                 regime: str = RATIONAL) -> tuple:
    """The 3x4 block W[s-1][i] = w_{s k + gamma_i}, s = 1..3, i = 0..3, the
    weights at pattern.matrix_indices() row by row; N_1 is its last three
    columns, -W[.][0] the right-hand side for E."""
    w = [weight(seq, t, regime) for t in pattern.matrix_indices()]
    return tuple(tuple(w[4 * s:4 * s + 4]) for s in range(3))


class ReducedSystem(Record):
    __slots__ = ("pattern", "seq", "regime", "W", "det_N1", "E", "G", "H",
                 "D")

    def __init__(self, pattern, seq, regime, W, det_N1, E, G, H, D):
        store(self, "pattern", pattern)
        store(self, "seq", seq)
        store(self, "regime", regime)
        store(self, "W", W)     # weight_block: W[s-1][i] = w_{s k + gamma_i}
        store(self, "det_N1", det_N1)
        store(self, "E", E)
        store(self, "G", G)
        store(self, "H", H)     # H_i = E_i^2
        store(self, "D", D)     # D_i = -G_i / E_i


def reduce_system(seq: WeightSequence, pattern: DegreePattern,
                  regime: str = RATIONAL) -> ReducedSystem:
    """det N_1, E, G, H and D of the weight block in the regime; raises
    SingularSystemError when N_1 is (not certifiably non-) singular, e.g.
    for the Hardy and Dirichlet weights where t -> w_t is affine, and
    DegenerateReductionError when an E_i is.  The latest reduction is kept,
    keyed on integers (hashing a Fraction costs a modular inverse), for a
    search's confirm_value and pipeline's recover; a refusal is not."""
    check_regime(regime)
    return _reduce(seq.alpha.numerator, seq.alpha.denominator, tuple(
        (t, v.numerator, v.denominator) for t, v in seq.overrides),
        pattern.k, pattern.gamma, regime)


@lru_cache(maxsize=1)
def _reduce(num, den, overrides, k, gamma, regime) -> ReducedSystem:
    seq = WeightSequence(Fraction(num, den),
                         tuple((t, Fraction(n, d)) for t, n, d in overrides))
    pattern = DegreePattern(k, gamma)
    w = weight_block(seq, pattern, regime)
    one, zero = to_regime(Fraction(1), regime), to_regime(Fraction(0), regime)
    det, e, gg = cramer_solve3([row[1:] for row in w],
                               [-row[0] for row in w], [one, zero, zero])
    for i, ei in enumerate(e):
        if not excludes_zero(ei):
            raise DegenerateReductionError(f"E_{i + 1} vanishes; D undefined")
    return ReducedSystem(pattern, seq, regime, w, det, e, gg,
                         tuple(ei * ei for ei in e),
                         tuple(-(gg[i] / e[i]) for i in range(3)))


class CQuantities(Record):
    __slots__ = ("d", "C1", "C2", "C3", "C4", "C5")

    def __init__(self, d: tuple, C1, C2, C3, C4, C5):
        _set_d(self, d)     # d_0..d_3
        _set_C1(self, C1)
        _set_C2(self, C2)
        _set_C3(self, C3)
        _set_C4(self, C4)
        _set_C5(self, C5)


_set_d, _set_C1, _set_C2, _set_C3, _set_C4, _set_C5 = slot_setters(CQuantities)


def _normalize_d(d) -> tuple:
    vals = tuple(d)
    if len(vals) == 3:
        vals = (1,) + vals
    if len(vals) != 4:
        raise ValueError("d must supply 3 values (d_0 = 1 implied) or 4")
    out = tuple(to_rational(v) for v in vals)
    if any(v <= 0 for v in out):
        raise ValueError("d values must be positive")
    return out


def c_values(w1, w2, H, D):
    """at(d_0, .., d_3) -> (C_1, C_2, C_3, C_4, C_5) at d, from rows 1 and 2
    of the weight block, H and D, in the arithmetic of its arguments.

    The d-free parts (unpacked rows, H_i w2_i, D_i D_i) are formed once per
    system.  Each sum is plain left-to-right adds from 0, as ``sum`` does:
    0 + x rounds outward for an interval, and the search's doubles are the
    same bits on every supported Python (``sum`` compensates floats from
    3.12 on).
    """
    w10, w11, w12, w13 = w1
    w20, w21, w22, w23 = w2
    hw1, hw2, hw3 = H[0] * w21, H[1] * w22, H[2] * w23
    D1, D2, D3 = D
    DD1, DD2, DD3 = D1 * D1, D2 * D2, D3 * D3

    def at(d0, d1, d2, d3) -> tuple:
        c1 = 0 + d0 * w10 + d1 * w11 + d2 * w12 + d3 * w13
        c2 = w20 / d0 + hw1 / d1 + hw2 / d2 + hw3 / d3
        c3 = 2 * (0 + D1 * d1 * w11 + D2 * d2 * w12 + D3 * d3 * w13)
        c4 = 0 + DD1 * d1 * w11 + DD2 * d2 * w12 + DD3 * d3 * w13
        return c1, c2, c3, c4, c1 * c4 - c3 * c3 / 4
    return at


def c_grid(w1, w2, H, D, values):
    """Records of ``c_values(w1, w2, H, D)``'s values at (1.0, d_1, d_2, d_3)
    for (d_1, d_2, d_3) in product(values, repeat=3), in that order and of
    the same bits, in doubles: each axis's terms are formed once per system,
    and each sum adds them in ``at``'s left-to-right order."""
    axes = [[(d, d * w1[i], H[i - 1] * w2[i] / d, D[i - 1] * d * w1[i],
              D[i - 1] * D[i - 1] * d * w1[i]) for d in values]
            for i in (1, 2, 3)]
    s1, s2 = 0 + 1.0 * w1[0], w2[0] / 1.0
    for d1, a1, b1, e1, g1 in axes[0]:
        t1, t2, t3, t4 = s1 + a1, s2 + b1, 0 + e1, 0 + g1
        for d2, a2, b2, e2, g2 in axes[1]:
            u1, u2, u3, u4 = t1 + a2, t2 + b2, t3 + e2, t4 + g2
            for d3, a3, b3, e3, g3 in axes[2]:
                c1, c3, c4 = u1 + a3, 2 * (u3 + e3), u4 + g3
                yield CQuantities((1.0, d1, d2, d3), c1, u2 + b3, c3, c4,
                                  c1 * c4 - c3 * c3 / 4)


def compute_C(rs: ReducedSystem, d) -> CQuantities:
    """The five reduced constants at squared moduli d = (d_0, .., d_3), each
    d_i and C_1, C_2, C_4, C_5 certified positive in the regime."""
    dd = tuple(to_regime(v, rs.regime) for v in _normalize_d(d))
    _certify_positive(zip(("d0", "d1", "d2", "d3"), dd))
    c1, c2, c3, c4, c5 = c_values(rs.W[0], rs.W[1], rs.H, rs.D)(*dd)
    _certify_positive(zip(("C1", "C2", "C4", "C5"), (c1, c2, c4, c5)))
    return CQuantities(dd, c1, c2, c3, c4, c5)


def _certify_positive(named) -> None:
    for name, v in named:
        if not certainly_positive(v):
            raise DegenerateReductionError(
                f"{name} = {v!r} is not certifiably positive")


def objective_B2(c: CQuantities):
    """Crude bound 4 C_2 C_4, free of Z_3 and Z_1.

    Like B_1 it is invariant under d -> lambda d; it just ignores the
    cross term C_3, so it is the weaker of the two.
    """
    return 4 * c.C2 * c.C4


def b1_value(c1, c2, c5):
    """B_1 = 4 C_2 C_5 / C_1 from the values, in their arithmetic."""
    return 4 * c2 * c5 / c1


def objective_B1(c: CQuantities):
    """Large-|Z_3| objective B_1 of a record; invariant under d -> lambda d."""
    return b1_value(c.C1, c.C2, c.C5)


def pivot(c: CQuantities, z3):
    """P = C_1 Z_3 - C_3/2, certified nonzero."""
    p = c.C1 * z3 - c.C3 / 2
    if not excludes_zero(p):
        raise DegenerateZ3Error(
            "C_1 Z_3 - C_3/2 vanishes (or cannot be certified nonzero)")
    return p


def pivot_modulus(c: CQuantities, z3):
    """|C_1 Z_3 - C_3/2|, exact for rational data."""
    return abs(pivot(c, z3))


def z3_quadratic(c: CQuantities, z3):
    """C_1 Z_3^2 - C_3 Z_3 + C_4."""
    return c.C1 * (z3 * z3) - c.C3 * z3 + c.C4


def split_e(c: CQuantities, z3):
    """The pair (e_0, e_1) with B_0(Z_1) = e_0/Z_1 + e_1 Z_1.

    e_0 = C_5 / |C_1 Z_3 - C_3/2|
    e_1 = C_2 (C_1 Z_3^2 - C_3 Z_3 + C_4) / |C_1 Z_3 - C_3/2|
    """
    mod = pivot_modulus(c, z3)
    e0 = c.C5 / mod
    e1 = c.C2 * z3_quadratic(c, z3) / mod
    return e0, e1


def objective_B0(c: CQuantities, z3, z1):
    """The certified ratio at explicit Z_1 > 0."""
    if not certainly_positive(z1):
        raise ValueError("Z_1 must be positive")
    e0, e1 = split_e(c, z3)
    return e0 / z1 + e1 * z1


def z1_star(c: CQuantities, z3):
    """Minimizer sqrt(e_0/e_1) of B_0; exact (possibly a Radical) when the
    inputs are rational."""
    e0, e1 = split_e(c, z3)
    return sqrt(e0 / e1)


def b0_minimum(c: CQuantities, z3):
    """min over Z_1 of B_0, i.e. 2 sqrt(e_0 e_1)."""
    e0, e1 = split_e(c, z3)
    return 2 * sqrt(e0 * e1)
