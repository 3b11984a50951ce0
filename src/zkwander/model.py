"""Generator pairs and the inner products that drive the whole construction.

The subspace M is generated by two polynomials built on a degree pattern
gamma_0..gamma_5 (distinct mod k):

    F_1 = sum_{i<4} a_i z^{gamma_i}  +  a_reg z^{gamma_4}
        + sum_{i<4} a_{k+i} z^{k+gamma_i}
    F_2 = sum_{i<4} b_i z^{gamma_i}  +  b_reg z^{gamma_5}

Everything the certificate asserts reduces to the level-1 block A_{1,n} and
A_{s,1}, A_{s,5} at s = 2, 3, cross inner products of k-block shifts of F_1
and F_2.  Coefficients are real, so <f, g> = sum_t f_t g_t w_t needs no
conjugate.  As the gamma_r are distinct mod k, a level-s term pairs two
coefficients of one gamma_r at the degree s k + gamma_r, the slot (s, r).
So ``orthogonality_relations``, their one evaluator, sums over slot rows,
with u = a_low, v = a_high, b = b_low and W_s[i] = w_{sk+gamma_i}: k enters
only the weight keys and the ascending degree order of the terms, which the
definition's sum takes and which fixes every enclosure bit.  The support
lemma, the levels and degrees at which the membership products have a term,
is stated in closed form by ``DegreePattern.sweep_overlaps``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidPatternError
from .record import Record, store
from .scalars import RATIONAL, is_exact_zero, sum_of_products, to_regime
from .weights import WeightSequence, weight


class DegreePattern(Record):
    """Shift order k plus the six exponents carried by the generators.

    gamma_0..gamma_3 are the active degrees, gamma_4 and gamma_5 the register
    degrees.  All six must be distinct mod k so that the shifted supports can
    only meet where intended (which forces k >= 6).
    """

    __slots__ = ("k", "gamma")

    def __init__(self, k: int, gamma: tuple):
        g = tuple(gamma)
        for value in (k, *g):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidPatternError(
                    f"k and gamma must be integers, got {value!r}")
        if k < 1:
            raise InvalidPatternError("k must be a positive integer")
        if len(g) != 6:
            raise InvalidPatternError("pattern needs exactly 6 degrees")
        if any(x < 0 for x in g):
            raise InvalidPatternError("degrees must be nonnegative")
        if len({x % k for x in g}) != 6:
            raise InvalidPatternError(
                f"degrees {g} are not distinct mod k={k}")
        store(self, "k", k)
        store(self, "gamma", g)

    @classmethod
    def default(cls, k: int) -> "DegreePattern":
        return cls(k, (0, 1, 2, 3, 4, 5))

    @classmethod
    def from_phi(cls, k: int, phi2: int = 0, phi3: int = 0) -> "DegreePattern":
        for name, phi in (("phi2", phi2), ("phi3", phi3)):
            if isinstance(phi, bool) or not isinstance(phi, int):
                raise InvalidPatternError(
                    f"{name} must be an integer, got {phi!r}")
        if min(phi2, phi3) < 0:
            raise InvalidPatternError("phi multipliers must be >= 0")
        return cls(k, (0, 1, phi2 * k + 2, phi3 * k + 3, 4, 5))

    @property
    def register_degrees(self) -> tuple:
        return self.gamma[4:]

    def matrix_indices(self) -> tuple:
        """The 12 degrees s k + gamma_i, s in {1, 2, 3}, i in {0, .., 3}: the
        weights of the 3x4 reduction matrix.  They are distinct, as the
        gamma_i are distinct mod k."""
        return tuple(s * self.k + g for s in (1, 2, 3) for g in self.gamma[:4])

    def embedded_indices(self) -> tuple:
        """The 14 degrees whose weights a certificate reads: the 12 matrix
        indices plus k + gamma_4 and k + gamma_5."""
        k, g = self.k, self.gamma
        return tuple(sorted({*self.matrix_indices(), k + g[4], k + g[5]}))

    def sweep_overlaps(self) -> tuple:
        """The support lemma: the sorted (level s, degree t) pairs at which a
        membership product <F, z^{ks} G>, F in {F_2, F_3}, G in {F_1, F_2},
        s >= 1, has a term.

        Every support degree is j k + gamma_r, in block j.  As the gamma_r
        are distinct mod k, j k + gamma_r = (j' + s) k + gamma_r' only when
        r = r' and j = j' + s.  F_1 holds block 0 at r <= 4 and block 1 at
        r <= 3, F_2 block 0 at r <= 3 and r = 5, and F_3 = F_1 + z^k (c_2 F_2
        + c_1 F_1) adds block 1 at all six r and block 2 at r <= 3.  F_2 lies
        in block 0, so it meets no shifted G.  F_3's block 1 meets block 0 of
        F_1 or F_2 at s = 1 for every r; its block 2 meets F_1's block 1 at
        s = 1 and block 0 of either at s = 2, for r <= 3.
        """
        k, gamma = self.k, self.gamma
        return tuple(sorted([(1, k + x) for x in gamma]
                            + [(s, 2 * k + x) for s in (1, 2)
                               for x in gamma[:4]]))


class GeneratorPair(Record):
    """Coefficients of (F_1, F_2) on a pattern; scalars in any one regime."""

    __slots__ = ("pattern", "a_low", "a_high", "b_low", "a_reg", "b_reg")

    def __init__(self, pattern: DegreePattern, a_low, a_high, b_low,
                 a_reg=Fraction(0), b_reg=Fraction(0)):
        store(self, "pattern", pattern)
        store(self, "a_low", a_low)     # F_1 at gamma_0..gamma_3
        store(self, "a_high", a_high)   # F_1 at k+gamma_0..k+gamma_3
        store(self, "b_low", b_low)     # F_2 at gamma_0..gamma_3
        store(self, "a_reg", a_reg)     # F_1 at gamma_4
        store(self, "b_reg", b_reg)     # F_2 at gamma_5
        for name in ("a_low", "a_high", "b_low"):
            if len(getattr(self, name)) != 4:
                raise ValueError(f"{name} must hold 4 coefficients")

    def with_registers(self, a_reg, b_reg) -> "GeneratorPair":
        return GeneratorPair(self.pattern, self.a_low, self.a_high,
                             self.b_low, a_reg, b_reg)


class AQuantities(Record):
    """The five level-1 inner products, the block a certificate reads.

    A1 = <F_1, z^k F_1>         (adjacent block correlation)
    A2 = <z^k F_1, z^k F_2>
    A3 = ||z^k F_1||^2
    A4 = ||z^k F_2||^2
    A5 = <F_1, z^k F_2>

    A_(s,n) is A_(1,n) with both shifts raised by k(s-1).
    """

    __slots__ = ("A1", "A2", "A3", "A4", "A5")

    def __init__(self, A1, A2, A3, A4, A5):
        for name, value in zip(self.__slots__, (A1, A2, A3, A4, A5)):
            store(self, name, value)

    def contraction_sides(self) -> tuple:
        """(A_13 A_14 - A_12^2, A_15 A_12); the strict contraction
        inequality is lhs < |rhs|."""
        return self.A3 * self.A4 - self.A2 * self.A2, self.A5 * self.A2


def _row_sum(terms, w: dict, regime: str):
    """x_1 y_1 w_{t_1} + ... over the (t, x, y) terms with no None factor,
    in ascending degree t as the definition sums them, an order that fixes
    every enclosure bit; an empty sum is 0 in the regime."""
    kept = [(t, x, y) for t, x, y in terms if x is not None and y is not None]
    if not kept:
        return to_regime(Fraction(0), regime)
    kept.sort()     # the degrees of one sum are distinct
    return sum_of_products([(x, y, w[t]) for t, x, y in kept])


def _adjacent(rows, w, pattern: DegreePattern, s: int, regime: str):
    """(A_(s,1), A_(s,5)) = (sum v_i u_i W_s[i], sum v_i b_i W_s[i])."""
    u, v, b = rows[:3]
    now = [s * pattern.k + g for g in pattern.gamma[:4]]
    return (_row_sum(zip(now, v, u), w, regime),
            _row_sum(zip(now, v, b), w, regime))


def _slot_block(rows, w, pattern: DegreePattern, regime: str, a1, a5):
    """The level-1 block: A1 and A5 as given, A2 = sum u_i b_i W_1[i],
    A3 = sum u_i^2 W_1[i] + a_reg^2 w_{k+gamma_4} + sum v_i^2 W_2[i] and
    A4 = sum b_i^2 W_1[i] + b_reg^2 w_{k+gamma_5}."""
    u, v, b, a_reg, b_reg = rows
    now, up = ([j * pattern.k + g for g in pattern.gamma] for j in (1, 2))
    return AQuantities(
        a1, _row_sum(zip(now, u, b), w, regime),
        _row_sum([*zip(now, u, u), *zip(now[4:], a_reg, a_reg),
                  *zip(up, v, v)], w, regime),
        _row_sum([*zip(now, b, b), *zip(now[5:], b_reg, b_reg)], w, regime),
        a5)


def orthogonality_relations(pair: GeneratorPair, seq: WeightSequence,
                            regime: str = RATIONAL) -> tuple:
    """The level-1 block of the pair and the five relations the proof needs
    to vanish: (q1, (((s, n), A_(s,n)), ...)) for A_(1,1), A_(2,1), A_(2,5),
    A_(3,1) and A_(3,5).  Each of the 14 embedded weights is evaluated once,
    and each coefficient read once into the rows u, v, b, (a_reg,) and
    (b_reg,), an exact zero as None: a [0, 0] term would widen an enclosure."""
    p = pair.pattern
    w = {t: weight(seq, t, regime) for t in p.embedded_indices()}
    rows = [[None if is_exact_zero(x) else x for x in row]
            for row in (pair.a_low, pair.a_high, pair.b_low, (pair.a_reg,),
                        (pair.b_reg,))]
    (a11, a15), (a21, a25), (a31, a35) = (
        _adjacent(rows, w, p, s, regime) for s in (1, 2, 3))
    return _slot_block(rows, w, p, regime, a11, a15), (
        ((1, 1), a11), ((2, 1), a21), ((2, 5), a25), ((3, 1), a31),
        ((3, 5), a35))
