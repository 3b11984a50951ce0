from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zkwander.errors import InvalidPatternError
from zkwander.model import (DegreePattern, GeneratorPair,
                            orthogonality_relations)
from zkwander.scalars import (INTERVAL, RATIONAL, Interval, Radical,
                              is_exact_zero)
from zkwander.weights import dirichlet, weight

from sweep_oracle import f1_map, f2_map, f3_map, inner_product, level_block


class TestDegreePattern:

    def test_default(self):
        p = DegreePattern.default(6)
        assert p.gamma == (0, 1, 2, 3, 4, 5)
        assert p.register_degrees == (4, 5)

    def test_from_phi(self):
        p = DegreePattern.from_phi(6, phi2=2, phi3=34)
        assert p.gamma == (0, 1, 14, 207, 4, 5)

    def test_from_phi_rejects_negative(self):
        with pytest.raises(InvalidPatternError):
            DegreePattern.from_phi(6, phi2=-1)

    @pytest.mark.parametrize("name", ["phi2", "phi3"])
    @pytest.mark.parametrize("bad", [True, 1.5], ids=["bool", "float"])
    def test_from_phi_names_a_non_integer_multiplier(self, name, bad):
        # True is not the multiplier 1, and 1.5 is refused by its own name,
        # not by the degree 1.5 k + 2 it would form
        with pytest.raises(InvalidPatternError,
                           match=f"^{name} must be an integer, got {bad}$"):
            DegreePattern.from_phi(6, **{name: bad})

    def test_distinct_mod_k_required(self):
        with pytest.raises(InvalidPatternError):
            DegreePattern(6, (0, 1, 2, 3, 4, 10))

    def test_six_degrees_required(self):
        with pytest.raises(InvalidPatternError):
            DegreePattern(6, (0, 1, 2, 3, 4))

    def test_nonnegative_required(self):
        with pytest.raises(InvalidPatternError):
            DegreePattern(6, (0, 1, 2, 3, 4, -5))

    @pytest.mark.parametrize("k,gamma,bad", [
        (6.5, (0, 1, 2, 3, 4, 5), "6.5"),
        (6, (0, 1.7, 2, 3, 4, 5), "1.7"),
        (True, (0, 1, 2, 3, 4, 5), "True"),
        (6, (0, 1, 2, 3, 4, True), "True"),
    ], ids=["k-float", "degree-float", "k-bool", "degree-bool"])
    def test_integers_required(self, k, gamma, bad):
        # never truncated: 1.7 is not the degree 1
        with pytest.raises(InvalidPatternError, match="^k and gamma must be "
                           f"integers, got {bad}$"):
            DegreePattern(k, gamma)


def _brute_force_overlaps(k, gamma):
    """Shifted supports intersected degree by degree, to the depth of the
    level-by-level sweep the support lemma replaced."""
    f1 = {*gamma[:5], *(k + g for g in gamma[:4])}
    f2 = {*gamma[:4], gamma[5]}
    f3 = f1 | {d + k for d in f1 | f2}
    depth = -(-(3 * k + max(gamma)) // k) + 2
    return tuple(sorted({(s, t) for s in range(1, depth + 1)
                         for f in (f2, f3) for g in (f1, f2)
                         for t in f if t - k * s in g}))


@st.composite
def _patterns(draw):
    k = draw(st.integers(min_value=6, max_value=120))
    residues = draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                             min_size=6, max_size=6, unique=True))
    blocks = draw(st.lists(st.integers(min_value=0, max_value=40),
                           min_size=6, max_size=6))
    return DegreePattern(k, tuple(b * k + r for b, r in zip(blocks, residues)))


class TestSupportLemma:

    @settings(max_examples=150, deadline=None)
    @given(_patterns())
    @example(DegreePattern(6, (5, 4, 3, 2, 1, 0)))              # reversed
    @example(DegreePattern(7, (0, 1, 2, 3, 284, 285)))          # far registers
    @example(DegreePattern.from_phi(6, 3, 17))                  # published
    @example(DegreePattern.from_phi(88, 3, 166))                # published
    @example(DegreePattern(120, (119, 118, 4917, 116, 0, 1)))   # top of k
    def test_overlaps_match_brute_force(self, pattern):
        assert pattern.sweep_overlaps() == _brute_force_overlaps(
            pattern.k, pattern.gamma)

    def test_headline_overlaps(self, pattern6):
        assert pattern6.sweep_overlaps() == (
            *((1, t) for t in range(6, 16)), *((2, t) for t in range(12, 16)))

    def test_embedded_indices(self, pattern6):
        # the 12 matrix indices plus k + gamma_4 = 10 and k + gamma_5 = 11
        assert pattern6.embedded_indices() == (*range(6, 16), *range(18, 22))

    def test_f3_stays_inside_the_lemma_support(self, registered16, seq16):
        pair = registered16.pair
        k = pair.pattern.k
        f1, f2 = set(f1_map(pair)), set(f2_map(pair))
        assert set(f3_map(pair, seq16)) <= f1 | {d + k for d in f1 | f2}


class TestInnerProduct:

    def test_single_overlap_is_weighted_product(self):
        seq = dirichlet(-2)
        f = {4: Fraction(3)}
        g = {4: Fraction(5)}
        assert inner_product(f, g, seq) == 15 * weight(seq, 4)

    def test_disjoint_supports_give_zero(self):
        seq = dirichlet(-2)
        assert inner_product({0: Fraction(1)}, {1: Fraction(1)}, seq) == 0

    def test_shifts_realign_supports(self):
        seq = dirichlet(-2)
        f = {2: Fraction(3)}
        g = {1: Fraction(5)}
        # <z^1 f, z^2 g> lives at degree 3 on both sides
        assert inner_product(f, g, seq, shift_f=1, shift_g=2) == \
            15 * weight(seq, 3)
        # a table of the weights in the regime gives the same product
        assert inner_product(f, g, {3: weight(seq, 3)}, RATIONAL, 1, 2) == \
            15 * weight(seq, 3)


def _rational_pair():
    return GeneratorPair(
        DegreePattern.default(6),
        a_low=tuple(Fraction(v) for v in (1, 2, 3, 4)),
        a_high=tuple(Fraction(v) for v in (5, 6, 7, 8)),
        b_low=tuple(Fraction(v) for v in (9, 10, 11, 12)),
    )


def _level1(pair, seq):
    return orthogonality_relations(pair, seq)[0]


def _adjacent_correlations(pair, seq):
    # A_(1,1), A_(2,1), A_(3,1)
    return [v for (_, n), v in orthogonality_relations(pair, seq)[1] if n == 1]


class TestComputeA:
    """The products of a pair as ``orthogonality_relations`` forms them."""

    def test_level_one_against_hand_sums(self):
        """The five products written out term by term from the definitions."""
        seq = dirichlet(-2)
        pair = _rational_pair()
        a, ah, b = (1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)
        w = [weight(seq, 6 + i) for i in range(4)]
        q = _level1(pair, seq)
        assert q.A1 == sum(ah[i] * a[i] * w[i] for i in range(4))
        assert q.A2 == sum(a[i] * b[i] * w[i] for i in range(4))
        assert q.A5 == sum(ah[i] * b[i] * w[i] for i in range(4))
        w12 = [weight(seq, 12 + i) for i in range(4)]
        assert q.A3 == sum(a[i] ** 2 * w[i] + ah[i] ** 2 * w12[i]
                           for i in range(4))
        assert q.A4 == sum(b[i] ** 2 * w[i] for i in range(4))

    def test_registers_enter_the_norms_only(self):
        seq = dirichlet(-2)
        plain = _rational_pair()
        reg = plain.with_registers(Fraction(2), Fraction(3))
        q0 = _level1(plain, seq)
        q1 = _level1(reg, seq)
        assert q1.A1 == q0.A1 and q1.A2 == q0.A2 and q1.A5 == q0.A5
        assert q1.A3 == q0.A3 + 4 * weight(seq, 10)
        assert q1.A4 == q0.A4 + 9 * weight(seq, 11)

    @pytest.mark.parametrize("block", ["a_low", "a_high", "b_low"])
    def test_each_block_holds_four_coefficients(self, block):
        blocks = {name: (Fraction(1),) * 4
                  for name in ("a_low", "a_high", "b_low")}
        blocks[block] = (Fraction(1),) * 3
        with pytest.raises(ValueError,
                           match=f"^{block} must hold 4 coefficients$"):
            GeneratorPair(DegreePattern.default(6), **blocks)

    def test_adjacent_correlation_needs_the_high_block(self):
        # a one-block F_1 never meets its own k-shift, at any level
        seq = dirichlet(-2)
        pair = GeneratorPair(
            DegreePattern.default(6),
            a_low=tuple(Fraction(v) for v in (1, 2, 3, 4)),
            a_high=(Fraction(0),) * 4,
            b_low=tuple(Fraction(v) for v in (9, 10, 11, 12)),
        )
        assert _adjacent_correlations(pair, seq) == [0, 0, 0]

    def test_two_block_f1_keeps_correlating(self):
        # with both blocks populated the overlap survives every level, so
        # the vanishing of A_(s,1) really is an engineered property
        for a1 in _adjacent_correlations(_rational_pair(), dirichlet(-2)):
            assert a1 != 0


_FIELDS = ("A1", "A2", "A3", "A4", "A5")
_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=40)


@st.composite
def _slot_cases(draw, regime):
    """A pair on six degrees below 5 k, distinct mod k, in random order, so
    that degree order differs from slot order, with exact zeros among the
    coefficients, registers included, and a Dirichlet weight sequence.  An
    interval pair mixes Fractions and Interval.exact values; a rational one
    scales the rows u and a_reg by sqrt(2), so every product is exact."""
    k = draw(st.integers(min_value=6, max_value=40))
    residues = draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                             min_size=6, max_size=6, unique=True))
    blocks = draw(st.lists(st.integers(min_value=0, max_value=4),
                           min_size=6, max_size=6))
    pattern = DegreePattern(k, tuple(b * k + r for b, r in zip(blocks,
                                                              residues)))
    zero = st.sampled_from([Fraction(0), Interval.exact(0)])
    if regime == INTERVAL:
        plain = scaled = st.one_of(zero, _fractions,
                                   _fractions.map(Interval.exact))
        alpha = st.sampled_from([Fraction(-33, 2), Fraction(1, 3), -16])
    else:
        plain = st.one_of(st.just(Fraction(0)), _fractions)
        scaled = plain.map(lambda q: q * Radical.sqrt(2))
        alpha = st.sampled_from([-16, -2, 3])
    a_low, a_high, b_low = (tuple(draw(row) for _ in range(4))
                            for row in (scaled, plain, plain))
    pair = GeneratorPair(pattern, a_low, a_high, b_low, draw(scaled),
                         draw(plain))
    return pair, dirichlet(draw(alpha))


def _bits(x):
    # an enclosure's endpoints bit for bit, -0.0 apart from 0.0
    return (x.lo.hex(), x.hi.hex()) if isinstance(x, Interval) else x


class TestSlotForm:
    """orthogonality_relations sums over slot rows; the definition shifts
    coefficient maps and matches degrees.  Every result is the same value,
    each enclosure the same to the bit: a slot sum taken in slot order
    instead of ascending degree rounds differently."""

    def _check(self, pair, seq, regime):
        blocks = {s: level_block(pair, seq, s, regime) for s in (1, 2, 3)}
        q1, relations = orthogonality_relations(pair, seq, regime)
        assert [_bits(getattr(q1, f)) for f in _FIELDS] == \
            [_bits(blocks[1][f]) for f in _FIELDS]
        assert [(key, _bits(v)) for key, v in relations] == [
            ((s, n), _bits(blocks[s][f"A{n}"]))
            for s, n in ((1, 1), (2, 1), (2, 5), (3, 1), (3, 5))]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_slot_cases(INTERVAL))
    def test_interval_sums_match_the_definition_bit_for_bit(self, case):
        self._check(*case, INTERVAL)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(_slot_cases(RATIONAL))
    def test_rational_sums_match_the_definition(self, case):
        self._check(*case, RATIONAL)


class TestSpanningElements:

    def test_f3_is_orthogonal_to_the_shifted_generators(self, registered16,
                                                        seq16):
        pair = registered16.pair
        f3 = f3_map(pair, seq16)
        k = pair.pattern.k
        r1 = inner_product(f3, f1_map(pair), seq16, shift_g=k)
        r2 = inner_product(f3, f2_map(pair), seq16, shift_g=k)
        assert is_exact_zero(r1)
        assert is_exact_zero(r2)
