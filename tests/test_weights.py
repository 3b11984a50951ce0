import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zkwander.errors import InvalidPatternError, ModeUnsupportedError
from zkwander.model import DegreePattern
from zkwander.reduction import reduce_system
from zkwander.reference_data import TABLE1_ROWS, TABLE2_ROWS
from zkwander.scalars import INTERVAL, RATIONAL, Interval, to_regime
from zkwander.search import _doubles
from zkwander.weights import (dirichlet, exact_regime, perturbed, weight,
                              weights_from_dict, weights_to_dict)


class TestDirichlet:

    def test_integer_alpha_is_exact(self):
        seq = dirichlet(-2)
        assert weight(seq, 0) == 1
        assert weight(seq, 3) == Fraction(1, 16)
        assert weight(dirichlet(3), 4) == 125

    def test_alpha_from_float_literal(self):
        # the decimal the caller typed, not the binary approximation
        assert dirichlet(-4.999).alpha == Fraction(-4999, 1000)

    def test_rational_regime_needs_integer_alpha(self):
        with pytest.raises(ModeUnsupportedError):
            weight(dirichlet(Fraction(-1, 2)), 5, RATIONAL)

    def test_interval_is_point_for_integer_alpha(self):
        iv = weight(dirichlet(-2), 3, INTERVAL)
        assert iv.lo == iv.hi == 1 / 16

    def test_interval_encloses_non_integer_weight(self):
        # (3+1)^(-1/2) = 1/2 exactly, so enclosure is easy to check
        iv = weight(dirichlet(Fraction(-1, 2)), 3, INTERVAL)
        assert Fraction(iv.lo) <= Fraction(1, 2) <= Fraction(iv.hi)
        assert iv.is_positive()

    def test_float_regime(self):
        # floats are no regime: the search takes the doubles of the exact
        # weights, each rounded once
        with pytest.raises(ValueError, match="^unknown regime 'float'$"):
            weight(dirichlet(-16), 5, "float")
        rs = reduce_system(dirichlet(-16), DegreePattern.default(6))
        assert _doubles(rs)[0] == tuple(
            float(Fraction(1, t ** 16)) for t in (7, 8, 9, 10))

    def test_float_underflow_is_refused(self):
        # in the search's doubles; 130004^-64 ~ 10^-327 is below the least
        # double, though the rational regime reduces the system
        rs = reduce_system(dirichlet(-64),
                           DegreePattern.from_phi(10000, 0, 12))
        with pytest.raises(ModeUnsupportedError) as info:
            _doubles(rs)
        assert str(info.value) == ("130004^(-64) lies outside the range of "
                                   "doubles")

    def test_float_overflow_is_refused(self):
        rs = reduce_system(dirichlet(64), DegreePattern.from_phi(10000, 0, 99))
        with pytest.raises(ModeUnsupportedError, match=r"^1000004\^\(64\) "
                           "lies outside the range of doubles$"):
            _doubles(rs)

    def test_interval_overflow_is_refused(self):
        # an exact weight past the largest double has no float enclosure
        with pytest.raises(ModeUnsupportedError):
            weight(dirichlet(64), 10 ** 6, INTERVAL)
        with pytest.raises(ModeUnsupportedError):
            weight(perturbed(dirichlet(0), {3: Fraction(10) ** 400}), 3,
                   INTERVAL)
        with pytest.raises(ModeUnsupportedError):
            weight(dirichlet(Fraction(127, 2)), 120009, INTERVAL)

    @pytest.mark.parametrize("alpha", ["1e99999999", "-2E-99999999",
                                       "1e4301", "x", "1/0"])
    def test_unreadable_alpha_string_is_refused(self, alpha):
        # Fraction alone forms 10^99999999, which takes minutes
        with pytest.raises(ValueError,
                           match=f"cannot parse {alpha!r} as a rational"):
            dirichlet(alpha)
        with pytest.raises(ValueError, match="cannot parse"):
            perturbed(dirichlet(-16), {3: alpha})

    def test_alpha_string_on_the_exponent_limit_parses(self):
        assert dirichlet("-33/2").alpha == Fraction(-33, 2)
        assert dirichlet("1e-4300").alpha == Fraction(1, 10 ** 4300)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            weight(dirichlet(-16), -1)

    @given(a=st.integers(min_value=-20, max_value=20),
           t=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40)
    def test_regimes_agree(self, a, t):
        seq = dirichlet(a)
        exact = weight(seq, t, RATIONAL)
        assert exact == Fraction(t + 1) ** a
        iv = weight(seq, t, INTERVAL)
        assert Fraction(iv.lo) <= exact <= Fraction(iv.hi)


# overrides at degrees up to 200 with positive rational values
_OVERRIDES = st.dictionaries(
    st.integers(min_value=0, max_value=200),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000), max_size=8)


class TestPerturbedAndCustom:

    def test_override_wins_elsewhere_base(self):
        seq = perturbed(dirichlet(-16), {12: Fraction(7, 2)})
        assert weight(seq, 12) == Fraction(7, 2)
        assert weight(seq, 11) == Fraction(1, 12 ** 16)

    def test_override_is_exact_in_every_regime(self):
        seq = perturbed(dirichlet(Fraction(-1, 2)), {4: Fraction(1, 3)})
        assert weight(seq, 4, RATIONAL) == Fraction(1, 3)
        iv = weight(seq, 4, INTERVAL)
        assert Fraction(iv.lo) <= Fraction(1, 3) <= Fraction(iv.hi)

    def test_override_validation(self):
        with pytest.raises(ValueError):
            perturbed(dirichlet(0), {3: 0})
        with pytest.raises(ValueError):
            perturbed(dirichlet(0), {-1: 1})
        with pytest.raises(ValueError):
            perturbed(dirichlet(0), {3: Fraction(1), "3": Fraction(2)})

    @pytest.mark.parametrize("index", [6.9, True], ids=["float", "bool"])
    def test_override_index_must_be_an_int(self, index):
        # never truncated: 6.9 is not the index 6
        with pytest.raises(ValueError, match="^override index must be an "
                           f"int >= 0, got {index}$"):
            perturbed(dirichlet(0), {index: 2})

    def test_later_overrides_win(self):
        seq = perturbed(perturbed(dirichlet(-2), {1: 3, 2: 5}), {2: 7})
        assert seq.overrides == ((1, 3), (2, 7))
        assert weight(seq, 2) == 7
        assert weight(seq, 3) == Fraction(1, 16)

    def test_no_overrides_is_the_dirichlet_sequence(self):
        assert perturbed(dirichlet(-16), {}) == dirichlet(-16)
        assert weights_to_dict(perturbed(dirichlet(-16), {})) == \
            weights_to_dict(dirichlet(-16))

    @given(alpha=st.integers(min_value=-20, max_value=20),
           o1=_OVERRIDES, o2=_OVERRIDES)
    @settings(max_examples=40, deadline=None)
    def test_perturbing_twice_is_one_merged_perturbation(self, alpha, o1, o2):
        base = dirichlet(alpha)
        twice = perturbed(perturbed(base, o1), o2)
        once = perturbed(base, {**o1, **o2})
        assert twice == once
        assert weights_to_dict(twice) == weights_to_dict(once)
        assert all(weight(twice, t) == weight(once, t) for t in range(201))

    @given(alpha=st.integers(min_value=-20, max_value=20),
           o=_OVERRIDES.filter(bool))
    @example(alpha=-16, o={3: Fraction(1, 3), 7: Fraction(7)})
    @settings(max_examples=40, deadline=None)
    def test_weight_is_the_override_or_the_base(self, alpha, o):
        # degrees below the first override, between two and past the last
        base = dirichlet(alpha)
        seq = perturbed(base, o)
        for t in range(max(o) + 3):
            for regime in (RATIONAL, INTERVAL):
                expected = (to_regime(o[t], regime) if t in o
                            else weight(base, t, regime))
                assert weight(seq, t, regime) == expected


class TestMatrixIndices:

    def test_twelve_distinct_for_default_pattern(self):
        idx = DegreePattern.default(6).matrix_indices()
        assert len(idx) == 12
        assert len(set(idx)) == 12
        assert idx == tuple(s * 6 + g for s in (1, 2, 3) for g in (0, 1, 2, 3))

    def test_pattern_constructor_forces_k_at_least_6(self):
        with pytest.raises(InvalidPatternError):
            DegreePattern(5, (0, 1, 2, 3, 4, 5))


def _exact_regime_by_trial(seq, indices):
    """The regime exact_regime chose before it decided by its rule: rational
    unless some weight at the indices refuses the rational regime."""
    try:
        for t in indices:
            weight(seq, t, RATIONAL)
    except ModeUnsupportedError:
        return INTERVAL
    return RATIONAL


def _regime_cases():
    pattern = DegreePattern.default(6)
    for row in (*TABLE1_ROWS, *TABLE2_ROWS):
        yield (dirichlet(row.alpha),
               DegreePattern.from_phi(row.k, row.phi2, row.phi3))
    for alpha in (64, -64, Fraction(1, 1000), Fraction(-1, 1000)):
        yield dirichlet(alpha), pattern
    half = dirichlet(Fraction(-33, 2))
    yield perturbed(half, {t: weight(dirichlet(-16), t)
                           for t in pattern.matrix_indices()}), pattern
    yield perturbed(half, {6: 1, 7: Fraction(1, 3), 30: 2}), pattern
    yield perturbed(dirichlet(-16), {6: Fraction(1, 3)}), pattern


class TestExactRegime:

    @pytest.mark.parametrize("seq,pattern", list(_regime_cases()))
    def test_rule_gives_the_answer_of_trying_each_weight(self, seq, pattern):
        for indices in (pattern.matrix_indices(), pattern.embedded_indices(),
                        (), (6, 7), (6, 8),
                        *((t,) for t in pattern.embedded_indices())):
            assert (exact_regime(seq, indices)
                    == _exact_regime_by_trial(seq, indices))

    def test_rule(self):
        half = dirichlet(Fraction(-33, 2))
        assert exact_regime(dirichlet(-16), (0, 5, 10 ** 9)) == RATIONAL
        assert exact_regime(half, (6,)) == INTERVAL
        assert exact_regime(perturbed(half, {6: 1}), (6,)) == RATIONAL
        assert exact_regime(perturbed(half, {6: 1}), (6, 7)) == INTERVAL


class TestSerialization:

    @pytest.mark.parametrize("seq", [
        dirichlet(-16),
        dirichlet(Fraction(-9, 2)),
        perturbed(dirichlet(-16), {12: Fraction(7, 2), 40: Fraction(1, 3)}),
        perturbed(dirichlet(-2), {0: 1, 1: 2}),
    ])
    def test_round_trip(self, seq):
        assert weights_from_dict(weights_to_dict(seq)) == seq
        text = json.dumps(weights_to_dict(seq))
        assert weights_from_dict(json.loads(text)) == seq

    def test_round_trip_preserves_values(self):
        pattern = DegreePattern.default(6)
        seq = perturbed(dirichlet(-16), {t: weight(dirichlet(-4), t)
                                         for t in pattern.matrix_indices()})
        text = json.dumps(weights_to_dict(seq))
        again = weights_from_dict(json.loads(text))
        for t in list(pattern.matrix_indices()) + [0, 7, 100]:
            assert weight(again, t) == weight(seq, t)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            weights_from_dict({"kind": "geometric"})
        with pytest.raises(ValueError):
            weights_from_dict({"kind": "custom", "prefix": ["1"],
                               "tail": {"kind": "dirichlet", "alpha": "0"}})

    def test_only_a_dirichlet_base_is_read(self):
        inner = weights_to_dict(perturbed(dirichlet(-2), {3: 5}))
        with pytest.raises(ValueError, match="dirichlet base"):
            weights_from_dict({"kind": "perturbed", "base": inner,
                               "overrides": {"4": "1"}})
