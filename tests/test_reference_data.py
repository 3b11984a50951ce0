"""agrees_with_printed: a value matches a printed decimal at the printed
precision, under either truncation or half-up rounding of the last digit."""

from fractions import Fraction

import pytest

from zkwander.reference_data import agrees_with_printed


@pytest.mark.parametrize("value, printed, agrees", [
    # a negative printed value
    (Fraction("-25.312"), "-25.31", True),
    (Fraction("-25.329"), "-25.31", False),
    # a sign mismatch
    (Fraction("2.53"), "-2.53", False),
    (Fraction("-2.53"), "2.53", False),
    # a printed zero matches either sign at its precision
    (0, "0", True),
    (Fraction("-0.004"), "0.00", True),
    (Fraction("0.004"), "-0.00", True),
    (Fraction("0.1"), "0.0", False),
    # a truncated last digit (the scaled weight at t = k+3)
    (Fraction("3.3232930569e-3"), "3.32329305e-3", True),
    (Fraction("3.3232930569e-3"), "3.32329307e-3", False),
    # a half-up rounded last digit; a half rounds up, not to even
    (Fraction("3.3232930569e-3"), "3.32329306e-3", True),
    (Fraction("0.125"), "0.13", True),
    (Fraction("0.125"), "0.12", True),
    (Fraction("0.1249"), "0.13", False),
    # the exponent spellings of Tables 3 and 4
    (Fraction("0.11806708702"), "1.1806708702e-1", True),
    (Fraction("0.11806708712"), "1.1806708702e-1", False),
    (-2e13, "-2e13", True),
    (Fraction(-26 * 10 ** 12), "-2e13", True),
    (Fraction(-3 * 10 ** 13), "-2e13", False),
    (2e13, "-2e13", False),
])
def test_agrees_with_printed(value, printed, agrees):
    assert agrees_with_printed(value, printed) is agrees
