"""Published numerical values used by the reproduction harness and tests.

Everything in this module is a transcription of printed numbers. The rest
of the package never *computes* from these; they are comparison targets.
Printed decimals are kept as strings so that agreement can be checked at
the printed precision (some of the printed values are truncated rather
than rounded, so both conventions are accepted).
"""

from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple


class GridRow(NamedTuple):
    alpha: Fraction
    phi2: int
    phi3: int
    d: tuple          # (d1, d2, d3) as exact Fractions
    k: int
    b1_printed: str


def _row(alpha, phi2, phi3, d1, d2, d3, k, b1):
    return GridRow(Fraction(alpha), phi2, phi3,
                   (Fraction(d1), Fraction(d2), Fraction(d3)), k, b1)


# "Numerical results for k=6": eight rows, B_1 column as printed.
TABLE1_ROWS = (
    _row("-16", 0, 0, "1", "4", "6", 6, "0.02324"),
    _row("-16", 0, 3, "1", "10", "2000", 6, "0.00667"),
    _row("-12", 1, 4, "1", "20", "5000", 6, "0.02397"),
    _row("-8", 1, 8, "1", "10", "5000", 6, "0.1525"),
    _row("-7", 2, 12, "1", "20", "10000", 6, "0.31668"),
    _row("-6", 3, 17, "0.2", "13", "16000", 6, "0.5635"),
    _row("-5", 2, 34, "4", "11", "100000", 6, "0.99826"),
    _row("-4.999", 2, 34, "4", "11", "100000", 6, "0.999006"),
)

# "Numerical results for k>6": six rows.
TABLE2_ROWS = (
    _row("-5", 2, 34, "4", "11", "100000", 7, "0.875"),
    _row("-5", 3, 35, "2.2", "16", "130000", 10, "0.71312"),
    _row("-4.5", 3, 50, "1000", "11", "150000", 12, "0.96775"),
    _row("-4.25", 3, 97, "70", "0.54", "70000", 47, "0.99436"),
    _row("-4.22", 3, 150, "5000", "0.2", "150000", 74, "0.986"),
    _row("-4.2", 3, 166, "10000", "0.142", "150000", 88, "0.999"),
)

# Weight table at alpha=-16, k=6: index offset from k -> (base m of the
# exact value m^-16, printed omega_t * 7^16).
TABLE3_SCALED = (
    ("k", 7, "1"),
    ("k+1", 8, "1.1806708702e-1"),
    ("k+2", 9, "1.793446761e-2"),
    ("k+3", 10, "3.32329305e-3"),
    ("2k", 13, "4.99430433671e-5"),
    ("2k+1", 14, "1.52587890625e-5"),
    ("2k+2", 15, "5.05951042777e-6"),
    ("2k+3", 16, "1.80156077608e-6"),
    ("3k", 19, "1.15215530802e-7"),
    ("3k+1", 20, "5.0709427749e-8"),
    ("3k+2", 21, "2.32305731254e-8"),
    ("3k+3", 22, "1.10358489374e-8"),
)

# Diagnostics table at the headline point (alpha=-16, k=6, d=(1,1,4,6),
# Z_3 = -2e13).  Known internal inconsistencies: the printed C_1 does not
# match the printed C_4/C_2/C_3 pipeline, the printed C_3 is half the
# value the other rows imply, and b_2 only reproduces if a_2 is replaced by
# a_2^2; hence the loose tolerance on the comparison side, and the two
# entries in TABLE4_DISCREPANCIES that do not reproduce at all.
TABLE4_PRINTED = {
    "C4": "2.07e13",
    "C2": "3.372e-16",
    "C1": "3.379494e-14",
    "C3": "0.355785",
    "Z3": "-2e13",
    "pivot_modulus": "1.03168",
    "C5": "0.66791",
    "e0": "0.6474",
    "e1": "0.01351",
    "Z1": "6.92",
    "A15": "2.59",
    "a_k": "6.92",
    "a_k1": "-113.3",
    "a_k2": "227.1",
    "a_k3": "-207.2",
    "b_0": "-7.5e12",
    "b_1": "-2.53e13",
    "b_2": "-1.28e14",
    "b_3": "-8.67e13",
}

# The printed diagnostics are internally inconsistent, so a reproduced
# Table 4 entry need only lie within this relative band of the printed one.
TABLE4_BAND = 0.15

# Printed Table 4 entries that no tolerance reconciles with the code.
TABLE4_DISCREPANCIES = {
    "b_2": "about double the recovered b_2, a transcription slip",
    "C3": "exactly half of the computed C_3 (0.355785 vs 0.711569)",
}


class AsymptoticRow(NamedTuple):
    k: int
    beta: int
    sigma: Fraction
    objective_lt: str
    beta_gt: int


# "Solutions for k in [10,17]": columns k, beta, s, Objective<, beta>.
TABLE5_ROWS = (
    AsymptoticRow(10, 530, Fraction("0.05"), "0.994", 293),
    AsymptoticRow(11, 165, Fraction("0.3"), "0.612", 162),
    AsymptoticRow(12, 120, Fraction("0.6"), "0.387", 110),
    AsymptoticRow(13, 104, Fraction("0.8"), "0.490", 89),
    AsymptoticRow(14, 98, Fraction("0.9"), "0.556", 83),
    AsymptoticRow(15, 90, Fraction("0.93"), "0.562", 84),
    AsymptoticRow(16, 87, Fraction("0.94"), "0.864", 87),
    AsymptoticRow(17, 88, Fraction("0.97"), "0.502", 88),
)

# Published enclosures for the reduced-system constants at alpha=-16, k=6.
# Stored as (center, half_width) pairs of exact decimal fractions.
DET_N1_INTERVAL = (Fraction("1.6207616e-56"), Fraction("5e-8") * Fraction("1e-56"))

E_INTERVALS = (
    (Fraction("-16.37478"), Fraction("2e-6")),
    (Fraction("65.63437"), Fraction("7e-6")),
    (Fraction("-73.35945"), Fraction("2e-5")),
)

G_INTERVALS = (
    (Fraction("7.8126227e14"), Fraction("6e-7") * Fraction("1e14")),
    (Fraction("-4.3037417e15"), Fraction("3e-7") * Fraction("1e15")),
    (Fraction("5.4695405e15"), Fraction("4e-7") * Fraction("1e15")),
)

# Upper bounds used by the published objective estimate B_2 <= 0.02795.
H_UPPER = (Fraction("268.13349"), Fraction("4307.8715"), Fraction("5381.61"))
D_SQ_UPPER = (Fraction("2.276371e27"), Fraction("4.29962e27"),
              Fraction("5.55892e27"))
B2_PUBLISHED_BOUND = Fraction("0.02795")


def in_published_interval(value, center_half) -> bool:
    """Exact containment test against a (center, half_width) pair."""
    center, half = center_half
    v = value if isinstance(value, Fraction) else Fraction(value)
    return center - half <= v <= center + half


def agrees_with_printed(value, printed: str) -> bool:
    """Does the exact value match the printed decimal at its own precision?

    Accepts either rounding convention, half-up or plain truncation,
    because the printed tables mix both (e.g. the scaled weight for t=k+3
    is a truncation of 3.3232930569...e-3).
    """
    sign, digits, exp = Decimal(printed).as_tuple()
    shown = int("".join(map(str, digits)))
    v = value if isinstance(value, Fraction) else Fraction(value)
    if sign != (v < 0) and shown != 0:
        return False
    scaled = abs(v) * Fraction(10) ** -exp
    return shown in (int(scaled), int(scaled + Fraction(1, 2)))
