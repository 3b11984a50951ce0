"""Closed-form estimates for large negative exponents.

For beta = -alpha large and k >= 10 the compressed objective is bounded
by 432 beta^2 / ((1-sigma)^4 k^2) * a(k)^beta, where a(k) is an explicit
rational five-factor product with limit 1/2. Together with the
sigma-condition this gives counterexamples for every alpha below a cap
that is roughly 5k. This module houses those formulas, the polynomial
diagnostics behind them, and the table-reproduction report.
"""

import math
import sys
import warnings as _warnings
from fractions import Fraction
from functools import lru_cache

# Shallow optimum in sigma, so a coarse grid with a fine tail is enough.
DEFAULT_SIGMA_GRID = (0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4,
                      0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85,
                      0.9, 0.95, 0.985, 0.99)


def _refuse_unsquarable(**named) -> None:
    for name, value in named.items():   # the estimates square it in doubles
        if abs(value) > math.sqrt(sys.float_info.max):
            raise ValueError(f"|{name}| > 1.3e154: its square has no double")


def _check_query(k: int, beta, sigma) -> None:
    if not (0 < sigma < 1 and 0 < float(sigma) < 1):    # as a double too
        raise ValueError("sigma must lie in (0, 1)")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if k < 9:
        raise ValueError("the estimate chain needs k >= 9")
    _refuse_unsquarable(k=k, beta=beta)
    if k == 9:
        _warnings.warn("k = 9 sits outside the main k >= 10 path; "
                       "the cap denominator (k-9)^2 vanishes", stacklevel=3)


def sigma_threshold(k: int, sigma) -> float:
    """Right hand side of the sigma-condition, 6 (k+1)/k (k+2) log(2/sigma)."""
    return 6.0 * (k + 1) / k * (k + 2) * math.log(2.0 / float(sigma))


def sigma_condition(k: int, beta, sigma) -> bool:
    _check_query(k, beta, sigma)
    return float(beta) >= sigma_threshold(k, sigma)


def a_factor_exact(k: int) -> Fraction:
    """The five-factor product as an exact rational."""
    kk = Fraction(k)
    return ((Fraction(1, 2) + Fraction(3, 2 * (2 * k + 1)))
            * (1 + 1 / (kk + 1)) ** 2
            * (1 + 1 / (2 * (kk + 1))) ** 4
            * (1 + 1 / (3 * (kk + 1))) ** 2
            * (1 + 2 / (3 * kk + 2)) ** 2)


@lru_cache(maxsize=256)
def a_factor(k: int) -> float:
    """a(k) as a double, formed once per k for minimal_beta's scan."""
    return float(a_factor_exact(k))


def q1_poly(k) -> Fraction:
    kk = Fraction(k)
    return (kk + 1) ** 4 * (kk + Fraction(2, 3))


def q2_poly(k) -> Fraction:
    kk = Fraction(k)
    return (kk + 2) * (kk + Fraction(3, 2)) ** 2 * (kk + Fraction(4, 3)) ** 2


def a_factor_q_form(k: int) -> Fraction:
    """Same quantity written as (k+2)/(2k+1) * (q2/q1)^2.

    The two closed forms agree identically; the test suite checks the
    identity exactly on a range of k.
    """
    return Fraction(k + 2, 2 * k + 1) * (q2_poly(k) / q1_poly(k)) ** 2


def p1star_poly(k) -> int:
    return (k + 2) * (2 * k + 3) * (3 * k + 4)


def p13_poly(k) -> int:
    return 6 * (k + 1) ** 3


def objective_bound(k: int, beta, sigma) -> float:
    """432 beta^2 / ((1-sigma)^4 k^2) * a(k)^beta; reported regardless of
    whether the sigma-condition holds.  Where the prefactor overflows and
    the power underflows, inf * 0, the product is taken in logs."""
    _check_query(k, beta, sigma)
    b = float(beta)
    prefactor = 432.0 * b * b / ((1.0 - float(sigma)) ** 4 * k * k)
    power = a_factor(k) ** b
    if prefactor == math.inf and power == 0.0:
        return math.exp(math.log(432.0) + 2 * math.log(b)
                        - 4 * math.log1p(-float(sigma)) - 2 * math.log(k)
                        + b * math.log(a_factor(k)))
    return prefactor * power


def beta_cap(k: int) -> float:
    if k == 9:
        raise ValueError("the cap 5k + 700/(k-9)^2 is undefined at k = 9")
    _refuse_unsquarable(k=k)
    return 5.0 * k + 700.0 / (k - 9) ** 2


def minimal_beta(k: int):
    """Smallest integer beta (up to the cap) admitting a working sigma.

    Returns (beta, sigma) or None when no grid point works below the cap;
    callers get the scanned range either way via beta_cap(k).  The
    sigma-condition is decided once per grid sigma, and the scan starts at
    the smallest beta it admits: for an integer beta, float(beta) >= x
    exactly when beta >= ceil(x).
    """
    top = math.ceil(beta_cap(k))
    _check_query(k, 1, DEFAULT_SIGMA_GRID[0])
    floors = [(math.ceil(sigma_threshold(k, s)), s)
              for s in DEFAULT_SIGMA_GRID]
    for beta in range(min(floors)[0], top + 1):
        for floor, sigma in floors:
            if beta >= floor and objective_bound(k, beta, sigma) < 1.0:
                return beta, sigma
    return None


def e_bracket(k: int, beta, sigma):
    """Two-sided bound (1-sigma)/3 <= |E_i| <= 3/(1-sigma) (p13/p1*)^alpha."""
    _check_query(k, beta, sigma)
    ratio = p13_poly(k) / p1star_poly(k)
    upper = 3.0 / (1.0 - float(sigma)) * ratio ** (-float(beta))
    return (1.0 - float(sigma)) / 3.0, upper


def e_bracket_check(k: int, beta: int, sigma) -> dict:
    """Spot-check the bracket against the exact reduced-system E_i."""
    from .model import DegreePattern
    from .reduction import reduce_system
    from .weights import dirichlet
    lo, hi = e_bracket(k, beta, sigma)
    rs = reduce_system(dirichlet(-beta), DegreePattern.default(k))
    magnitudes = [1.0] + [abs(float(e)) for e in rs.E]
    within = [lo <= m <= hi for m in magnitudes]
    return {"lower": lo, "upper": hi, "E_abs": magnitudes,
            "all_within": all(within), "within": within}


def five_k_rule(k: int, sigma=0.985) -> dict:
    """Does the fixed recipe beta = 5k, sigma = 0.985 certify this k?"""
    beta = 5 * k
    cond = sigma_condition(k, beta, sigma)
    bound = objective_bound(k, beta, sigma)
    return {"k": k, "beta": beta, "sigma": sigma,
            "sigma_condition": cond, "bound": bound,
            "holds": cond and bound < 1.0}


def check_five_k_readings(lo: int = 10, hi: int = 60) -> dict:
    """The source sentence says the recipe works 'for any k <= 18' but its
    context (decay in k, 'it holds for k=18') reads k >= 18; report which
    interpretation survives computation."""
    below = all(five_k_rule(k)["holds"] for k in range(lo, 19))
    above = all(five_k_rule(k)["holds"] for k in range(18, hi + 1))
    return {"k_le_18_reading": below, "k_ge_18_reading": above,
            "checked_up_to": hi}


def reproduce_table5() -> list:
    """Per published row: condition verdicts, threshold and cap checks."""
    from .reference_data import TABLE5_ROWS
    report = []
    for row in TABLE5_ROWS:
        sigma = float(row.sigma)
        threshold = sigma_threshold(row.k, sigma)
        bound = objective_bound(row.k, row.beta, sigma)
        cap = beta_cap(row.k)
        report.append({
            "k": row.k, "beta": row.beta, "sigma": sigma,
            "sigma_condition": sigma_condition(row.k, row.beta, sigma),
            "computed_threshold": threshold,
            "printed_threshold": row.beta_gt,
            "threshold_match": abs(threshold - row.beta_gt) <= 2.0,
            "computed_bound": bound,
            "printed_bound": row.objective_lt,
            "bound_below_one": bound < 1.0,
            "cap": cap,
            "cap_ok": row.beta <= cap,
        })
    return report
