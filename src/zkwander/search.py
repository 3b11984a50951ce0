"""Minimization of B_1 = 4 C_2 C_5 / C_1 over d for one system.

A search takes one system, fixed by alpha, k and phi as a row of the
published tables is.  It is reduced once, in the regime that proves it
(``exact_regime``), and searched in doubles of that reduction for speed
through one evaluator, ``_evaluator`` on ``c_values``, which forms the
system's d-free parts once; the search is a heuristic.  The point it finds
is re-evaluated on the same reduced system before being reported, so the
reported value and landing side are rigorous even though the path that
found the point is not.  Every search lands against B_1 = 1.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add

from .certify import check_bounds
from .errors import (DegenerateReductionError, ModeUnsupportedError,
                     NoAdmissibleSystemError, SingularSystemError)
from .model import DegreePattern
from .record import Record, store
from .recovery import _round_significant
from .reduction import (CQuantities, ReducedSystem, c_values, compute_C,
                        objective_B1, reduce_system)
from .scalars import scalar_text, strictly_less, to_float
from .weights import WeightSequence, dirichlet, exact_regime

# d ranges over five-plus orders of magnitude in the published tables,
# so the grid every search scans is logarithmic and wide.
DEFAULT_D_GRID = tuple(float(10) ** n for n in range(-2, 7))
_GRID = tuple(product(DEFAULT_D_GRID, repeat=3))    # the (d1, d2, d3) scanned

DESCENT_STEPS = (2.0, 1.1, 1.01)

# Nelder-Mead iteration cap and stopping tolerances, in log10 d and in
# objective value.
SIMPLEX_MAXITER = 600
SIMPLEX_XATOL = 1e-8
SIMPLEX_FATOL = 1e-12

STRATEGIES = ("grid", "coordinate-descent", "simplex")

# one entry; the bench's tracer self-test reads and patches it
_OBJECTIVES = {"B1": objective_B1}


class SearchConfig(Record):
    __slots__ = ("alpha", "k", "phi2", "phi3", "strategy")

    def __init__(self, alpha, k=6, phi2=0, phi3=0,
                 strategy="coordinate-descent"):
        # one system per search; a bool is an int to Python, but no
        # exponent or degree
        if isinstance(alpha, (bool, list, tuple)):
            raise ValueError(f"alpha must be one rational, not {alpha!r}")
        dirichlet(alpha)                # raises unless alpha is a rational
        for name, value in (("k", k), ("phi2", phi2), ("phi3", phi3)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be one integer, not {value!r}")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        store(self, "alpha", alpha)
        store(self, "k", k)
        store(self, "phi2", phi2)
        store(self, "phi3", phi3)
        store(self, "strategy", strategy)


class SearchResult(Record):
    __slots__ = ("alpha", "k", "phi2", "phi3", "d", "value", "value_repr",
                 "regime", "evaluations", "below_threshold", "landing_side",
                 "singular_skipped")

    def __init__(self, alpha, k, phi2, phi3, d, value, value_repr, regime,
                 evaluations, below_threshold, landing_side,
                 singular_skipped=0):
        store(self, "alpha", alpha)
        store(self, "k", k)
        store(self, "phi2", phi2)
        store(self, "phi3", phi3)
        store(self, "d", d)     # (d1, d2, d3); d0 is fixed to 1
        store(self, "value", value)
        store(self, "value_repr", value_repr)   # exact or enclosed value
        store(self, "regime", regime)
        store(self, "evaluations", evaluations)
        store(self, "below_threshold", below_threshold)
        store(self, "landing_side", landing_side)   # below/above/undecided
        # always 0 since a search takes one system; bench/tracer.py reads it
        store(self, "singular_skipped", singular_skipped)


def _double(x) -> float:
    """x as a double; +-inf past the largest one."""
    try:
        return to_float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _doubles(rs: ReducedSystem) -> list:
    """[W_1, W_2, H, D] of the reduced system in doubles, the arguments of
    ``c_values`` that ``_evaluator`` takes; a weight of rows 1 and 2 with no
    double raises ModeUnsupportedError naming it."""
    rows = [tuple(map(_double, v)) for v in (*rs.W[:2], rs.H, rs.D)]
    for t, w in zip(rs.pattern.matrix_indices(), rows[0] + rows[1]):
        if not 0 < w < math.inf:
            raise ModeUnsupportedError(
                f"{t + 1}^({rs.seq.alpha}) lies outside the range of doubles")
    return rows


def _evaluator(rs, objective):
    """f(d1, d2, d3), the objective at (1, d1, d2, d3) of the system in
    doubles ``rs``; +inf unless C_1, C_2, C_4 and C_5 > 0."""
    at = c_values(*rs)

    def f(d1, d2, d3) -> float:
        try:
            c1, c2, c3, c4, c5 = at(1.0, d1, d2, d3)
        except ZeroDivisionError:
            return math.inf
        if not (c1 > 0 and c2 > 0 and c4 > 0 and c5 > 0):
            return math.inf
        return float(objective(CQuantities((1.0, d1, d2, d3),
                                           c1, c2, c3, c4, c5)))
    return f


def _scan(f):
    values = [f(*p) for p in _GRID]
    best_i = min(range(len(_GRID)), key=values.__getitem__)
    return _GRID[best_i], values[best_i], len(_GRID)


def _descend(f, seed, seed_value):
    """Deterministic multiplicative coordinate descent from a grid seed."""
    d = list(seed)
    best = seed_value
    evals = 0
    for step in DESCENT_STEPS:
        improved = True
        while improved:
            improved = False
            for i in range(3):
                for factor in (step, 1.0 / step):
                    trial = d.copy()
                    trial[i] *= factor
                    v = f(*trial)
                    evals += 1
                    if v < best:
                        best, d = v, trial
                        improved = True
    return tuple(d), best, evals


def _nelder_mead(f, x0):
    """Minimize f from x0 by the simplex method of Nelder and Mead (1965).

    The classic non-adaptive variant: the start moves each coordinate by
    5% (to 0.00025 from zero); reflection 1, expansion 2, contraction and
    shrink 1/2; the outside contraction is accepted on <=, the inside one
    on <; after every step the simplex is stably sorted by value, NaN
    last; at most SIMPLEX_MAXITER - 1 steps. Its arithmetic is ordered so
    that the iterates agree bit for bit with the common reference
    implementation (tests/test_search.py compares them), except after a
    tie, which a reference that sorts unstably may reorder. Returns the
    best vertex and the number of evaluations.
    """
    n = len(x0)
    nfev = 0

    def evaluated(x):
        nonlocal nfev
        nfev += 1
        return f(x), x

    def rank(vertex):
        return math.isnan(vertex[0]), vertex[0]

    starts = [list(x0)]
    for i in range(n):
        y = list(x0)
        y[i] = 1.05 * y[i] if y[i] != 0 else 0.00025
        starts.append(y)
    simplex = sorted(map(evaluated, starts), key=rank)
    for _ in range(SIMPLEX_MAXITER - 1):
        (fbest, best), (fworst, worst) = simplex[0], simplex[-1]
        if (all(abs(v - b) <= SIMPLEX_XATOL
                for _, x in simplex[1:] for v, b in zip(x, best))
                and all(abs(fbest - fx) <= SIMPLEX_FATOL
                        for fx, _ in simplex[1:])):
            break
        # summed left to right, as the reference does; sum() compensates
        # on Python 3.12+
        xbar = [reduce(add, column) / n
                for column in zip(*(x for _, x in simplex[:-1]))]

        def toward(a):
            """(1 + a) * centroid - a * worst, evaluated."""
            return evaluated([(1 + a) * c - a * w
                              for c, w in zip(xbar, worst)])

        reflected = toward(1)
        if reflected[0] < fbest:
            expanded = toward(2)
            simplex[-1] = expanded if expanded[0] < reflected[0] else reflected
        elif reflected[0] < simplex[-2][0]:
            simplex[-1] = reflected
        else:
            if reflected[0] < fworst:
                contracted = toward(0.5)
                accepted = contracted[0] <= reflected[0]
            else:
                contracted = toward(-0.5)      # inside, toward the worst
                accepted = contracted[0] < fworst
            if accepted:
                simplex[-1] = contracted
            else:
                simplex[1:] = [evaluated([b + 0.5 * (v - b)
                                          for v, b in zip(x, best)])
                               for _, x in simplex[1:]]
        simplex.sort(key=rank)
    return simplex[0][1], nfev


def _log_objective(f):
    """f as a function of log10 d; +inf where 10^u overflows."""
    def g(logd):
        try:
            point = [10.0 ** u for u in logd]
        except OverflowError:
            return math.inf
        return f(*point)
    return g


def _simplex(f, seed, seed_value):
    x, nfev = _nelder_mead(_log_objective(f), [math.log10(v) for v in seed])
    point = tuple(10.0 ** u for u in x)
    value = f(*point)
    if value <= seed_value:
        return point, value, nfev + 1
    return seed, seed_value, nfev + 1


def _confirm(rs: ReducedSystem, d3) -> tuple:
    """``confirm_value`` on a system already reduced."""
    d_exact = tuple(v if isinstance(v, Fraction) else Fraction(str(v))
                    for v in d3)
    try:
        c = compute_C(rs, d_exact)
    except DegenerateReductionError as exc:
        # a C_i the regime cannot certify positive orders nothing
        return math.inf, str(exc), rs.regime, "undecided"
    value = _OBJECTIVES["B1"](c)
    if strictly_less(value, 1):
        side = "below"
    elif strictly_less(1, value):
        side = "above"
    else:
        side = "undecided"
    return to_float(value), scalar_text(value), rs.regime, side


def confirm_value(seq: WeightSequence, pattern: DegreePattern, d3):
    """Re-evaluate B_1 rigorously at an exact rational point.

    Returns (value_float, value_repr, regime, landing_side), the regime
    being ``exact_regime`` of the matrix weights. The side is "below" or
    "above" 1, and "undecided" when the regime cannot order B_1 strictly
    against 1, an exact tie included, or cannot certify C_1, C_2, C_4 and
    C_5 positive, when the value is inf and its text the reason.
    """
    rs = reduce_system(seq, pattern,
                       exact_regime(seq, pattern.matrix_indices()))
    return _confirm(rs, d3)


def minimize(config: SearchConfig) -> SearchResult:
    """Search d for the config's one system and return the best point.

    Raises InvalidPatternError when (k, phi2, phi3) forms no valid pattern,
    ValueError when the system lies outside the replay bounds, and
    NoAdmissibleSystemError, naming the cause, when the system is singular
    or degenerate, a weight has no double, or no point searched gives a
    finite B_1.  Deterministic: grid order is fixed, the descent ladder is
    fixed, and the simplex start is derived from the grid.
    """
    seq = dirichlet(config.alpha)
    pattern = DegreePattern.from_phi(config.k, config.phi2, config.phi3)
    check_bounds(pattern, seq)
    try:
        system = reduce_system(seq, pattern,
                               exact_regime(seq, pattern.matrix_indices()))
        f = _evaluator(_doubles(system), _OBJECTIVES["B1"])
    except (SingularSystemError, DegenerateReductionError) as exc:
        raise NoAdmissibleSystemError(
            f"the system is singular or degenerate: {exc}") from exc
    except ModeUnsupportedError as exc:
        raise NoAdmissibleSystemError(str(exc)) from exc
    point, value, evals = _scan(f)
    if config.strategy != "grid":
        refine = _simplex if config.strategy == "simplex" else _descend
        point, value, n = refine(f, point, value)
        evals += n
    if not math.isfinite(value):
        raise NoAdmissibleSystemError(
            f"B_1 is not finite at any of the {evals} points searched")
    reported = tuple(_round_significant(v, 9) for v in point)
    vf, vrepr, regime, side = _confirm(system, reported)
    return SearchResult(
        alpha=config.alpha, k=config.k, phi2=config.phi2, phi3=config.phi3,
        d=reported, value=vf, value_repr=vrepr, regime=regime,
        evaluations=evals, below_threshold=(side == "below"),
        landing_side=side)


def reproduce_table(table_id: int, mode: str = "evaluate-rows") -> list:
    """Compare against the published k=6 table (1) or the k>6 table (2).

    evaluate-rows recomputes the objective at each printed row's exact
    parameters; re-search runs the minimizer with the row's pattern and
    reports what it finds. Every row dict carries the printed value, the
    computed value, their ratio, and which side of 1 the rigorous
    recomputation lands on.
    """
    from .reference_data import TABLE1_ROWS, TABLE2_ROWS
    if table_id == 1:
        rows = TABLE1_ROWS
    elif table_id == 2:
        rows = TABLE2_ROWS
    else:
        raise ValueError("table_id must be 1 or 2")
    if mode not in ("evaluate-rows", "re-search"):
        raise ValueError(f"unknown mode {mode!r}")
    report = []
    for row in rows:
        entry = {"alpha": str(row.alpha), "k": row.k, "phi2": row.phi2,
                 "phi3": row.phi3,
                 "d": tuple(str(v) for v in row.d),
                 "printed_B1": row.b1_printed}
        pattern = DegreePattern.from_phi(row.k, row.phi2, row.phi3)
        seq = dirichlet(row.alpha)
        if mode == "evaluate-rows":
            try:
                vf, vrepr, regime, side = confirm_value(seq, pattern, row.d)
            except (SingularSystemError, DegenerateReductionError) as exc:
                entry.update(singular=True, error=str(exc))
                report.append(entry)
                continue
            printed = float(Fraction(row.b1_printed))
            entry.update(singular=False, computed_B1=vf, regime=regime,
                         ratio=vf / printed, landing_side=side,
                         value_repr=vrepr)
        else:
            config = SearchConfig(alpha=row.alpha, k=row.k, phi2=row.phi2,
                                  phi3=row.phi3)
            try:
                res = minimize(config)
            except NoAdmissibleSystemError as exc:
                entry.update(singular=True, error=str(exc))
                report.append(entry)
                continue
            entry.update(singular=False, computed_B1=res.value,
                         found_d=tuple(str(v) for v in res.d),
                         below_one=res.below_threshold,
                         landing_side=res.landing_side,
                         evaluations=res.evaluations)
        report.append(entry)
    return report
