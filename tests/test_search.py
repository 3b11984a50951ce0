import math
import random
import re
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add

import pytest

from zkwander.certify import verify
from zkwander.errors import InvalidPatternError, NoAdmissibleSystemError
from zkwander.recovery import attach_register, auto_register, recover
from zkwander.reduction import c_grid, c_values, objective_B1, reduce_system
from zkwander.reference_data import TABLE1_ROWS, TABLE2_ROWS
from zkwander.search import (_GRID, DEFAULT_D_GRID, SIMPLEX_FATOL,
                             SIMPLEX_MAXITER, SIMPLEX_XATOL, SearchConfig,
                             _doubles, _evaluator, _log_objective,
                             _nelder_mead, _scan, confirm_value, minimize)
from zkwander.model import DegreePattern
from zkwander.scalars import INTERVAL, Interval, to_regime
from zkwander.weights import dirichlet, exact_regime


@pytest.fixture(scope="module")
def best16():
    return minimize(SearchConfig(alpha=-16))


class TestConfig:

    def test_strategy_validated(self):
        with pytest.raises(ValueError):
            SearchConfig(alpha=-16, strategy="annealing")

    @pytest.mark.parametrize("knob", ["target", "threshold"])
    def test_removed_knob_is_refused(self, knob):
        # every search minimizes B_1 and lands against 1
        with pytest.raises(TypeError, match=f"argument '{knob}'"):
            SearchConfig(alpha=-16, **{knob: 1})

    @pytest.mark.parametrize("field", ["k", "phi2", "phi3"])
    @pytest.mark.parametrize("value", ["6", 6.0, [6, "x"], None])
    def test_degrees_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be one integer, "
                           f"not {re.escape(repr(value))}$"):
            SearchConfig(alpha=-16, **{field: value})

    @pytest.mark.parametrize("alpha", [None, "x", "1/0", [-16, None]])
    def test_alpha_must_be_rational(self, alpha):
        with pytest.raises((TypeError, ValueError, ZeroDivisionError)):
            SearchConfig(alpha=alpha)

    @pytest.mark.parametrize("field", ["alpha"])
    def test_huge_exponent_string_is_refused_at_once(self, field):
        # Fraction alone forms 10^99999999, which takes minutes
        with pytest.raises(ValueError,
                           match="cannot parse '1e99999999' as a rational"):
            SearchConfig(**{"alpha": -16, field: "1e99999999"})

    @pytest.mark.parametrize("field", ["alpha", "k", "phi2", "phi3"])
    @pytest.mark.parametrize("value", [True, [6, False], [], [-16, -12],
                                       (0,)])
    def test_booleans_and_empty_lists_are_refused(self, field, value):
        # True is an int to Python; a search takes one system, so no list
        # or tuple is a value, an empty or one-member one included
        kind = "rational" if field == "alpha" else "integer"
        with pytest.raises(ValueError, match=f"^{field} must be one {kind}, "
                           f"not {re.escape(repr(value))}$"):
            SearchConfig(**{"alpha": -16, field: value})

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_an_alpha_that_is_not_finite_is_refused(self, alpha):
        # in the words every rational input is refused in
        with pytest.raises(ValueError, match=f"^cannot parse '{alpha!r}' "
                           "as a rational$"):
            SearchConfig(alpha=alpha)


class TestMinimize:

    def test_flagship_alpha_lands_well_below_one(self, best16):
        assert best16.below_threshold
        assert best16.landing_side == "below"
        assert best16.regime == "rational"
        assert best16.value < 0.03

    def test_deterministic(self, best16):
        again = minimize(SearchConfig(alpha=-16))
        assert again.d == best16.d
        assert again.value == best16.value
        assert again.evaluations == best16.evaluations

    def test_descent_improves_on_the_grid(self):
        plain = minimize(SearchConfig(alpha=-16, strategy="grid"))
        best = minimize(SearchConfig(alpha=-16))
        assert best.value <= plain.value

    def test_simplex_keeps_or_improves_the_seed(self):
        plain = minimize(SearchConfig(alpha=-16, strategy="grid"))
        nm = minimize(SearchConfig(alpha=-16, strategy="simplex"))
        assert nm.value <= plain.value

    def test_simplex_keeps_a_better_grid_seed(self, monkeypatch):
        import zkwander.search
        plain = minimize(SearchConfig(alpha=-16, strategy="grid"))
        # a Nelder-Mead that walks away from its seed, in 5 evaluations
        monkeypatch.setattr(zkwander.search, "_nelder_mead",
                            lambda f, x0: ([u + 3 for u in x0], 5))
        nm = minimize(SearchConfig(alpha=-16, strategy="simplex"))
        assert (nm.d, nm.value) == (plain.d, plain.value)
        assert nm.evaluations == plain.evaluations + 6

    def test_found_point_supports_a_full_certificate(self, best16, seq16,
                                                     pattern6):
        rs = reduce_system(seq16, pattern6)
        params = recover(rs, best16.d)
        reg = auto_register(params)
        cert = verify(attach_register(params, reg, reg).pair, seq16)
        assert cert.verdict == "pass"
        assert float(cert.c_value) < 1

    def test_hardy_weights_have_no_admissible_system(self):
        # t -> omega_t is affine at alpha = 0, so N_1 is singular
        with pytest.raises(NoAdmissibleSystemError, match="^the system is "
                           "singular or degenerate: "):
            minimize(SearchConfig(alpha=0))

    def test_singular_members_are_skipped_not_fatal(self):
        # a search takes one system: a caller walking several skips a
        # singular one on its named error and goes on to the next
        found = {}
        for alpha in (0, -16):
            try:
                found[alpha] = minimize(SearchConfig(alpha=alpha))
            except NoAdmissibleSystemError as exc:
                assert "singular" in str(exc)
        assert list(found) == [-16]
        assert found[-16].alpha == -16
        assert found[-16].singular_skipped == 0

    def test_no_valid_pattern_names_the_pattern_error(self):
        # k = 5 leaves no room for six degrees distinct mod k
        with pytest.raises(InvalidPatternError, match="not distinct mod k=5"):
            minimize(SearchConfig(alpha=-16, k=5))

    def test_a_system_whose_det_underflows_doubles_is_searched(self):
        # det N_1 ~ 1e-330 is 0.0 in doubles, which once made this system
        # "singular"; the search walks the rational reduction's doubles
        res = minimize(SearchConfig(alpha=-64, k=27))
        assert res.regime == "rational"
        assert res.landing_side == "below"
        assert res.singular_skipped == 0
        assert 0 < res.value < 1e-17

    def test_a_system_outside_the_replay_bounds_is_refused(self):
        # the bounds certificate replay applies, before any weight is formed
        with pytest.raises(ValueError, match=r"^alpha = 300000 is outside"):
            minimize(SearchConfig(alpha=300000))
        with pytest.raises(ValueError, match=r"^k must lie in 1\.\.10000"):
            minimize(SearchConfig(alpha=-16, k=10001))
        # inside them (gamma_3 = 600003) a weight with no double is refused
        # by name
        with pytest.raises(NoAdmissibleSystemError, match=r"^600010\^\(-64\) "
                           "lies outside the range of doubles$"):
            minimize(SearchConfig(alpha=-64, k=6, phi3=100000))

    def test_an_interval_c5_that_straddles_zero_is_undecided(self):
        # at the simplex point of this published row the interval
        # C_5 = C_1 C_4 - C_3^2/4 contains 0: the point is reported, and
        # confirm_value says the same of it
        row = next(r for r in TABLE2_ROWS if r.k == 47)
        config = SearchConfig(alpha=row.alpha, k=row.k, phi2=row.phi2,
                              phi3=row.phi3, strategy="simplex")
        res = minimize(config)
        assert (res.regime, res.landing_side) == ("interval", "undecided")
        assert not res.below_threshold
        assert res.value == math.inf
        assert re.fullmatch(r"C5 = \[-.*\] is not certifiably positive",
                            res.value_repr)
        pattern = DegreePattern.from_phi(row.k, row.phi2, row.phi3)
        assert confirm_value(dirichlet(row.alpha), pattern, res.d) == (
            res.value, res.value_repr, res.regime, res.landing_side)

    def test_a_search_with_no_finite_point_says_so(self, monkeypatch):
        import zkwander.search
        monkeypatch.setitem(zkwander.search._OBJECTIVES, "B1",
                            lambda c: math.inf)
        with pytest.raises(NoAdmissibleSystemError, match="^B_1 is not "
                           "finite at any of the 729 points searched$"):
            minimize(SearchConfig(alpha=-16, strategy="grid"))


class TestConfirm:

    def test_flagship_point_confirms_below_one(self, seq16, pattern6):
        vf, vrepr, regime, side = confirm_value(seq16, pattern6, (1, 4, 6))
        assert side == "below"
        assert regime == "rational"
        assert vf == pytest.approx(0.02323523492261636)
        assert Fraction(vrepr) < 1

    def test_a_point_above_one_lands_above(self, pattern6):
        # the grid's best point at alpha = -4, where B_1 ~ 360
        vf, _, regime, side = confirm_value(dirichlet(-4), pattern6,
                                            (10, 1000000, 10))
        assert (regime, side) == ("rational", "above")
        assert vf > 1

    def test_exact_tie_is_undecided(self, seq16, pattern6, monkeypatch):
        import zkwander.search
        monkeypatch.setitem(zkwander.search._OBJECTIVES, "B1",
                            lambda c: Fraction(1))
        assert confirm_value(seq16, pattern6, (1, 4, 6))[2:] == (
            "rational", "undecided")

    def test_an_enclosure_of_one_is_undecided(self, seq16, pattern6,
                                               monkeypatch):
        import zkwander.search
        monkeypatch.setitem(zkwander.search._OBJECTIVES, "B1",
                            lambda c: Interval(0.5, 2.0))
        assert confirm_value(seq16, pattern6, (1, 4, 6))[3] == "undecided"

    def test_non_integer_alpha_confirms_through_enclosures(self):
        seq = dirichlet(Fraction(-4999, 1000))
        pattern = DegreePattern.from_phi(6, 2, 34)
        vf, vrepr, regime, side = confirm_value(seq, pattern, (4, 11, 100000))
        assert regime == "interval"
        assert side == "below"
        assert vrepr.startswith("[")


@pytest.fixture
def solves(monkeypatch):
    """The argument lists of every cramer_solve3 call reduce_system makes."""
    import zkwander.reduction
    calls, real = [], zkwander.reduction.cramer_solve3

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(zkwander.reduction, "cramer_solve3", spy)
    return calls


class TestOneReduction:
    """A search's confirmation and pipeline's recovery reuse the search's
    reduction of the weight block."""

    @pytest.mark.parametrize("alpha", [-16, Fraction(-33, 2)],
                             ids=["rational", "interval"])
    def test_minimize_then_confirm_value_solves_once(self, alpha, solves):
        res = minimize(SearchConfig(alpha=alpha))
        confirmed = confirm_value(dirichlet(alpha), DegreePattern.default(6),
                                  res.d)
        assert len(solves) == 1
        assert confirmed == (res.value, res.value_repr, res.regime,
                             res.landing_side)
        assert res.regime == ("rational" if alpha == -16 else "interval")

    def test_pipeline_without_d_solves_once(self, solves, tmp_path):
        from zkwander.cli import main
        searched, given = tmp_path / "searched.json", tmp_path / "given.json"
        assert main(["pipeline", "--alpha", "-16", "--out",
                     str(searched)]) == 0
        assert len(solves) == 1
        d = minimize(SearchConfig(alpha=-16)).d
        assert main(["pipeline", "--alpha", "-16", "--d",
                     ",".join(map(str, d)), "--out", str(given)]) == 0
        assert searched.read_bytes() == given.read_bytes()


def _row_id(row) -> str:
    return f"{row.alpha}-{row.k}-{row.phi2}-{row.phi3}"


def _system_in_doubles(alpha, pattern):
    """What the search walks: the doubles of the system reduced in the
    regime that proves it."""
    seq = dirichlet(alpha)
    return _doubles(reduce_system(seq, pattern,
                                  exact_regime(seq, pattern.matrix_indices())))


def _reference_c_values(w1, w2, H, D, dd) -> tuple:
    """C_1..C_5 at dd formed from scratch, every sum folded left from 0."""
    c1 = reduce(add, (dd[i] * w1[i] for i in range(4)), 0)
    c2 = w2[0] / dd[0]
    for i in (1, 2, 3):
        c2 = c2 + H[i - 1] * w2[i] / dd[i]
    c3 = 2 * reduce(add, (D[i - 1] * dd[i] * w1[i] for i in (1, 2, 3)), 0)
    c4 = reduce(add, (D[i - 1] * D[i - 1] * dd[i] * w1[i]
                      for i in (1, 2, 3)), 0)
    return c1, c2, c3, c4, c1 * c4 - c3 * c3 / 4


def _fields(c) -> tuple:
    """C_1..C_5 of a CQuantities record."""
    return c.C1, c.C2, c.C3, c.C4, c.C5


def _exact_points(row, n=6) -> list:
    """The row's published (1, d1, d2, d3) and n seeded random rational d."""
    rng = random.Random(_row_id(row))
    return [(Fraction(1),) + row.d] + [
        tuple(Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 3))
              for _ in range(4)) for _ in range(n)]


class TestCValues:
    """The per-system evaluator against the formula formed per point."""

    @pytest.mark.parametrize("row", TABLE1_ROWS + TABLE2_ROWS, ids=_row_id)
    def test_exact_regimes_give_the_same_values(self, row):
        seq = dirichlet(row.alpha)
        pattern = DegreePattern.from_phi(row.k, row.phi2, row.phi3)
        for regime in dict.fromkeys(
                (exact_regime(seq, pattern.matrix_indices()), INTERVAL)):
            rs = reduce_system(seq, pattern, regime)
            args = (rs.W[0], rs.W[1], rs.H, rs.D)
            at = c_values(*args)
            for d in _exact_points(row):
                dd = tuple(to_regime(v, regime) for v in d)
                got, ref = _fields(at(*dd)), _reference_c_values(*args, dd)
                if regime == INTERVAL:
                    assert [(c.lo, c.hi) for c in got] == \
                        [(c.lo, c.hi) for c in ref]
                else:
                    assert all(type(c) is Fraction for c in got + ref)
                    assert got == ref

    @pytest.mark.parametrize("row", TABLE1_ROWS + TABLE2_ROWS, ids=_row_id)
    def test_doubles_are_the_same_bits(self, row):
        pattern = DegreePattern.from_phi(row.k, row.phi2, row.phi3)
        rows = _system_in_doubles(row.alpha, pattern)
        at = c_values(*rows)
        rng = random.Random(_row_id(row))
        grid = list(product(DEFAULT_D_GRID, repeat=3))
        points = ([(1.0, *map(float, row.d))]
                  + [(1.0, *d) for d in grid[::37]]
                  + [tuple(10 ** rng.uniform(-3, 7) for _ in range(4))
                     for _ in range(20)])
        for dd in points:
            assert [c.hex() for c in _fields(at(*dd))] == \
                [c.hex() for c in _reference_c_values(*rows, dd)]

    @pytest.mark.parametrize("row", TABLE1_ROWS + TABLE2_ROWS, ids=_row_id)
    def test_the_grid_form_gives_the_same_bits(self, row):
        # every system explore searches near the row: alpha moved by each
        # offset, the published row at 0
        pattern = DegreePattern.from_phi(row.k, row.phi2, row.phi3)
        for offset in (Fraction(-1, 2), Fraction(-1, 4), 0, Fraction(1, 4)):
            rows = _system_in_doubles(row.alpha + offset, pattern)
            at = c_values(*rows)
            records = list(c_grid(*rows, DEFAULT_D_GRID))
            assert [c.d for c in records] == [(1.0, *p) for p in _GRID]
            for p, c in zip(_GRID, records):
                assert [v.hex() for v in _fields(c)] == \
                    [v.hex() for v in _fields(at(1.0, *p))]


class TestFloatSystem:
    """The search's system in doubles against the rigorous value."""

    @pytest.mark.parametrize("row", TABLE1_ROWS + TABLE2_ROWS, ids=_row_id)
    def test_b1_agrees_with_confirm_value(self, row):
        seq = dirichlet(row.alpha)
        pattern = DegreePattern.from_phi(row.k, row.phi2, row.phi3)
        f = _evaluator(_system_in_doubles(row.alpha, pattern), objective_B1)
        grid = list(product(DEFAULT_D_GRID, repeat=3))
        for d in [tuple(map(float, row.d))] + grid[::37]:
            exact = confirm_value(seq, pattern, d)[0]
            assert f(*d) == pytest.approx(exact, rel=1e-9, abs=0)

    def test_a_d_that_underflows_to_zero_is_infinite(self):
        # 10^-400 is 0.0 in doubles: like an overflow, a +inf, never an
        # error raised out of minimize
        f = _log_objective(_evaluator(
            _system_in_doubles(-16, DegreePattern.default(6)), objective_B1))
        assert f([-400.0, 0.0, 0.0]) == math.inf
        assert f([400.0, 0.0, 0.0]) == math.inf
        assert math.isfinite(f([0.0, 0.0, 0.0]))

    def test_the_scan_calls_the_objective_once_per_grid_point(self):
        # every point of the grid is admissible at alpha = -16, k = 6
        calls = []

        def counted(c):
            calls.append(c.d)
            return objective_B1(c)
        rows = _system_in_doubles(-16, DegreePattern.default(6))
        point, value, evals = _scan(rows, counted)
        assert len(calls) == evals == 729
        assert calls == [(1.0, *p) for p in _GRID]
        assert value == _evaluator(rows, objective_B1)(*point)


class TestTables:
    """The published rows Tables 1 and 2 print, and `reproduce` recomputes,
    none of them singular."""

    @pytest.mark.parametrize("table_id", [1, 2])
    def test_published_rows_reproduce(self, table_id):
        rows = TABLE1_ROWS if table_id == 1 else TABLE2_ROWS
        assert rows
        for row in rows:
            value, _, _, side = confirm_value(
                dirichlet(row.alpha),
                DegreePattern.from_phi(row.k, row.phi2, row.phi3), row.d)
            assert side == "below"
            assert 0.5 < value / float(Fraction(row.b1_printed)) < 2

    def test_re_search_beats_every_printed_row(self):
        for row in TABLE1_ROWS:
            res = minimize(SearchConfig(alpha=row.alpha, k=row.k,
                                        phi2=row.phi2, phi3=row.phi3))
            assert res.below_threshold
            assert res.value <= float(Fraction(row.b1_printed)) * 1.001


def _scipy_nelder_mead(f, x0):
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.minimize(lambda u: f([float(v) for v in u]), x0,
                            method="Nelder-Mead",
                            options={"maxiter": SIMPLEX_MAXITER,
                                     "xatol": SIMPLEX_XATOL,
                                     "fatol": SIMPLEX_FATOL})
    return [float(v) for v in res.x], int(res.nfev)


def _rosenbrock(x):
    return sum(100 * (b - a * a) ** 2 + (1 - a) ** 2
               for a, b in zip(x, x[1:]))


class TestNelderMead:

    @pytest.mark.parametrize("row", TABLE1_ROWS + TABLE2_ROWS, ids=_row_id)
    def test_iterates_match_scipy_from_each_grid_seed(self, row):
        pattern = DegreePattern.from_phi(row.k, row.phi2, row.phi3)
        rows = _system_in_doubles(row.alpha, pattern)
        seed, _, _ = _scan(rows, objective_B1)
        f = _log_objective(_evaluator(rows, objective_B1))
        x0 = [math.log10(v) for v in seed]
        assert _nelder_mead(f, x0) == _scipy_nelder_mead(f, x0)

    @pytest.mark.parametrize("f, x0", [
        # a zero coordinate starts its vertex at 0.00025, not 5% off
        (_rosenbrock, [0.0, -1.2, 0.0]),
        # NaN sorts last: the first step of x_0 past 1 is NaN
        (lambda x: math.nan if x[0] > 1 else (x[0] - 2) ** 2 + x[1] ** 2,
         [0.98, 0.5]),
    ], ids=["zero-start", "nan-region"])
    def test_iterates_match_scipy(self, f, x0):
        assert _nelder_mead(f, x0) == _scipy_nelder_mead(f, x0)

    def test_converges_on_a_quadratic(self):
        x, nfev = _nelder_mead(lambda x: (x[0] - 3) ** 2 + (x[1] + 1) ** 2,
                               [0.0, 0.0])
        assert x == pytest.approx([3, -1], abs=1e-6)
        assert nfev < 2 * SIMPLEX_MAXITER
