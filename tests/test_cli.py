import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zkwander.cli import _parse_fraction, main
from zkwander.model import DegreePattern
from zkwander.weights import dirichlet, perturbed, weight, weights_from_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:

    def test_flagship_values(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "-16", "--d", "1,4,6")
        assert code == 0
        assert "B2 = 0.02792549252831457" in out
        assert "B1 = 0.02323523492261636" in out
        assert "regime = rational" in out

    def test_z3_block(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "-16", "--d", "1,4,6",
                           "--z3", "-2e13", "--z1", "7")
        assert code == 0
        assert "Z1* = 6.129609936437393" in out
        assert "min B0 = 0.18878296729187" in out
        assert "B0 = " in out

    def test_non_integer_alpha_prints_enclosures(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "-33/2")
        assert code == 0
        assert "regime = interval" in out
        assert "det_N1 = [" in out

    def test_emit_weights_exact(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "-16", "--emit-weights")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("omega[")]
        assert len(lines) == 12
        assert f"omega[6] = {Fraction(1, 7 ** 16)}" in out

    def test_emit_weights_follows_the_interval_regime(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "-16", "--emit-weights",
                           "--regime", "interval")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 12
        assert all(line.startswith("omega[") and line.endswith("]")
                   for line in lines)

    def test_emit_weights_refuses_rational_at_non_integer_alpha(self, capsys):
        code, out, err = run(capsys, "eval", "--alpha", "-33/2",
                             "--emit-weights", "--regime", "rational")
        assert (code, out) == (1, "")
        assert "rational regime needs an integer exponent" in err

    @pytest.mark.parametrize("alpha", ["0", "1"])
    def test_emit_weights_needs_no_reduction(self, capsys, alpha):
        # the weights exist where the 3x3 weight system is singular
        code, out, err = run(capsys, "eval", "--alpha", alpha,
                             "--emit-weights")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 12
        assert all(line.startswith("omega[") for line in lines)
        assert f"omega[21] = {22 ** int(alpha)}" in lines

    @pytest.mark.parametrize("flags", [
        ("--d", "1,4,6"), ("--z3", "-2e13"), ("--z1", "7"),
        ("--z3", "-2e13", "--z1", "7"),
    ], ids=["d", "z3", "z1", "z3-z1"])
    def test_emit_weights_refuses_the_point_flags(self, capsys, monkeypatch,
                                                 flags):
        # they were ignored: the 12 weights printed and the exit was 0
        import zkwander.cli

        def no_weight(*args):
            raise AssertionError("eval evaluated a weight")
        monkeypatch.setattr(zkwander.cli, "weight", no_weight)
        code, out, err = run(capsys, "eval", "--alpha", "-16",
                             "--emit-weights", *flags)
        assert (code, out) == (1, "")
        assert err == ("error: --emit-weights prints only the weights; it "
                       "takes no --d, --z3 or --z1\n")

    def test_override_base_is_a_pipeline_flag(self, capsys):
        # eval reads only the 12 matrix weights, which the flag left at
        # D_alpha's own values
        code, out, err = run(capsys, "eval", "--alpha", "-16",
                             "--override-base", "0")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --override-base 0" in err

    def test_singular_alpha_is_an_error(self, capsys):
        code, _, err = run(capsys, "eval", "--alpha", "0")
        assert code == 1
        assert "error" in err

    def test_gamma_names_the_phi_pattern_it_equals(self, capsys):
        # gamma (0, 1, 8, 3, 4, 5) is the pattern phi2 = 1, phi3 = 0 at k = 6
        b1 = "B1 = 0.006271442309486909\n"
        code, out, _ = run(capsys, "eval", "--alpha", "-16", "--gamma",
                           "0,1,8,3,4,5", "--d", "1,4,6")
        assert code == 0 and b1 in out
        code, out, _ = run(capsys, "eval", "--alpha", "-16", "--phi2", "1",
                           "--d", "1,4,6")
        assert code == 0 and b1 in out

    def test_missing_alpha_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval")
        assert code == 1
        assert "alpha" in err

    def test_float_is_no_regime(self, capsys):
        code, out, err = run(capsys, "eval", "--alpha", "-16",
                             "--regime", "float")
        assert code == 1
        assert out == ""
        assert "invalid choice: 'float' (choose from 'rational', " \
               "'interval')" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 1
        assert err

    @pytest.mark.parametrize("argv", [
        ("eval", "--alpha", "x"),
        ("eval", "--alpha", "-16", "--d", "1,4,x"),
        ("eval", "--alpha", "-16", "--z3", "1,x"),
        ("eval", "--alpha", "1/0"),
        ("eval", "--alpha", "-16", "--d", "1,4/0,6"),
        ("eval", "--alpha", "-16", "--z3", "1/0"),
        ("eval", "--alpha", "-16", "--z3", "-2e13", "--z1", "1/0"),
        ("pipeline", "--alpha", "-16", "--override-base", "1/0"),
        ("search", "--alpha", "1/0"),
        ("asymptotic", "--k", "12", "--beta", "10", "--sigma", "1/0"),
    ])
    def test_bad_rational_is_an_error_not_a_traceback(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ")
        assert "cannot parse" in err


class TestExponentForms:
    """A rational flag reads the exponent form Fraction reads, up to an
    exponent of 4300, the default integer-string limit: past it, forming
    10**e is refused before it starts."""

    @pytest.mark.parametrize("argv", [
        ("eval", "--alpha", "1e4301"),
        ("eval", "--alpha", "-16", "--d", "1,4,1e4301"),
        ("eval", "--alpha", "-16", "--z3", "-2e4301"),
        ("eval", "--alpha", "-16", "--z3", "-2e13", "--z1", "1e-4301"),
        ("pipeline", "--alpha", "-16", "--override-base", "1E+4301"),
        ("asymptotic", "--k", "12", "--beta", "10", "--sigma", "1e4301"),
    ], ids=["alpha", "d", "z3", "z1", "override-base", "sigma"])
    def test_exponent_past_the_limit_is_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        value = argv[-1].split(",")[-1]     # --d names the value it refuses
        assert code == 1
        assert out == ""
        assert err == f"error: cannot parse {value!r} as a rational\n"

    @pytest.mark.parametrize("argv", [
        ("eval", "--alpha", "-16", "--k", "6", "--d", "1,4,1e99999999"),
        ("search", "--alpha", "1e99999999"),
        ("pipeline", "--alpha", "-16", "--d", "1,4,6", "--z3",
         "-2e99999999"),
    ], ids=["eval-d", "search-alpha", "pipeline-z3"])
    def test_huge_exponent_is_refused_at_once(self, argv):
        # Fraction alone forms 10^99999999, which takes minutes
        proc = subprocess.run([sys.executable, "-m", "zkwander", *argv],
                              capture_output=True, text=True, timeout=10)
        value = argv[-1].split(",")[-1]
        assert proc.returncode == 1
        assert proc.stderr == f"error: cannot parse {value!r} as a rational\n"

    def test_exponent_on_the_limit_parses(self):
        limit = 4300
        assert _parse_fraction(f"1e{limit}") == 10 ** limit
        assert _parse_fraction(f"-2E-{limit}") == Fraction(-2, 10 ** limit)
        assert _parse_fraction("-2e13") == -2 * 10 ** 13
        assert _parse_fraction(" 7/2 ") == Fraction(7, 2)

    @pytest.mark.parametrize("alpha,shown", [
        ("1e4300", "~1.000000e+4300 (exact: ~4301 digits over ~1)"),
        ("-12345e4300", "~-1.234500e+4304 (exact: ~4305 digits over ~1)")])
    def test_alpha_past_the_digit_limit_gets_the_bound_refusal(
            self, capsys, alpha, shown):
        # within the exponent limit, but past the integer-string limit
        code, out, err = run(capsys, "eval", f"--alpha={alpha}", "--k", "6",
                             "--d", "1,4,6")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: alpha = {shown} is outside "
                              "|alpha| <= 64")


class TestBadInput:
    """Bad input prints `error: ...` and exits 1, without a traceback."""

    @pytest.mark.parametrize("argv", [
        ("eval", "--alpha", "-16", "--d", "0,4,6"),
        ("eval", "--alpha", "-16", "--gamma", "0,1,2,3,4,x"),
        ("eval", "--alpha", "-16", "--z3", "-2e13", "--z1", "-1"),
        ("eval", "--alpha", "-16", "--z3=-2e13,1e12"),
        ("eval", "--alpha", "-33/2", "--z3=-2e13,1e12"),
        ("pipeline", "--regime", "interval", "--alpha", "-16", "--d", "1,4,6",
         "--z3=-2e13,1e12"),
        ("eval", "--alpha", "-16", "--z1", "5"),
        ("eval", "--alpha", "127/2", "--k", "6", "--phi3", "20000",
         "--regime", "interval"),
        ("eval", "--alpha", "-16001/1001", "--regime", "interval"),
        ("eval", "--alpha", "-16", "--gamma", "0,1,2,3,4", "--d", "1,4,6"),
        ("search", "--alpha", "-64", "--k", "6", "--phi3", "100000"),
        ("asymptotic", "--k", "10", "--beta", "50", "--sigma", "1e400"),
        ("asymptotic", "--k", "10", "--beta", "50", "--sigma", "-1e400"),
        ("asymptotic", "--k", "10", "--beta", str(10 ** 400), "--sigma",
         "0.5"),
        ("asymptotic", "--k", str(10 ** 400), "--beta", "50", "--sigma",
         "0.5"),
    ], ids=["d-not-positive", "gamma-not-integer", "z1-not-positive",
            "complex-z3-rational", "complex-z3-interval",
            "complex-z3-interval-pipeline", "z1-without-z3",
            "interval-weight-overflows", "alpha-denominator-above-bound",
            "gamma-five-degrees", "search-weight-past-the-doubles",
            "sigma-above-the-doubles", "sigma-below-the-doubles",
            "beta-past-the-doubles", "k-past-the-doubles"])
    def test_bad_argument(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, *(
            ("--out", str(tmp_path / "cert.json"))
            if argv[0] == "pipeline" else ()))
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""

    @pytest.mark.parametrize("d", ["1,,4,6", "1,4,6,"],
                             ids=["inner", "trailing"])
    def test_an_empty_d_field_is_refused(self, capsys, d):
        # not read as --d 1,4,6
        code, out, err = run(capsys, "eval", "--alpha", "-16", "--d", d)
        assert code == 1
        assert out == ""
        assert err == "error: --d wants 3 or 4 comma-separated values\n"

    @pytest.mark.parametrize("alpha", ["30000000", "-30000000"])
    def test_weight_far_outside_the_doubles_is_refused_at_once(self, alpha):
        # refused from its size, not after forming 7^alpha exactly, which
        # takes minutes at this alpha
        proc = subprocess.run(
            [sys.executable, "-m", "zkwander", "eval", f"--alpha={alpha}",
             "--regime", "interval"], capture_output=True, text=True,
            timeout=10)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, cause", [
        (("--alpha=-127/2", "--k", "10000", "--phi3", "12"),
         "130004^(-127/2) has no interval enclosure"),
        (("--alpha=64", "--k", "10000", "--phi3", "99"),
         "1000004^(64) lies outside the range of doubles")],
        ids=["interval-underflow", "rational-overflow"])
    def test_search_names_the_refused_weight(self, argv, cause):
        # the system failed on a weight with no enclosure or no double, not
        # on a singular or degenerate reduction; the search already reduces
        # in the regime that proves the system, so no other regime is
        # offered as a remedy
        proc = subprocess.run(
            [sys.executable, "-m", "zkwander", "search", *argv],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert cause in proc.stderr
        assert "singular" not in proc.stderr
        assert "rational regime" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("eval", "--alpha", "300000"),
        ("pipeline", "--alpha", "-16", "--override-base", "300000"),
        ("pipeline", "--alpha", "300000", "--d", "1,4,6", "--z3", "-2e13"),
        ("pipeline", "--alpha", "-16", "--override-base", "-300000",
         "--d", "1,4,6", "--z3", "-2e13"),
        ("pipeline", "--alpha", "300000"),
        ("search", "--alpha=300000"),
        ("search", "--alpha=-3000"),
        ("search", "--alpha=-6001/2"),
    ], ids=["eval", "pipeline-base-300000", "pipeline",
            "pipeline-override-base", "pipeline-search", "search-300000",
            "search--3000", "search--6001/2"])
    def test_alpha_outside_the_replay_bounds_is_refused_at_once(
            self, tmp_path, argv):
        # the bounds certificate replay applies, checked before any search
        # or weight; the exact weights at this alpha take minutes to form
        cert = tmp_path / "cert.json"
        out = ("--out", str(cert)) if argv[0] != "eval" else ()
        proc = subprocess.run(
            [sys.executable, "-m", "zkwander", *argv, *out],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: alpha = ")
        assert proc.stdout == ""
        assert not cert.exists()

    @pytest.mark.parametrize("alpha,det", [
        ("64", "~-1.276668e+621"), ("-64", "~1.625227e-631")])
    def test_exact_value_outside_the_doubles_is_displayed(self, alpha, det):
        # inside the replay bounds; det_N1 is past the largest double at
        # alpha = 64 and nonzero below the smallest at alpha = -64
        proc = subprocess.run(
            [sys.executable, "-m", "zkwander", "eval", "--alpha", alpha,
             "--k", "1000"], capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert [line.split(" =")[0] for line in lines] == [
            "alpha", "det_N1", "E", "G", "C1", "C2", "C3", "C4", "C5", "B2",
            "B1"]
        assert lines[1] == f"det_N1 = {det}"

    @pytest.mark.parametrize("argv", [
        ("asymptotic", "--k", "5", "--beta", "10", "--sigma", "0.5"),
        ("asymptotic", "--k", "12", "--beta", "10", "--sigma", "3/2"),
        ("asymptotic", "--k", "9", "--minimal"),
        ("asymptotic", "--k", "9", "--beta", "10", "--sigma", "0.5"),
        ("search", "--alpha", "-16", "--k", "5"),
        # a flag the command would not honour is refused, not ignored
        ("eval", "--alpha", "-16", "--gamma", "0,1,2,3,4,5", "--phi2", "3"),
        ("pipeline", "--alpha", "-16", "--gamma", "0,1,2,3,4,5", "--phi3",
         "2", "--d", "1,4,6"),
        ("reproduce", "--table", "3", "--mode", "re-search"),
        ("reproduce", "--table", "4", "--mode", "re-search"),
        ("reproduce", "--table", "5", "--mode", "re-search"),
        ("asymptotic", "--k", "10", "--minimal", "--beta", "5"),
        ("asymptotic", "--k", "10", "--minimal", "--sigma", "0.5"),
    ], ids=["k-below-9", "sigma-above-1", "k-9-minimal", "k-9",
            "no-valid-pattern", "gamma-with-phi2", "gamma-with-phi3",
            "re-search-table-3", "re-search-table-4", "re-search-table-5",
            "minimal-with-beta", "minimal-with-sigma"])
    def test_misuse(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-json"])
    def test_unreadable_certificate(self, capsys, tmp_path, kind):
        path = tmp_path / "cert.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-json":
            path.write_text("not json\n")
        code, _, err = run(capsys, "certify", "--check", str(path))
        assert code == 1
        assert err.startswith("error: cannot read certificate")

    @pytest.mark.parametrize("argv", [
        ("search", "--alpha", "-16"),
        ("pipeline", "--alpha", "-16", "--d", "1,4,6", "--z3", "-2e13"),
        ("reproduce", "--table", "1"),
    ], ids=lambda argv: argv[0])
    def test_out_into_a_missing_directory(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.json"
        code, _, err = run(capsys, *argv, "--out", str(path))
        assert code == 1
        assert err.startswith("error: ")
        assert str(path) in err

    @pytest.mark.parametrize("argv, work", [
        (("search", "--alpha", "-16"), "zkwander.cli.minimize"),
        (("pipeline", "--alpha", "-16"), "zkwander.cli.minimize"),
        (("pipeline", "--alpha", "-16", "--d", "1,4,6"),
         "zkwander.cli.reduce_system"),
        (("reproduce", "--table", "1"), "zkwander.cli.confirm_value"),
        (("reproduce", "--table", "3"), "zkwander.cli._reproduce_table3"),
        (("reproduce", "--table", "4"), "zkwander.cli.reduce_system"),
        (("reproduce", "--table", "5"),
         "zkwander.asymptotic.reproduce_table5"),
    ], ids=["search", "pipeline-search", "pipeline", "reproduce-1",
            "reproduce-3", "reproduce-4", "reproduce-5"])
    def test_out_is_checked_before_the_work(self, capsys, tmp_path,
                                            monkeypatch, argv, work):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")
        monkeypatch.setattr(work, refuse)
        path = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert str(path) in err

    @pytest.mark.parametrize("alpha", ["-65", "-100"])
    def test_alpha_outside_replay_bounds(self, capsys, tmp_path, alpha):
        # verify applies the bounds replay applies, so no certificate is
        # written that check_certificate would refuse
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "pipeline", "--alpha", alpha,
                             "--d", "1,4,6", "--z3", "-2e13",
                             "--out", str(cert))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: alpha = {alpha} is outside "
                              "|alpha| <= 64")
        assert not cert.exists()

    def test_alpha_on_the_bound_passes_and_replays(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "pipeline", "--alpha", "-64",
                           "--d", "1,4,6", "--z3", "-2e13",
                           "--out", str(cert))
        assert code == 0
        assert "verdict: pass" in out
        code, out, _ = run(capsys, "certify", "--check", str(cert))
        assert code == 0
        assert "recomputed: pass" in out

    def test_value_past_the_digit_limit(self, capsys, tmp_path):
        # inside the replay bounds, but an exact value needs more digits
        # than the certificate format carries
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "pipeline", "--alpha", "-64",
                             "--k", "10000", "--d", "1,4,6",
                             "--z3", "-2e13", "--out", str(cert))
        assert code == 1
        assert out == ""
        assert err.startswith("error: the certificate format cannot carry")
        assert "set_int_max_str_digits" not in err
        assert not cert.exists()


class TestSearch:

    def test_flagship_search(self, capsys, tmp_path):
        out_file = tmp_path / "search.json"
        code, out, _ = run(capsys, "search", "--alpha", "-16",
                           "--out", str(out_file))
        assert code == 0
        assert "best value" in out
        payload = json.loads(out_file.read_text())
        assert payload["below_threshold"]
        assert payload["landing_side"] == "below"
        assert Fraction(payload["value_repr"]) < Fraction(1, 30)

    def test_a_det_n1_below_the_least_double_is_searched(self, capsys):
        # det N_1 ~ 1e-330 at this system; B_1 ~ 4.5e-18 is found there
        code, out, err = run(capsys, "search", "--alpha", "-64", "--k", "27")
        assert (code, err) == (0, "")
        assert "at alpha = -64, k = 27," in out
        assert "landing side vs threshold: below" in out

    def test_alpha_is_required(self, capsys):
        code, out, err = run(capsys, "search")
        assert code == 1
        assert out == ""
        assert err.endswith("error: the following arguments are required: "
                            "--alpha\n")

    def test_a_config_file_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": -16}))
        code, out, err = run(capsys, "search", "--alpha", "-16",
                             "--config", str(cfg))
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --config" in err

    def test_a_c5_that_straddles_zero_lands_undecided(self, capsys):
        # the simplex point of this published row has an interval C_5 that
        # contains 0: an honest negative, not an error
        code, out, err = run(capsys, "search", "--alpha", "-17/4", "--k",
                             "47", "--phi2", "3", "--phi3", "97",
                             "--strategy", "simplex")
        assert (code, err) == (2, "")
        assert "best value = inf (interval: C5 = [-" in out
        assert "landing side vs threshold: undecided" in out

    def test_a_search_above_one_lands_above(self, capsys):
        # B_1 ~ 360 at the best grid point of alpha = -4
        code, out, _ = run(capsys, "search", "--alpha", "-4",
                           "--strategy", "grid")
        assert code == 2
        assert "landing side vs threshold: above" in out

    def test_an_exact_tie_with_one_is_undecided(self, capsys, monkeypatch):
        import zkwander.search
        monkeypatch.setitem(zkwander.search._OBJECTIVES, "B1",
                            lambda c: Fraction(1))
        code, out, _ = run(capsys, "search", "--alpha", "-16",
                           "--strategy", "grid")
        assert code == 2
        assert "landing side vs threshold: undecided" in out

    def test_exact_value_past_the_digit_limit(self, capsys, tmp_path):
        # B_1 is below 1 but its exact form has more than 4300 digits
        out_file = tmp_path / "search.json"
        code, out, err = run(capsys, "search", "--alpha", "-32", "--k", "600",
                             "--out", str(out_file))
        assert code == 0, err
        assert "landing side vs threshold: below" in out
        payload = json.loads(out_file.read_text())
        assert payload["landing_side"] == "below"
        assert "digits" in payload["value_repr"]


class TestPipeline:

    def test_flagship_certificate(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "pipeline", "--alpha", "-16",
                           "--d", "1,4,6", "--z3", "-2e13",
                           "--out", str(cert))
        assert code == 0
        assert "verdict: pass" in out
        code, out, _ = run(capsys, "certify", "--check", str(cert))
        assert code == 0
        assert "schema ok: True" in out
        assert "recomputed: pass" in out

    def test_a_failing_certificate_names_each_reason(self, capsys, tmp_path):
        # alpha = -33/2 is interval-only: no enclosure of a zero cell is
        # the point 0, so each of the five prints its reason in cell order
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "pipeline", "--alpha", "-33/2",
                           "--d", "1,4,6", "--z3", "-2e13",
                           "--out", str(cert))
        assert code == 2
        assert "verdict: fail" in out
        reasons = [line[len("reason: "):] for line in out.splitlines()
                   if line.startswith("reason: ")]
        assert [r.split(" enclosure contains 0 ")[0] for r in reasons] == [
            "A_(1,1)", "A_(2,1)", "A_(2,5)", "A_(3,1)", "A_(3,5)"]
        code, out, _ = run(capsys, "certify", "--check", str(cert))
        assert code == 2
        assert "recomputed: fail" in out

    @pytest.mark.parametrize("d,z3", [
        ("1,4,6", "1e400"),
        ("1,4,6", "1e330"),
        ("1e700,1e700,1e700", "-2e13"),
    ], ids=["below", "subnormal", "above"])
    def test_a_z1_star_outside_the_normal_doubles_is_refused(
            self, capsys, tmp_path, d, z3):
        # Z_1* is rounded to 9 digits in a decimal with no exponent range
        # to leave, so a Z_1* below the normal doubles (~2.3e-386, ~2.3e-316)
        # certifies; the one above them (~5.2e+350) is refused only for
        # what its point is: no register fits there
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "pipeline", "--alpha", "-16", "--d", d,
                             f"--z3={z3}", "--out", str(cert))
        if d == "1,4,6":
            assert (code, err) == (0, "")
            assert "verdict: pass  c = 0.363334962129787\n" in out
            code, out, _ = run(capsys, "certify", "--check", str(cert))
            assert code == 0
            assert "recomputed: pass" in out and "mismatch" not in out
        else:
            assert (code, out) == (2, "")
            assert err.startswith(
                "no admissible register: A_13 A_14 - A_12^2 < |A_15 A_12| "
                "fails before any register is attached, c = ")
            assert not cert.exists()

    def test_c_values_past_the_doubles_reach_a_named_error(self, capsys,
                                                            tmp_path):
        # d_1 ~ 5e199 puts C_4 near 3.5e291 and C_5 / |pivot|^2 past the
        # doubles; Z_3 is chosen without one, and the run stops at the
        # certificate format's digit limit, by name
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "pipeline", "--alpha", "-64", "--k",
                             "27", "--d", "4.974313e199,4.759219e2,5.864152e2",
                             "--out", str(cert))
        assert (code, out) == (1, "")
        assert err == ("error: the certificate format cannot carry an exact "
                       "value with more than 4300 digits\n")
        assert not cert.exists()

    def test_override_corollary(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "pipeline", "--alpha", "-16",
                           "--override-base", "0", "--d", "1,4,6",
                           "--z3", "-2e13", "--out", str(cert))
        assert code == 0
        assert "verdict: pass" in out

    def test_non_integer_override_base_certifies_rationally(self, capsys,
                                                            tmp_path):
        # all 14 weights verify reads are D_-16's, so all are rational and
        # the certificate is the headline's; with only the 12 matrix
        # weights moved it was an interval fail
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "pipeline", "--alpha", "-16",
                             "--override-base", "-33/2", "--d", "1,4,6",
                             "--z3", "-2e13", "--out", str(cert))
        assert code == 0, err
        assert "verdict: pass  c = 0.18894510966828287\n" in out
        data = json.loads(cert.read_text())
        assert data["regime"] == "rational"
        embedded = DegreePattern.default(6).embedded_indices()
        assert weights_from_dict(data["weights"]) == perturbed(
            dirichlet(Fraction(-33, 2)),
            {t: weight(dirichlet(-16), t) for t in embedded})
        code, out, _ = run(capsys, "certify", "--check", str(cert))
        assert code == 0
        assert "recomputed: pass" in out and "mismatch" not in out

    def test_override_donor_must_be_exact(self, capsys, tmp_path):
        # the transplanted weights are frozen as rationals
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "pipeline", "--alpha", "-33/2",
                             "--override-base", "0", "--d", "1,4,6",
                             "--z3", "-2e13", "--out", str(cert))
        assert (code, out) == (1, "")
        assert err == ("error: rational regime needs an integer exponent, "
                       "got alpha=-33/2\n")
        assert not cert.exists()

    def test_float_regime_gate(self, capsys, tmp_path, monkeypatch):
        # floats locate, they do not prove: refused before any search
        import zkwander.cli

        def search(config):
            raise AssertionError("pipeline --regime float searched")
        monkeypatch.setattr(zkwander.cli, "minimize", search)
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "pipeline", "--alpha", "-16",
                             "--regime", "float", "--out", str(cert))
        assert code == 1
        assert out == ""
        assert "invalid choice: 'float' (choose from 'rational', " \
               "'interval')" in err
        assert not cert.exists()

    def test_a_float_certificate_is_refused_on_replay(self, capsys):
        # written by `pipeline --regime float` when floats were a regime
        cert = Path(__file__).with_name("data") / "float_certificate_v2.json"
        code, out, err = run(capsys, "certify", "--check", str(cert))
        assert code == 1
        assert out == ""
        assert err == ("error: malformed certificate: unknown regime "
                       "'float'\n")

    def test_gamma_without_d_is_refused_before_any_search(
            self, capsys, tmp_path, monkeypatch):
        # the search names its pattern by --phi2/--phi3, so it once
        # certified the gamma pattern at a point found for phi = (0, 0)
        import zkwander.cli

        def search(config):
            raise AssertionError("pipeline --gamma searched")
        monkeypatch.setattr(zkwander.cli, "minimize", search)
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "pipeline", "--alpha", "-16", "--k", "6",
                             "--gamma", "0,1,8,3,4,5", "--out", str(cert))
        assert (code, out) == (1, "")
        assert err == ("error: --gamma needs --d: give --d, or name the "
                       "pattern by --phi2/--phi3 to search it\n")
        assert not cert.exists()

    def test_searched_certificate_replays(self, capsys, tmp_path):
        # the core flow: search, recover, attach registers, certify, replay
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "pipeline", "--alpha", "-16",
                           "--out", str(cert))
        assert code == 0
        assert "verdict: pass  c = 0.05104733573677926\n" in out
        code, out, _ = run(capsys, "certify", "--check", str(cert))
        assert code == 0
        assert "recomputed: pass" in out and "mismatch" not in out

    def test_gamma_certificate_replays(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "pipeline", "--alpha", "-16", "--gamma",
                           "0,1,8,3,4,5", "--d", "1,4,6", "--out", str(cert))
        assert code == 0
        assert "verdict: pass  c = 0.08421190099333115\n" in out
        assert json.loads(cert.read_text())["gamma"] == [0, 1, 8, 3, 4, 5]
        code, out, _ = run(capsys, "certify", "--check", str(cert))
        assert code == 0
        assert "recomputed: pass" in out and "mismatch" not in out

    def test_a_search_error_is_an_error(self, capsys, tmp_path):
        # as `search` and `pipeline --d` report the same singular system
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "pipeline", "--alpha", "0",
                             "--out", str(cert))
        assert (code, out) == (1, "")
        assert err.startswith("error: the system is singular or degenerate:")
        assert not cert.exists()

    def test_a_point_no_z3_rescues_is_an_honest_negative(self, capsys,
                                                          tmp_path):
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "pipeline", "--alpha", "-6",
                             "--d", "1,1,1", "--out", str(cert))
        assert (code, out) == (2, "")
        assert err == "B_1 = 129.696 >= 1; no Z_3 can rescue this point\n"
        assert not cert.exists()

    def test_a_point_no_register_fits_is_an_honest_negative(self, capsys,
                                                            tmp_path):
        # the inequality fails before any register is attached
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "pipeline", "--alpha", "-16", "--d",
                             "1,4,6", "--z3", "1e13", "--out", str(cert))
        assert (code, out) == (2, "")
        assert err == ("no admissible register: A_13 A_14 - A_12^2 < "
                       "|A_15 A_12| fails before any register is attached, "
                       "c = 14.658126043556841\n")
        assert not cert.exists()

    def test_a_z1_below_the_doubles_certifies(self, capsys, tmp_path):
        # at Z_3 = 10^200 the default Z_1 is about 2.26e-186, which read
        # 0.0 when each root atom was a double first
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "pipeline", "--alpha", "-16", "--d",
                             "1,4,6", "--z3", "1e200", "--out", str(cert))
        assert code == 0, err
        assert out.startswith("verdict: pass  c = 0.363334962129787\n")
        assert json.loads(cert.read_text())["regime"] == "rational"
        code, out, _ = run(capsys, "certify", "--check", str(cert))
        assert code == 0
        assert "recomputed: pass" in out and "mismatch" not in out

    def test_hopeless_alpha_reports_honestly(self, capsys, tmp_path):
        code, _, err = run(capsys, "pipeline", "--alpha", "-1/2",
                           "--out", str(tmp_path / "cert.json"))
        assert code == 2
        assert "no point below threshold" in err

    def test_tampered_certificate_detected(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "pipeline", "--alpha", "-16", "--d", "1,4,6",
            "--z3", "-2e13", "--out", str(cert))
        data = json.loads(cert.read_text())
        data["verdict"] = "fail"
        cert.write_text(json.dumps(data))
        code, out, _ = run(capsys, "certify", "--check", str(cert))
        assert code == 2
        assert "mismatch" in out

    def test_check_names_the_forged_field(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "pipeline", "--alpha", "-16", "--d", "1,4,6",
            "--z3", "-2e13", "--out", str(cert))
        data = json.loads(cert.read_text())
        data["A"]["2"]["A1"] = "5"
        cert.write_text(json.dumps(data))
        code, out, _ = run(capsys, "certify", "--check", str(cert))
        assert code == 2
        assert 'mismatch: A.2.A1: stored "5", recomputed "0"\n' in out
        assert "recomputed: pass" in out


class TestReproduce:

    @pytest.mark.parametrize("table", [1, 2, 3, 4, 5])
    def test_tables_regenerate(self, capsys, tmp_path, table):
        out = tmp_path / f"table{table}.csv"
        code, _, _ = run(capsys, "reproduce", "--table", str(table),
                         "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.count("\n") >= 2

    def test_table4_entry_outside_band_exits_2(self, capsys, tmp_path,
                                                monkeypatch):
        from zkwander import reference_data
        # the computed C_4, 2.07e13, sits 17% below a printed 2.5e13
        monkeypatch.setitem(reference_data.TABLE4_PRINTED, "C4", "2.5e13")
        code, _, _ = run(capsys, "reproduce", "--table", "4",
                         "--out", str(tmp_path / "t4.csv"))
        assert code == 2

    def test_output_is_byte_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "reproduce", "--table", "1", "--out", str(a))
        run(capsys, "reproduce", "--table", "1", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_table1_row_content(self, capsys, tmp_path):
        out = tmp_path / "t1.csv"
        run(capsys, "reproduce", "--table", "1", "--out", str(out))
        lines = out.read_text().splitlines()
        assert lines[0].startswith("alpha,k,phi2,phi3")
        assert len(lines) == 9
        assert all(line.endswith("below") for line in lines[1:])

    def test_bad_table_or_mode(self, capsys):
        for argv in (("--table", "6"), ("--table", "1", "--mode",
                                        "exhaustive")):
            code, out, err = run(capsys, "reproduce", *argv)
            assert code == 1
            assert out == ""
            assert "invalid choice" in err

    def test_table1_re_search(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "1",
                           "--mode", "re-search")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("found_d,landing_side")
        assert len(lines) == 9
        assert all(line.endswith(",below") for line in lines[1:])


class TestAsymptotic:

    def test_good_row(self, capsys):
        code, out, _ = run(capsys, "asymptotic", "--k", "12", "--beta", "120",
                           "--sigma", "0.6")
        assert code == 0
        assert "sigma condition: True" in out

    def test_failing_beta(self, capsys):
        code, out, _ = run(capsys, "asymptotic", "--k", "10", "--beta", "50",
                           "--sigma", "0.05")
        assert code == 2
        assert "sigma condition: False" in out

    def test_minimal_scan(self, capsys):
        code, out, _ = run(capsys, "asymptotic", "--k", "11", "--minimal")
        assert code == 0
        assert "minimal beta = 162" in out

    def test_minimal_scan_at_a_large_k_is_quick(self):
        # the scan starts where the sigma-condition can first hold; from
        # beta = 1 it took about 17 s at k = 200000
        proc = subprocess.run(
            [sys.executable, "-m", "zkwander", "asymptotic", "--k", "1000000",
             "--minimal"], capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0
        assert proc.stdout.startswith("minimal beta = 4219198 at sigma = 0.99")

    def test_minimal_scan_past_the_doubles_is_quick(self):
        # the bound's inf * 0 read nan there, and the scan never ended
        proc = subprocess.run(
            [sys.executable, "-m", "zkwander", "asymptotic", "--k",
             str(2 * 10 ** 152), "--minimal"], capture_output=True, text=True,
            timeout=10)
        assert proc.returncode == 0
        assert proc.stdout.startswith("minimal beta = 8438370196")
        assert proc.stdout.endswith("at sigma = 0.99 (cap 1e+153)\n")

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "asymptotic", "--k", "11")
        assert code == 1
        assert "--beta and --sigma" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "zkwander", "asymptotic", "--k", "11",
         "--minimal"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "minimal beta = 162" in proc.stdout
