"""Command-line front end: evaluation, search, pipeline, certification,
asymptotics, and table reproduction with stable CSV/JSON outputs.

Exit codes are uniform across subcommands: 0 for a pass/success, 2 for an
honest negative (fail verdict, a search whose B_1 is not certified below 1,
a point no Z_3 rescues, a Table 3-5 entry off its printed value; Tables 1
and 2 print each row's computed B_1 and landing side and exit 0), 1 for
usage or computational errors such as a singular system.
"""

import argparse
import csv
import os
import re
import sys
from fractions import Fraction

from . import asymptotic
from .certify import (check_bounds, check_certificate, json_text,
                      save_certificate, verify)
from .errors import DegeneratePairError, NoAdmissibleSystemError, ZkwanderError
from .model import DegreePattern
from .recovery import attach_register, auto_register, recover
from .reduction import (b0_minimum, compute_C, objective_B0, objective_B1,
                        objective_B2, pivot_modulus, reduce_system, split_e,
                        z1_star)
from .scalars import REGIMES, display, to_float, to_rational
from .search import STRATEGIES, SearchConfig, confirm_value, minimize
from .weights import dirichlet, exact_regime, perturbed, weight


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit-code contract wants 1.

    Also widens the negative-number matcher so values like -2e13 and
    -33/2 parse as flag arguments without needing --flag=value syntax.
    """

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = re.compile(
            r"^-\d+(\.\d+)?([eE][-+]?\d+)?(/\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_fraction(text: str) -> Fraction:
    # argparse would report a ValueError as "invalid _parse_fraction value";
    # main reports a ZkwanderError with its own message
    try:
        return to_rational(text)
    except ValueError as exc:
        raise ZkwanderError(str(exc)) from exc


def _parse_d(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) not in (3, 4) or not all(p.strip() for p in parts):
        raise ZkwanderError("--d wants 3 or 4 comma-separated values")
    values = tuple(_parse_fraction(p) for p in parts)
    if any(v <= 0 for v in values):
        raise ZkwanderError(f"--d values must be positive, got {text!r}")
    return values


def _pattern_from_args(args) -> DegreePattern:
    if args.gamma:
        if args.phi2 or args.phi3:
            raise ZkwanderError("--gamma names the whole pattern; it takes "
                                "no --phi2 or --phi3")
        try:
            parts = tuple(int(p) for p in args.gamma.split(","))
        except ValueError:
            raise ZkwanderError(
                f"--gamma wants 6 comma-separated integers, got {args.gamma!r}"
            ) from None
        if len(parts) != 6:
            raise ZkwanderError("--gamma wants 6 comma-separated degrees")
        return DegreePattern(args.k, parts)
    return DegreePattern.from_phi(args.k, args.phi2, args.phi3)


def _dirichlet_in_bounds(alpha, pattern):
    """D_alpha, checked against the replay bounds before any weight."""
    seq = dirichlet(alpha)
    check_bounds(pattern, seq)
    return seq


def _write_csv(rows, header, out_path):
    def emit(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    if out_path:
        with open(out_path, "w", newline="") as fh:
            emit(fh)
    else:
        emit(sys.stdout)


# ---------------------------------------------------------------------------
# subcommands

def cmd_eval(args) -> int:
    if args.emit_weights and (args.d, args.z3, args.z1) != (None,) * 3:
        raise ZkwanderError("--emit-weights prints only the weights; it "
                            "takes no --d, --z3 or --z1")
    if args.z1 is not None and args.z3 is None:
        raise ZkwanderError("--z1 needs --z3")
    if args.z1 is not None and not args.z1 > 0:
        raise ZkwanderError(f"--z1 must be positive, got {args.z1}")
    pattern = _pattern_from_args(args)
    seq = _dirichlet_in_bounds(args.alpha, pattern)
    if args.emit_weights:
        for t in sorted(pattern.matrix_indices()):
            regime = args.regime or exact_regime(seq, (t,))
            print(f"omega[{t}] = {weight(seq, t, regime)}")
        return 0
    regime = args.regime or exact_regime(seq, pattern.matrix_indices())
    rs = reduce_system(seq, pattern, regime)
    print(f"alpha = {args.alpha}  k = {pattern.k}  "
          f"gamma = {pattern.gamma}  regime = {regime}")
    print(f"det_N1 = {display(rs.det_N1)}")
    print("E =", ", ".join(display(e) for e in rs.E))
    print("G =", ", ".join(display(g) for g in rs.G))
    c = compute_C(rs, args.d or (1, 4, 6))
    for name, v in (("C1", c.C1), ("C2", c.C2), ("C3", c.C3),
                    ("C4", c.C4), ("C5", c.C5)):
        print(f"{name} = {display(v)}")
    print(f"B2 = {display(objective_B2(c))}")
    print(f"B1 = {display(objective_B1(c))}")
    if args.z3 is not None:
        e0, e1 = split_e(c, args.z3)
        print(f"e0 = {display(e0)}")
        print(f"e1 = {display(e1)}")
        print(f"Z1* = {display(z1_star(c, args.z3))}")
        print(f"min B0 = {display(b0_minimum(c, args.z3))}")
        if args.z1 is not None:
            print(f"B0 = {display(objective_B0(c, args.z3, args.z1))}")
    return 0


def cmd_search(args) -> int:
    res = minimize(SearchConfig(alpha=args.alpha, k=args.k, phi2=args.phi2,
                                phi3=args.phi3, strategy=args.strategy))
    shown = res.value_repr
    if len(shown) > 72:
        shown = shown[:69] + "..."
    print(f"best value = {res.value!r} ({res.regime}: {shown})")
    print(f"at alpha = {res.alpha}, k = {res.k}, "
          f"phi = ({res.phi2}, {res.phi3}), "
          f"d = ({', '.join(str(v) for v in res.d)})")
    print(f"evaluations = {res.evaluations}, "
          f"landing side vs threshold: {res.landing_side}")
    if args.out:
        payload = {"alpha": str(res.alpha), "k": res.k, "phi2": res.phi2,
                   "phi3": res.phi3, "d": [str(v) for v in res.d],
                   "value": res.value, "value_repr": res.value_repr,
                   "regime": res.regime, "evaluations": res.evaluations,
                   "below_threshold": res.below_threshold,
                   "landing_side": res.landing_side}
        with open(args.out, "w") as fh:
            fh.write(json_text(payload) + "\n")
    return 0 if res.below_threshold else 2


def cmd_pipeline(args) -> int:
    if args.gamma and args.d is None:
        raise ZkwanderError("--gamma needs --d: give --d, or name the "
                            "pattern by --phi2/--phi3 to search it")
    pattern = _pattern_from_args(args)
    embedded = pattern.embedded_indices()
    seq = _dirichlet_in_bounds(args.alpha, pattern)
    if args.override_base is not None:
        # an equivalent norm: the 14 weights verify reads are D_alpha's
        seq = perturbed(_dirichlet_in_bounds(args.override_base, pattern),
                        {t: weight(seq, t) for t in embedded})
    regime = args.regime or exact_regime(seq, embedded)
    d = args.d
    if d is None:
        found = minimize(SearchConfig(alpha=args.alpha, k=pattern.k,
                                      phi2=args.phi2, phi3=args.phi3))
        if not found.below_threshold:
            print(f"no point below threshold; best was {found.value!r} "
                  f"({found.landing_side})", file=sys.stderr)
            return 2
        d = found.d
    rs = reduce_system(seq, pattern, regime)
    try:
        params = recover(rs, d, z3=args.z3)
        r = auto_register(params)
    except (NoAdmissibleSystemError, DegeneratePairError) as exc:
        # no Z_3 (choose_Z3) or no register fits the point: an honest negative
        print(exc, file=sys.stderr)
        return 2
    params = attach_register(params, r, r)
    cert = verify(params.pair, seq, regime)
    out = args.out or "certificate.json"
    save_certificate(cert, out)
    print(f"verdict: {cert.verdict}  c = "
          f"{'n/a' if cert.c_value is None else display(cert.c_value)}")
    print(f"certificate written to {out}")
    for reason in cert.reasons:
        print(f"reason: {reason}")
    return 0 if cert.passed else 2


def cmd_certify(args) -> int:
    report = check_certificate(args.check)
    print(f"schema ok: {report['schema_ok']}")
    print(f"stored verdict: {report['stored_verdict']}  "
          f"recomputed: {report['recomputed_verdict']}")
    for m in report["mismatches"]:
        print(f"mismatch: {m}")
    if not report["ok"]:
        return 2
    return 0 if report["recomputed_verdict"] == "pass" else 2


def _reproduce_grid(table, mode, out_path):
    """Table 1 or 2: each printed row with B_1 recomputed at its printed d
    (evaluate-rows), or at the d a new search of its system finds
    (re-search), and the side of 1 the rigorous value lands on."""
    from .reference_data import TABLE1_ROWS, TABLE2_ROWS
    rows = []
    for row in TABLE1_ROWS if table == 1 else TABLE2_ROWS:
        printed = [row.alpha, row.k, row.phi2, row.phi3, *row.d,
                   row.b1_printed]
        if mode == "evaluate-rows":
            value, _, _, side = confirm_value(
                dirichlet(row.alpha),
                DegreePattern.from_phi(row.k, row.phi2, row.phi3), row.d)
            ratio = value / float(row.b1_printed)
            rows.append(printed + [repr(value), f"{ratio:.6f}", side])
        else:
            res = minimize(SearchConfig(alpha=row.alpha, k=row.k,
                                        phi2=row.phi2, phi3=row.phi3))
            rows.append(printed + [repr(res.value), ",".join(map(str, res.d)),
                                   res.landing_side])
    _write_csv(rows, ["alpha", "k", "phi2", "phi3", "d1", "d2", "d3",
                      "printed_B1", "computed_B1",
                      "ratio" if mode == "evaluate-rows" else "found_d",
                      "landing_side"], out_path)


def _reproduce_table3(out_path):
    from .reference_data import TABLE3_SCALED, agrees_with_printed
    seq = dirichlet(-16)
    rows = []
    for label, base, printed in TABLE3_SCALED:
        exact = weight(seq, base - 1) / weight(seq, 6)
        rows.append([label, base, repr(float(exact)), printed,
                     agrees_with_printed(exact, printed)])
    _write_csv(rows, ["t", "base", "computed_scaled", "printed", "match"],
               out_path)
    return all(r[4] for r in rows)


def _reproduce_table4(out_path):
    from .reference_data import (TABLE4_BAND, TABLE4_DISCREPANCIES,
                                 TABLE4_PRINTED)
    rs = reduce_system(dirichlet(-16), DegreePattern.default(6))
    z3 = Fraction("-2e13")
    params = recover(rs, (1, 4, 6), z3=z3)
    c = params.c
    e0, e1 = split_e(c, z3)
    computed = {
        "C4": c.C4, "C2": c.C2, "C1": c.C1, "C3": c.C3, "Z3": z3,
        "pivot_modulus": pivot_modulus(c, z3), "C5": c.C5,
        "e0": e0, "e1": e1, "Z1": params.z1, "A15": params.a15,
        "a_k": params.pair.a_high[0], "a_k1": params.pair.a_high[1],
        "a_k2": params.pair.a_high[2], "a_k3": params.pair.a_high[3],
        "b_0": params.pair.b_low[0], "b_1": params.pair.b_low[1],
        "b_2": params.pair.b_low[2], "b_3": params.pair.b_low[3],
    }
    rows = []
    in_band = True
    for name, printed in TABLE4_PRINTED.items():
        comp = to_float(computed[name])
        ref = float(printed)
        delta = abs(comp - ref) / abs(ref) if ref else abs(comp)
        rows.append([name, repr(comp), printed, f"{delta:.6f}"])
        if name not in TABLE4_DISCREPANCIES and not delta <= TABLE4_BAND:
            in_band = False
    _write_csv(rows, ["name", "computed", "printed", "rel_delta"], out_path)
    return in_band


def cmd_reproduce(args) -> int:
    if args.table > 2 and args.mode == "re-search":
        raise ZkwanderError(f"table {args.table} has no search to re-run; "
                            "--mode re-search is for tables 1 and 2")
    if args.table in (1, 2):
        _reproduce_grid(args.table, args.mode, args.out)
        return 0
    if args.table == 3:
        return 0 if _reproduce_table3(args.out) else 2
    if args.table == 4:
        return 0 if _reproduce_table4(args.out) else 2
    report = asymptotic.reproduce_table5()
    columns = ("k", "beta", "sigma", "printed_bound", "computed_bound",
               "printed_threshold", "computed_threshold", "sigma_condition",
               "threshold_match", "bound_below_one", "cap", "cap_ok")
    _write_csv([[e[c] for c in columns] for e in report], columns, args.out)
    checks = ("sigma_condition", "threshold_match", "bound_below_one",
              "cap_ok")
    return 0 if all(e[c] for e in report for c in checks) else 2


def cmd_asymptotic(args) -> int:
    if args.minimal and (args.beta is not None or args.sigma is not None):
        raise ZkwanderError("--minimal scans beta and sigma; it takes no "
                            "--beta or --sigma")
    if not args.minimal and (args.beta is None or args.sigma is None):
        raise ZkwanderError("--beta and --sigma are required "
                            "unless --minimal is given")
    if args.minimal:
        found = asymptotic.minimal_beta(args.k)
        cap = asymptotic.beta_cap(args.k)
        if found is None:
            print(f"no (beta, sigma) found up to the cap {cap!r}")
            return 2
        beta, sigma = found
        print(f"minimal beta = {beta} at sigma = {sigma} (cap {cap!r})")
        return 0
    cap = asymptotic.beta_cap(args.k)
    cond = asymptotic.sigma_condition(args.k, args.beta, args.sigma)
    threshold = asymptotic.sigma_threshold(args.k, args.sigma)
    bound = asymptotic.objective_bound(args.k, args.beta, args.sigma)
    print(f"sigma condition: {cond} (threshold {threshold!r})")
    print(f"objective bound: {bound!r}")
    print(f"a({args.k}) = {asymptotic.a_factor(args.k)!r}")
    print(f"cap 5k+700/(k-9)^2 = {cap!r}")
    return 0 if (cond and bound < 1.0) else 2


# ---------------------------------------------------------------------------

def _add_system_flags(p):
    p.add_argument("--alpha", type=_parse_fraction, required=True,
                   help="space exponent as a rational, e.g. -16 or -33/2")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--phi2", type=int, default=0)
    p.add_argument("--phi3", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zkwander",
                     description="invariant-subspace counterexample toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("eval", help="reduced system and objective values")
    _add_system_flags(p)
    p.add_argument("--gamma", help="six degrees in place of the phi pattern")
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--d", type=_parse_d, help="the point (default 1,4,6)")
    p.add_argument("--z3", type=_parse_fraction)
    p.add_argument("--z1", type=_parse_fraction)
    p.add_argument("--emit-weights", action="store_true",
                   help="dump the 12 matrix weights in the regime (exact "
                   "rationals, or enclosures where alpha is not an integer)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", help="minimize the objective over d")
    _add_system_flags(p)
    p.add_argument("--strategy", default="coordinate-descent",
                   choices=STRATEGIES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("pipeline",
                       help="search, recover, attach registers, certify")
    _add_system_flags(p)
    p.add_argument("--gamma", help="six degrees in place of the phi pattern")
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--d", type=_parse_d,
                   help="skip the search and use this point")
    p.add_argument("--z3", type=_parse_fraction)
    p.add_argument("--override-base", type=_parse_fraction,
                   help="base alpha whose 14 embedded weights are D_alpha's")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("certify", help="re-check an emitted certificate")
    p.add_argument("--check", required=True, metavar="FILE")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("reproduce", help="regenerate a published table")
    p.add_argument("--table", type=int, required=True, choices=(1, 2, 3, 4, 5))
    p.add_argument("--mode", default="evaluate-rows",
                   choices=("evaluate-rows", "re-search"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("asymptotic", help="closed-form estimate queries")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", type=int)
    p.add_argument("--sigma", type=_parse_fraction)
    p.add_argument("--minimal", action="store_true",
                   help="scan for the smallest admissible beta")
    p.set_defaults(func=cmd_asymptotic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out = getattr(args, "out", None)
        # refused before any search, certificate or table is computed
        if out is not None and (out == "" or os.path.isdir(out)):
            raise ZkwanderError(f"cannot write {out!r}: --out must name a "
                                "file")
        folder = os.path.dirname(out or "")
        if folder and not os.path.isdir(folder):
            raise ZkwanderError(f"cannot write {out}: no directory {folder}")
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ZkwanderError, ValueError, OSError) as exc:
        # ValueError is reserved for plain misuse (see errors.py); OSError
        # is an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
