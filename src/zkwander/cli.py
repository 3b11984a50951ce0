"""Command-line front end: evaluation, search, pipeline, certification,
asymptotics, and table reproduction with stable CSV/JSON outputs.

Exit codes are uniform across subcommands: 0 for a pass/success, 2 for an
honest negative (fail verdict, a search whose B_1 is not certified below 1,
a table entry off its printed value), 1 for usage or computational errors
such as a singular system.
"""

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction

from . import asymptotic
from .certify import (check_bounds, check_certificate, json_text,
                      save_certificate, verify)
from .errors import NoAdmissibleSystemError, ZkwanderError
from .model import DegreePattern
from .recovery import attach_register, auto_register, recover
from .reduction import (b0_minimum, compute_C, objective_B0, objective_B1,
                        objective_B2, reduce_system, split_e, z1_star)
from .scalars import REGIMES, display, to_float, to_rational
from .search import STRATEGIES, SearchConfig, minimize, reproduce_table
from .weights import dirichlet, exact_regime, override_block, weight


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
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) not in (3, 4):
        raise ZkwanderError("--d wants 3 or 4 comma-separated values")
    values = tuple(_parse_fraction(p) for p in parts)
    if any(v <= 0 for v in values):
        raise ZkwanderError(f"--d values must be positive, got {text!r}")
    return values


def _pattern_from_args(args) -> DegreePattern:
    if getattr(args, "gamma", None):
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


def _sequence_from_args(args, pattern):
    """D_alpha, or D_(override base) with D_alpha's 12 matrix weights; both
    inside the replay bounds, checked before any weight is evaluated."""
    donor = dirichlet(args.alpha)
    check_bounds(pattern, donor)
    if args.override_base is None:
        return donor
    base = dirichlet(args.override_base)
    check_bounds(pattern, base)
    return override_block(base, donor, pattern)


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
    if args.z1 is not None and args.z3 is None:
        raise ZkwanderError("--z1 needs --z3")
    if args.z1 is not None and not args.z1 > 0:
        raise ZkwanderError(f"--z1 must be positive, got {args.z1}")
    pattern = _pattern_from_args(args)
    seq = _sequence_from_args(args, pattern)
    regime = args.regime or exact_regime(seq, pattern.matrix_indices())
    rs = reduce_system(seq, pattern, regime)
    if args.emit_weights:
        for t in sorted(pattern.matrix_indices()):
            print(f"omega[{t}] = {weight(seq, t, exact_regime(seq, (t,)))}")
        return 0
    print(f"alpha = {args.alpha}  k = {pattern.k}  "
          f"gamma = {pattern.gamma}  regime = {regime}")
    print(f"det_N1 = {display(rs.det_N1)}")
    print("E =", ", ".join(display(e) for e in rs.E))
    print("G =", ", ".join(display(g) for g in rs.G))
    c = compute_C(rs, args.d)
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


def _config_from_file(path) -> SearchConfig:
    try:
        with open(path) as fh:
            return SearchConfig(**json.load(fh))
    except (OSError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ZkwanderError(f"bad search config {path}: {exc}") from exc


def cmd_search(args) -> int:
    if args.config:
        config = _config_from_file(args.config)
    elif args.alpha is None:
        raise ZkwanderError("search needs --alpha or --config")
    else:
        config = SearchConfig(
            alpha=args.alpha, k=args.k, phi2=args.phi2, phi3=args.phi3,
            strategy=args.strategy)
    res = minimize(config)
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
    seq = _sequence_from_args(args, pattern)
    regime = args.regime or exact_regime(seq, pattern.embedded_indices())
    if args.d is not None:
        d = args.d
    else:
        config = SearchConfig(alpha=args.alpha, k=pattern.k,
                              phi2=args.phi2, phi3=args.phi3)
        try:
            found = minimize(config)
        except NoAdmissibleSystemError as exc:
            print(f"search failed: {exc}", file=sys.stderr)
            return 2
        if not found.below_threshold:
            print(f"no point below threshold; best was {found.value!r} "
                  f"({found.landing_side})", file=sys.stderr)
            return 2
        d = (Fraction(1),) + tuple(found.d)
    rs = reduce_system(seq, pattern, regime)
    params = recover(rs, d, z3=args.z3)
    r = auto_register(params)
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


def _reproduce_table3(out_path):
    from .reference_data import TABLE3_SCALED, agrees_with_printed
    rows = []
    scale = Fraction(7) ** 16
    for label, base, printed in TABLE3_SCALED:
        exact = Fraction(base) ** -16 * scale
        rows.append([label, base, repr(float(exact)), printed,
                     agrees_with_printed(exact, printed)])
    _write_csv(rows, ["t", "base", "computed_scaled", "printed", "match"],
               out_path)
    return all(r[4] for r in rows)


# relative band every reproduced Table 4 entry must sit in, as in the
# acceptance test; the printed discrepancies are exempt
_TABLE4_BAND = 0.15


def _reproduce_table4(out_path):
    from .reference_data import (TABLE4_DISCREPANCIES, TABLE4_PRINTED,
                                 printed_as_fraction)
    seq = dirichlet(-16)
    pattern = DegreePattern.default(6)
    rs = reduce_system(seq, pattern)
    d = (Fraction(1), Fraction(1), Fraction(4), Fraction(6))
    c = compute_C(rs, d)
    z3 = Fraction(-2) * 10 ** 13
    e0, e1 = split_e(c, z3)
    params = recover(rs, d, z3=z3)
    from .reduction import pivot_modulus
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
        ref = float(printed_as_fraction(printed))
        delta = abs(comp - ref) / abs(ref) if ref else abs(comp)
        rows.append([name, repr(comp), printed, f"{delta:.6f}"])
        if name not in TABLE4_DISCREPANCIES and not delta <= _TABLE4_BAND:
            in_band = False
    _write_csv(rows, ["name", "computed", "printed", "rel_delta"], out_path)
    return in_band


def cmd_reproduce(args) -> int:
    if args.table in (1, 2):
        report = reproduce_table(args.table, args.mode)
        rows = []
        for e in report:
            base = [e["alpha"], e["k"], e["phi2"], e["phi3"], *e["d"],
                    e["printed_B1"]]
            if e.get("singular"):
                rows.append(base + ["singular", "", ""])
            elif args.mode == "evaluate-rows":
                rows.append(base + [repr(e["computed_B1"]),
                                    f"{e['ratio']:.6f}", e["landing_side"]])
            else:
                rows.append(base + [repr(e["computed_B1"]),
                                    ",".join(e["found_d"]),
                                    e["landing_side"]])
        tail = (["computed_B1", "ratio", "landing_side"]
                if args.mode == "evaluate-rows"
                else ["computed_B1", "found_d", "landing_side"])
        _write_csv(rows, ["alpha", "k", "phi2", "phi3", "d1", "d2", "d3",
                          "printed_B1", *tail], args.out)
        return 0
    if args.table == 3:
        return 0 if _reproduce_table3(args.out) else 2
    if args.table == 4:
        return 0 if _reproduce_table4(args.out) else 2
    if args.table == 5:
        report = asymptotic.reproduce_table5()
        rows = [[e["k"], e["beta"], e["sigma"], e["printed_bound"],
                 repr(e["computed_bound"]), e["printed_threshold"],
                 repr(e["computed_threshold"]), e["sigma_condition"],
                 e["threshold_match"], e["bound_below_one"],
                 repr(e["cap"]), e["cap_ok"]] for e in report]
        _write_csv(rows, ["k", "beta", "sigma", "printed_bound",
                          "computed_bound", "printed_threshold",
                          "computed_threshold", "sigma_condition",
                          "threshold_match", "bound_below_one", "cap",
                          "cap_ok"], args.out)
        ok = all(e["sigma_condition"] and e["threshold_match"]
                 and e["bound_below_one"] and e["cap_ok"] for e in report)
        return 0 if ok else 2
    raise ZkwanderError(f"unknown table {args.table}")


def cmd_asymptotic(args) -> int:
    if args.minimal:
        found = asymptotic.minimal_beta(args.k)
        cap = asymptotic.beta_cap(args.k)
        if found is None:
            print(f"no (beta, sigma) found up to the cap {cap!r}")
            return 2
        beta, sigma = found
        print(f"minimal beta = {beta} at sigma = {sigma} (cap {cap!r})")
        return 0
    sigma = float(args.sigma)
    cap = asymptotic.beta_cap(args.k)
    cond = asymptotic.sigma_condition(args.k, args.beta, sigma)
    threshold = asymptotic.sigma_threshold(args.k, sigma)
    bound = asymptotic.objective_bound(args.k, args.beta, sigma)
    print(f"sigma condition: {cond} (threshold {threshold!r})")
    print(f"objective bound: {bound!r}")
    print(f"a({args.k}) = {asymptotic.a_factor(args.k)!r}")
    print(f"cap 5k+700/(k-9)^2 = {cap!r}")
    return 0 if (cond and bound < 1.0) else 2


# ---------------------------------------------------------------------------

def _add_common_model_flags(p):
    p.add_argument("--alpha", type=_parse_fraction, required=True,
                   help="space exponent as a rational, e.g. -16 or -33/2")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--phi2", type=int, default=0)
    p.add_argument("--phi3", type=int, default=0)
    p.add_argument("--gamma", help="six degrees overriding the phi pattern")
    p.add_argument("--regime", choices=REGIMES)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zkwander",
                     description="invariant-subspace counterexample toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("eval", help="reduced system and objective values")
    _add_common_model_flags(p)
    p.add_argument("--d", type=_parse_d, default=_parse_d("1,4,6"))
    p.add_argument("--z3", type=_parse_fraction)
    p.add_argument("--z1", type=_parse_fraction)
    p.add_argument("--override-base", type=_parse_fraction,
                   help="base alpha whose 12 matrix weights get replaced")
    p.add_argument("--emit-weights", action="store_true",
                   help="dump the 12 matrix weights as exact rationals")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", help="minimize the objective over d")
    p.add_argument("--config", help="JSON file with SearchConfig fields, "
                   "one value each: a search takes one system")
    p.add_argument("--alpha", type=_parse_fraction)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--phi2", type=int, default=0)
    p.add_argument("--phi3", type=int, default=0)
    p.add_argument("--strategy", default="coordinate-descent",
                   choices=STRATEGIES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("pipeline",
                       help="search, recover, attach registers, certify")
    _add_common_model_flags(p)
    p.add_argument("--d", type=_parse_d,
                   help="skip the search and use this point")
    p.add_argument("--z3", type=_parse_fraction)
    p.add_argument("--override-base", type=_parse_fraction)
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
        if (args.command == "asymptotic" and not args.minimal
                and (args.beta is None or args.sigma is None)):
            raise ZkwanderError("--beta and --sigma are required "
                                "unless --minimal is given")
        folder = os.path.dirname(getattr(args, "out", None) or "")
        if folder and not os.path.isdir(folder):
            # refused before any search, certificate or table is computed
            raise ZkwanderError(f"cannot write {args.out}: no directory "
                                f"{folder}")
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
