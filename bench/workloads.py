"""The four seeded workloads: op generation, op execution and output checks.

Each workload is an endless stream of *cycles*.  A cycle holds every input
class of the workload once, in a seeded order, with parameters that are
seeded or that rotate from a seeded start, so a run made of whole cycles
always has the same mix of cheap and expensive ops whatever the seed.  The
timed loop only ever stops at a cycle boundary.

Every op returns a small result record.  The checks live in separate
functions so that the self-tests can feed them deliberately wrong results.
An op is *failed* when it raises an exception that is not one of the
documented outcomes below, or when its check rejects the result.

Documented outcomes that count as correct:

* ``pass`` / ``fail``: a certificate verdict that replays identically;
* ``negative``: ``NoAdmissibleSystemError`` (nothing below threshold), or a
  CLI exit code 2 where the contract says 2;
* ``degenerate``: ``DegenerateReductionError`` or ``SingularSystemError``,
  the package's documented "cannot certify this quantity nonzero" errors
  (exit code 1 on the CLI, which the contract reserves for them).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional

from zkwander import (DegreePattern, NoAdmissibleSystemError,
                      RegisterTooLargeError, SearchConfig, attach_register,
                      auto_register, check_certificate, compute_C, dirichlet,
                      minimize, objective_B1, recover, reduce_system,
                      save_certificate, verify)
from zkwander import asymptotic
from zkwander.errors import (DegenerateReductionError, SingularSystemError,
                             ZkwanderError)
from zkwander.reference_data import TABLE1_ROWS, TABLE2_ROWS, TABLE5_ROWS
from zkwander.scalars import Interval
from zkwander.search import confirm_value

from calibration import calibration_ms, rescale

WORKLOADS = ("certify-exact", "certify-interval", "explore", "cli-cold")

# The published headline: alpha = -16, k = 6, d = (1, 1, 4, 6), Z_3 = -2e13.
HEADLINE_C = 0.18894510966828287
HEADLINE_Z3 = Fraction(-2) * 10 ** 13

PUBLISHED = TABLE1_ROWS + TABLE2_ROWS
INTEGER_ROWS = tuple(r for r in PUBLISHED if r.alpha.denominator == 1)
INTERVAL_ROWS = tuple(r for r in PUBLISHED if r.alpha.denominator != 1)

STRATEGIES = ("grid", "coordinate-descent", "simplex")
# alpha offsets that keep an explore system "near" its published row
ALPHA_OFFSETS = (Fraction(-1, 2), Fraction(-1, 4), Fraction(0), Fraction(1, 4))
CLI_TABLE_ROWS = {1: len(TABLE1_ROWS), 2: len(TABLE2_ROWS),
                  5: len(TABLE5_ROWS)}

SRC = Path(__file__).resolve().parent.parent / "src"


class CheckFailed(Exception):
    """An op produced a result that its output check rejects."""


# ---------------------------------------------------------------------------
# op descriptions (plain data, so the same seed gives an equal op list)

@dataclass(frozen=True)
class CertifyOp:
    alpha: Fraction
    k: int
    phi2: int
    phi3: int
    d: tuple                       # (d_0, d_1, d_2, d_3), exact
    regime: str
    z3: Optional[Fraction] = None  # None: the package's default choose_Z3
    headline: bool = False


@dataclass(frozen=True)
class SearchOp:
    alpha: Fraction
    k: int
    phi2: int
    phi3: int
    strategy: str


@dataclass(frozen=True)
class MinimalBetaOp:
    k: int


@dataclass(frozen=True)
class CliOp:
    kind: str
    argv: tuple                    # arguments after `python -m zkwander`
    params: tuple = ()             # what the check needs to recompute


def _scale(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 99), rng.randint(1, 99))


def _scaled_d(row, lam: Fraction) -> tuple:
    return tuple(lam * v for v in (Fraction(1),) + row.d)


def _certify_op(row, rng, regime) -> CertifyOp:
    return CertifyOp(row.alpha, row.k, row.phi2, row.phi3,
                     _scaled_d(row, _scale(rng)), regime)


def _certify_exact_cycle(rng: random.Random, turn: int) -> list:
    # Table 1 row 1 is the headline configuration; it always runs pinned.
    # Nine ops, so the median op falls inside an input class, not between two.
    ops = [_certify_op(row, rng, "rational") for row in INTEGER_ROWS[1:]]
    ops.append(CertifyOp(Fraction(-16), 6, 0, 0,
                         (Fraction(1), Fraction(1), Fraction(4), Fraction(6)),
                         "rational", z3=HEADLINE_Z3, headline=True))
    return ops


def _certify_interval_cycle(rng: random.Random, turn: int) -> list:
    # alpha = -33/2 twice (two seeded scales): seven ops, for the same reason
    ops = [_certify_op(row, rng, "interval") for row in INTERVAL_ROWS]
    for _ in range(2):
        lam = _scale(rng)
        ops.append(CertifyOp(Fraction(-33, 2), 6, 0, 0,
                             tuple(lam * v for v in (1, 1, 4, 6)), "interval"))
    return ops


def _explore_cycle(rng: random.Random, turn: int) -> list:
    # Offsets and strategies rotate with the turn, so every 12 turns give
    # each published row every (offset, strategy) pair once; minimal_beta's
    # k walks through 10..60.  A run then does the same spread of work
    # whatever its seed, which only sets where the rotation starts.
    ops = [SearchOp(row.alpha + ALPHA_OFFSETS[(i + turn) % len(ALPHA_OFFSETS)],
                    row.k, row.phi2, row.phi3,
                    STRATEGIES[(i + turn) % len(STRATEGIES)])
           for i, row in enumerate(PUBLISHED)]
    ops += [MinimalBetaOp(10 + (2 * turn + j) % 51) for j in range(2)]
    return ops


def _fmt_d(d) -> str:
    return ",".join(str(v) for v in d)


def _cli_cycle(rng: random.Random, turn: int, cert_path: str = "",
               workdir: str = "") -> list:
    # Arguments rotate with the turn, as in _explore_cycle.
    model = ("--k", "--phi2", "--phi3")
    eval_row = INTEGER_ROWS[turn % len(INTEGER_ROWS)]
    pipe_row = INTEGER_ROWS[(turn + 4) % len(INTEGER_ROWS)]
    search_row = PUBLISHED[turn % len(PUBLISHED)]
    strategy = STRATEGIES[turn % len(STRATEGIES)]
    table = sorted(CLI_TABLE_ROWS)[turn % len(CLI_TABLE_ROWS)]
    k = 10 + (7 * turn) % 51
    out = f"{workdir}/pipeline-{turn}.json"

    def flags(row):
        return ("--alpha", str(row.alpha)) + tuple(
            x for flag, v in zip(model, (row.k, row.phi2, row.phi3))
            for x in (flag, str(v)))

    return [
        CliOp("eval", ("eval", *flags(eval_row), "--d", _fmt_d(eval_row.d)),
              (eval_row,)),
        CliOp("pipeline", ("pipeline", *flags(pipe_row), "--d",
                           _fmt_d(_scaled_d(pipe_row, _scale(rng))),
                           "--out", out), (out,)),
        CliOp("certify", ("certify", "--check", cert_path)),
        CliOp("reproduce", ("reproduce", "--table", str(table)), (table,)),
        CliOp("search", ("search", *flags(search_row), "--strategy", strategy),
              (SearchOp(search_row.alpha, search_row.k, search_row.phi2,
                        search_row.phi3, strategy),)),
        CliOp("asymptotic", ("asymptotic", "--k", str(k), "--minimal"), (k,)),
    ]


_CYCLES = {
    "certify-exact": _certify_exact_cycle,
    "certify-interval": _certify_interval_cycle,
    "explore": _explore_cycle,
}


def cycles(workload: str, seed: int, **cli_paths) -> Iterator[list]:
    """The workload's endless, seeded stream of cycles."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    turn = rng.randrange(2 ** 32)      # seeded start of the rotations
    while True:
        if workload == "cli-cold":
            ops = _cli_cycle(rng, turn, **cli_paths)
        else:
            ops = _CYCLES[workload](rng, turn)
        rng.shuffle(ops)
        yield ops
        turn += 1


# ---------------------------------------------------------------------------
# executing ops (the timed part)

@dataclass
class Result:
    outcome: str                   # pass, fail, negative, degenerate, ...
    data: dict = field(default_factory=dict)


def run_certify(op: CertifyOp) -> Result:
    """reduce -> recover -> registers -> verify -> to_json -> replay."""
    seq = dirichlet(op.alpha)
    pattern = DegreePattern.from_phi(op.k, op.phi2, op.phi3)
    try:
        rs = reduce_system(seq, pattern, op.regime)
        params = recover(rs, op.d, z3=op.z3)
    except NoAdmissibleSystemError:
        return Result("negative")
    try:
        params = attach_register(params, 1, 1)
    except RegisterTooLargeError:
        r = auto_register(params)
        params = attach_register(params, r, r)
    cert = verify(params.pair, seq, op.regime)
    report = check_certificate(json.loads(cert.to_json()))
    return Result(cert.verdict, {"c": cert.c_value, "report": report})


def run_search(op: SearchOp) -> Result:
    """minimize one system, then confirm_value the reported point."""
    config = SearchConfig(alpha=op.alpha, k=op.k, phi2=op.phi2, phi3=op.phi3,
                          strategy=op.strategy)
    try:
        res = minimize(config)
    except NoAdmissibleSystemError:
        return Result("negative")
    except (DegenerateReductionError, SingularSystemError) as exc:
        return Result("degenerate", {"error": str(exc)})
    pattern = DegreePattern.from_phi(op.k, op.phi2, op.phi3)
    confirmed = confirm_value(dirichlet(op.alpha), pattern, res.d)
    return Result(res.landing_side, {"result": res, "confirmed": confirmed})


def run_minimal_beta(op: MinimalBetaOp) -> Result:
    found = asymptotic.minimal_beta(op.k)
    return Result("negative" if found is None else "found", {"found": found})


def run_cli(op: CliOp, root: Path, cwd: str) -> Result:
    """One fresh `python -m zkwander` process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "zkwander", *op.argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    outcome = {0: "ok", 2: "negative"}.get(proc.returncode, "error")
    return Result(outcome, {"code": proc.returncode, "stdout": proc.stdout,
                            "stderr": proc.stderr})


def execute(op, root: Path = SRC.parent, cwd: str = ".") -> Result:
    if isinstance(op, CertifyOp):
        return run_certify(op)
    if isinstance(op, SearchOp):
        return run_search(op)
    if isinstance(op, MinimalBetaOp):
        return run_minimal_beta(op)
    return run_cli(op, root, cwd)


# ---------------------------------------------------------------------------
# output checks (outside the timed part)

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _below_one(c) -> bool:
    if isinstance(c, Interval):
        return c.hi < 1.0
    return c < 1


def check_certify(op: CertifyOp, res: Result) -> str:
    if res.outcome == "negative":
        _require(not op.headline, "headline op found no admissible Z_3")
        return "negative"
    report = res.data["report"]
    _require(report["ok"], f"certificate replay mismatches: "
                           f"{report['mismatches']}")
    _require(report["recomputed_verdict"] == res.outcome,
             f"replayed verdict {report['recomputed_verdict']} != "
             f"{res.outcome}")
    if res.outcome == "pass":
        c = res.data["c"]
        _require(c is not None and _below_one(c), f"pass with c = {c!r}")
        if op.regime == "interval":
            pattern = DegreePattern.from_phi(op.k, op.phi2, op.phi3)
            side = confirm_value(dirichlet(op.alpha), pattern, op.d[1:])[3]
            _require(side == "below",
                     f"interval pass but confirm_value lands {side}")
    else:
        _require(res.outcome == "fail", f"unknown verdict {res.outcome!r}")
    if op.headline:
        _require(res.outcome == "pass", "headline certificate did not pass")
        _require(float(res.data["c"]) == HEADLINE_C,
                 f"headline c = {float(res.data['c'])!r}, "
                 f"published {HEADLINE_C!r}")
    return res.outcome


def check_search(op: SearchOp, res: Result) -> str:
    if res.outcome in ("negative", "degenerate"):
        return res.outcome
    r = res.data["result"]
    _require(r.evaluations > 0, "search made no evaluations")
    reported = (r.value, r.value_repr, r.regime, r.landing_side)
    _require(reported == tuple(res.data["confirmed"]),
             f"confirm_value at d={r.d} gives {res.data['confirmed']}, "
             f"search reported {reported}")
    _require(r.below_threshold == (r.landing_side == "below"),
             "below_threshold disagrees with the landing side")
    return r.landing_side


def _beta_works(k: int, beta: int, sigma) -> bool:
    return (asymptotic.sigma_condition(k, beta, sigma)
            and asymptotic.objective_bound(k, beta, sigma) < 1.0)


def check_minimal_beta(op: MinimalBetaOp, res: Result) -> str:
    found = res.data["found"]
    if found is None:
        return "negative"
    beta, sigma = found
    _require(_beta_works(op.k, beta, sigma),
             f"minimal_beta({op.k}) = {found} does not satisfy the bound")
    _require(beta == 1 or not any(_beta_works(op.k, beta - 1, s)
                                  for s in asymptotic.DEFAULT_SIGMA_GRID),
             f"minimal_beta({op.k}) = {beta} is not minimal")
    return "found"


def _line_value(stdout: str, pattern: str) -> str:
    m = re.search(pattern, stdout, re.MULTILINE)
    _require(m is not None, f"output lacks {pattern!r}")
    return m.group(1)


def expected_cli_code(op: CliOp) -> int:
    """Exit code the CLI contract prescribes, from the library's own answer:
    0 success, 2 honest negative, 1 documented computational error."""
    if op.kind == "search":
        s = op.params[0]
        try:
            res = minimize(SearchConfig(alpha=s.alpha, k=s.k, phi2=s.phi2,
                                        phi3=s.phi3, strategy=s.strategy))
        except ZkwanderError:
            return 1
        return 0 if res.below_threshold else 2
    if op.kind == "asymptotic":
        return 0 if asymptotic.minimal_beta(op.params[0]) is not None else 2
    if op.kind == "reproduce" and op.params[0] == 5:
        ok = all(e["sigma_condition"] and e["threshold_match"]
                 and e["bound_below_one"] and e["cap_ok"]
                 for e in asymptotic.reproduce_table5())
        return 0 if ok else 2
    return 0


def check_cli(op: CliOp, res: Result) -> str:
    code, out = res.data["code"], res.data["stdout"]
    want = expected_cli_code(op)
    _require(code == want,
             f"`zkwander {' '.join(op.argv)}` exited {code}, contract says "
             f"{want}: {res.data['stderr'][-300:]}")
    if code == 1:
        _require(res.data["stderr"].startswith("error:"),
                 "exit 1 without an error message")
        return "degenerate"
    if op.kind == "eval":
        row = op.params[0]
        rs = reduce_system(dirichlet(row.alpha),
                           DegreePattern.from_phi(row.k, row.phi2, row.phi3))
        b1 = float(objective_B1(compute_C(rs, row.d)))
        _require(float(_line_value(out, r"^B1 = (\S+)$")) == b1,
                 f"eval printed a B1 other than {b1!r}")
    elif op.kind == "pipeline":
        _require(_line_value(out, r"^verdict: (\w+)") == "pass",
                 "pipeline verdict is not pass")
        _require(float(_line_value(out, r"c = (\S+)$")) < 1.0,
                 "pipeline pass with c >= 1")
        report = check_certificate(op.params[0])
        _require(report["ok"] and report["recomputed_verdict"] == "pass",
                 f"pipeline certificate does not replay: {report}")
    elif op.kind == "certify":
        _require("schema ok: True" in out and "recomputed: pass" in out,
                 "certify --check did not replay a pass")
    elif op.kind == "reproduce":
        rows = list(csv.reader(io.StringIO(out)))
        _require(len(rows) == 1 + CLI_TABLE_ROWS[op.params[0]],
                 f"table {op.params[0]} has {len(rows) - 1} rows")
    elif op.kind == "search":
        s = op.params[0]
        side = _line_value(out, r"landing side vs threshold: (\w+)")
        d = tuple(Fraction(v) for v in
                  _line_value(out, r"d = \(([^)]*)\)").split(", "))
        confirmed = confirm_value(dirichlet(s.alpha),
                                  DegreePattern.from_phi(s.k, s.phi2, s.phi3),
                                  d)
        _require(confirmed[3] == side,
                 f"search printed {side}, confirm_value gives {confirmed[3]}")
        _require(code == (0 if side == "below" else 2),
                 "search exit code disagrees with its landing side")
    else:
        beta = int(_line_value(out, r"minimal beta = (\d+)"))
        sigma = float(_line_value(out, r"at sigma = (\S+)"))
        _require(_beta_works(op.params[0], beta, sigma),
                 f"asymptotic printed a beta that does not work: {beta}")
    return "ok" if code == 0 else "negative"


def check(op, res: Result) -> str:
    """Outcome class of a correct op; raises CheckFailed otherwise."""
    if isinstance(op, CertifyOp):
        return check_certify(op, res)
    if isinstance(op, SearchOp):
        return check_search(op, res)
    if isinstance(op, MinimalBetaOp):
        return check_minimal_beta(op, res)
    return check_cli(op, res)


# ---------------------------------------------------------------------------
# set-up and the timed loop

def make_headline_certificate(path: str) -> None:
    """The certificate `certify --check` replays in the cli-cold workload."""
    seq = dirichlet(-16)
    rs = reduce_system(seq, DegreePattern.default(6))
    params = attach_register(recover(rs, (1, 4, 6), z3=HEADLINE_Z3), 1, 1)
    save_certificate(verify(params.pair, seq), path)


@dataclass
class Executed:
    op: object
    result: Optional[Result]
    latency_s: float
    error: Optional[str] = None    # unexpected exception, as text
    calibration_ms: float = 0.0    # snippet time around it (calibration.py)


def run_ops(ops, root: Path = SRC.parent, cwd: str = ".",
            tracer=None) -> list:
    """Run ops in order, timing each one; exceptions become failed ops."""
    done = []
    clock = time.perf_counter
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        t0 = clock()
        try:
            res = execute(op, root, cwd)
            err = None
        except Exception as exc:  # a crash is a failed op, not a dead run
            res, err = None, f"{type(exc).__name__}: {exc}"
        done.append(Executed(op, res, clock() - t0, err))
    return done


def timed_run(stream: Iterator[list], seconds: float, root: Path = SRC.parent,
              cwd: str = ".") -> list:
    """Whole cycles until `seconds` of wall time have passed (at least one);
    returns the executed ops, one list per cycle.

    The calibration snippet runs before the first op and after every op; an
    op's snippet time is the mean of the two around it.
    """
    done = []
    before = calibration_ms()
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        cycle = []
        for op in next(stream):
            ex = run_ops([op], root, cwd)[0]
            after = calibration_ms()
            ex.calibration_ms = (before + after) / 2
            before = after
            cycle.append(ex)
        done.append(cycle)
    return done


def normalized_ms(ex: Executed) -> float:
    """Op latency in ms at reference speed (see calibration.py)."""
    return rescale(ex.latency_s, ex.calibration_ms) * 1e3


def check_all(done: list) -> tuple:
    """(outcome classes, failure messages) for executed ops, in order."""
    outcomes, failures = [], []
    for ex in done:
        if ex.error is not None:
            outcomes.append("failed")
            failures.append(f"{ex.op}: raised {ex.error}")
            continue
        try:
            outcomes.append(check(ex.op, ex.result))
        except CheckFailed as exc:
            outcomes.append("failed")
            failures.append(f"{ex.op}: {exc}")
    return outcomes, failures


def tally(outcomes) -> dict:
    out = {}
    for o in outcomes:
        out[o] = out.get(o, 0) + 1
    return dict(sorted(out.items()))


def percentile(sorted_xs: list, q: float) -> float:
    """Linear-interpolated q-quantile of an ascending list."""
    pos = q * (len(sorted_xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """p90 when at least ten samples lie beyond it; otherwise the highest
    quantile that still has ten beyond it, and never below the median."""
    return max(0.5, min(0.9, 1.0 - 10.0 / n))
