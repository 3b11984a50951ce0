"""One workload process: set-up, then the timed run or the traced profile.

    python3 bench/worker.py --workload W --seed N --seconds S --mode M

Modes: ``probe`` sets up and exits (``run.py`` times set-up from several
fresh processes), ``run`` is the untraced timed run, ``trace`` the traced
profile.  The process prints ``READY`` when set-up is done and, in the last
two modes, one JSON line with its results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import zkwander  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import REGIMES, Tracer  # noqa: E402

WORK = ROOT / ".bench_work"
LIBRARY_WORKLOADS = ("certify-exact", "certify-interval", "explore")

# Each per-layer metric and the end-to-end metric and workload it should
# move, matched by longest name prefix.
MOVES = (
    ("import.", "op_ms.p50 on cli-cold and setup_s everywhere; "
                "not ops_per_s on the library workloads"),
    ("process.", "op_ms.p50 on cli-cold and setup_s everywhere"),
    ("weights.", "ops_per_s on certify-interval first, explore and "
                 "certify-exact second"),
    ("scalars.Radical", "op_ms.p50 on certify-exact"),
    ("scalars.", "op_ms.p50 on certify-interval"),
    ("model.", "op_ms.p50 on certify-exact and certify-interval"),
    ("reduction.", "ops_per_s on explore (float); one call per op on the "
                   "certify workloads"),
    ("reduction.reduce_system.float", "ops_per_s on explore"),
    ("recovery.", "op_ms.p50 on the certify workloads, by a small share"),
    ("certify.", "op_ms.p50 and op_ms.tail on the certify workloads"),
    ("search.", "ops_per_s on explore"),
    ("asymptotic.", "ops_per_s on explore"),
    ("cli.", "op_ms.p50 on cli-cold"),
    ("trace.", "nothing; the cost of tracing itself"),
)


def moves(name: str) -> str:
    return max((p for p in MOVES if name.startswith(p[0])),
               key=lambda p: len(p[0]))[1]


def unit_and_better(name: str) -> tuple:
    """(unit, better direction) of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[1]
    if last in ("self_s",):
        return "s", "lower"
    if last.endswith("_ms"):
        return "ms", "lower"
    if last == "evals_per_s":
        return "1/s", "higher"
    if last in ("distinct_ratio", "below_ratio"):
        return "ratio", "higher"
    if last == "overhead_frac":
        return "ratio", "lower"
    if last == "bytes":
        return "bytes", "lower"
    if name == "certify.verdict.pass":
        return "count", "higher"
    return "count", "lower"


# ---------------------------------------------------------------------------
# imports and bare interpreter

def parse_importtime(text: str) -> dict:
    """Cumulative import times (ms) of zkwander, scipy and mpmath.

    A package's time is the sum of its outermost entries: an entry counts
    unless one of its importers has the same top-level name.
    """
    entries = []                    # (depth, name, cumulative us)
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cum)))
    parent = [None] * len(entries)
    last_at = {}
    for i in reversed(range(len(entries))):     # children precede parents
        parent[i] = last_at.get(entries[i][0] - 1)
        last_at[entries[i][0]] = i

    def outermost(i, top):
        j = parent[i]
        while j is not None:
            if entries[j][1].split(".")[0] == top:
                return False
            j = parent[j]
        return True

    out = {}
    for top in ("zkwander", "scipy", "mpmath"):
        out[f"import.{top}_ms"] = sum(
            cum for i, (_, name, cum) in enumerate(entries)
            if name.split(".")[0] == top and outermost(i, top)) / 1000.0
    return out


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def import_times(runs: int = 3) -> dict:
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import zkwander"],
            cwd=str(ROOT), env=_env(), capture_output=True, text=True,
            timeout=60, check=True)
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def bare_python_ms(runs: int = 5) -> float:
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=_env(),
                       check=True, timeout=60)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# the traced profile

def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    totals = tracer.totals()
    counters = tracer.counters

    def calls(key):
        return totals.get(key, (0, 0.0))[0]

    def self_s(key):
        return totals.get(key, (0, 0.0))[1]

    v = dict(extra)
    for r in REGIMES:
        v[f"weights.weight.{r}.calls"] = calls(f"weights.weight.{r}")
        v[f"weights.weight.{r}.self_s"] = self_s(f"weights.weight.{r}")
    weight_calls = sum(calls(f"weights.weight.{r}") for r in REGIMES)
    v["weights.weight.distinct_ratio"] = (
        len(tracer.weight_keys) / weight_calls if weight_calls else 0.0)
    v["scalars.power_interval.calls"] = calls("scalars.power_interval")
    v["scalars.power_interval.self_s"] = self_s("scalars.power_interval")
    for cls in ("Radical", "Interval"):
        v[f"scalars.{cls}.ops"] = calls(f"scalars.{cls}")
        v[f"scalars.{cls}.self_s"] = self_s(f"scalars.{cls}")
    v["scalars.cramer_solve3.self_s"] = self_s("scalars.cramer_solve3")
    for fn in ("compute_A", "inner_product"):
        for r in ("rational", "interval"):
            v[f"model.{fn}.{r}.calls"] = calls(f"model.{fn}.{r}")
            v[f"model.{fn}.{r}.self_s"] = self_s(f"model.{fn}.{r}")
    v["model.construct_F3.self_s"] = self_s("model.construct_F3")
    for fn in ("reduce_system", "compute_C"):
        for r in REGIMES:
            v[f"reduction.{fn}.{r}.calls"] = calls(f"reduction.{fn}.{r}")
            v[f"reduction.{fn}.{r}.self_s"] = self_s(f"reduction.{fn}.{r}")
    v["reduction.objective.calls"] = counters.get(
        "reduction.objective.calls", 0)
    v["reduction.degenerate"] = counters.get("reduction.degenerate", 0)
    v["recovery.recover.self_s"] = self_s("recovery.recover")
    v["recovery.choose_Z3.calls"] = calls("recovery.choose_Z3")
    v["recovery.choose_Z3.self_s"] = self_s("recovery.choose_Z3")
    v["recovery.attach_register.calls"] = calls("recovery.attach_register")
    v["recovery.attach_register.rejected"] = counters.get(
        "recovery.attach_register.rejected", 0)
    v["recovery.auto_register.calls"] = calls("recovery.auto_register")
    for r in ("rational", "interval"):
        v[f"certify.verify.{r}.self_s"] = self_s(f"certify.verify.{r}")
    v["certify.membership_sweep.self_s"] = self_s("certify.membership_sweep")
    v["certify.to_json.self_s"] = self_s("certify.to_json")
    v["certify.to_json.bytes"] = counters.get("certify.to_json.bytes", 0)
    v["certify.check_certificate.self_s"] = self_s("certify.check_certificate")
    v["certify.check_certificate.mismatches"] = counters.get(
        "certify.check_certificate.mismatches", 0)
    for verdict in ("pass", "fail"):
        v[f"certify.verdict.{verdict}"] = counters.get(
            f"certify.verdict.{verdict}", 0)
    for s in wl.STRATEGIES:
        v[f"search.minimize.{s}.calls"] = calls(f"search.minimize.{s}")
        v[f"search.minimize.{s}.self_s"] = self_s(f"search.minimize.{s}")
    v["search.evaluations"] = counters.get("search.evaluations", 0)
    v["search.singular_skipped"] = counters.get("search.singular_skipped", 0)
    systems = counters.get("search.systems", 0)
    v["search.below_ratio"] = (counters.get("search.below", 0) / systems
                               if systems else 0.0)
    for r in ("rational", "interval"):
        v[f"search.confirm_value.{r}.calls"] = calls(
            f"search.confirm_value.{r}")
        v[f"search.confirm_value.{r}.self_s"] = self_s(
            f"search.confirm_value.{r}")
    v["asymptotic.minimal_beta.calls"] = calls("asymptotic.minimal_beta")
    v["asymptotic.minimal_beta.self_s"] = self_s("asymptotic.minimal_beta")
    v["asymptotic.objective_bound.calls"] = calls("asymptotic.objective_bound")
    return v


def profile(seed: int, cert_path: str, workdir: str) -> tuple:
    """One cycle of every workload: library cycles untraced then traced,
    one CLI process per subcommand, import and interpreter timings.

    Returns (per-layer metrics, executed ops, path of the span file).
    """
    tracer = Tracer()
    executed = []
    plain_s = traced_s = 0.0
    evals = search_s = 0.0
    for workload in LIBRARY_WORKLOADS:
        ops = next(wl.cycles(workload, seed))
        plain = wl.run_ops(ops)
        tracer.install()
        try:
            traced = wl.run_ops(ops, tracer=tracer)
        finally:
            tracer.uninstall()
        plain_s += sum(e.latency_s for e in plain)
        traced_s += sum(e.latency_s for e in traced)
        for e in plain:
            if e.result is not None and "result" in e.result.data:
                evals += e.result.data["result"].evaluations
                search_s += e.latency_s
        executed += plain + traced
    cli_ops = next(wl.cycles("cli-cold", seed, cert_path=cert_path,
                             workdir=workdir))
    cli_done = wl.run_ops(cli_ops, ROOT, workdir)
    executed += cli_done

    extra = import_times()
    extra["process.bare_python_ms"] = bare_python_ms()
    for e in cli_done:
        extra[f"cli.{e.op.kind}.wall_ms"] = e.latency_s * 1e3
    extra["search.evals_per_s"] = evals / search_s if search_s else 0.0
    extra["trace.overhead_frac"] = traced_s / plain_s - 1.0
    span_file = WORK / f"spans-seed{seed}.csv.gz"
    extra["trace.spans"] = tracer.write_spans(span_file)
    return layer_metrics(tracer, extra), executed, span_file


# ---------------------------------------------------------------------------

def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def summarize(cycles: list) -> dict:
    """Metrics of a timed run, op times at reference speed."""
    done = [e for c in cycles for e in c]
    outcomes, failures = wl.check_all(done)
    raw = sorted(e.latency_s * 1e3 for e in done)
    norm = sorted(map(wl.normalized_ms, done))
    n = len(done)
    q = wl.tail_quantile(n)
    return {
        "attempted": n,
        "failed": len(failures),
        "failures": failures[:5],
        "cycles": len(cycles),
        "tally": wl.tally(outcomes),
        "tally_first_cycle": wl.tally(outcomes[:len(cycles[0])]),
        "op_ms.p50": statistics.median(norm),
        "op_ms.tail": wl.percentile(norm, q),
        "tail_q": q,
        "ops_per_s": n / (sum(norm) / 1e3),
        "op_s_total": sum(norm) / 1e3,
        "raw_op_ms.p50": statistics.median(raw),
        "raw_ops_per_s": n / (sum(raw) / 1e3),
        "calibration_ms.p50": statistics.median(
            e.calibration_ms for e in done),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "run", "trace"))
    args = ap.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(zkwander.__file__).resolve().parents:
        print(f"zkwander imported from {zkwander.__file__}, not {src}",
              file=sys.stderr)
        return 1

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        cert_path = str(workdir / "headline.json")
        if args.workload == "cli-cold" or args.mode == "trace":
            wl.make_headline_certificate(cert_path)
        stream = wl.cycles(args.workload, args.seed, **(
            {"cert_path": cert_path, "workdir": str(workdir)}
            if args.workload == "cli-cold" else {}))
        print("READY", flush=True)
        if args.mode == "probe":
            return 0
        if args.mode == "trace":
            metrics, done, span_file = profile(args.seed, cert_path,
                                               str(workdir))
            outcomes, failures = wl.check_all(done)
            out = {"attempted": len(done), "failed": len(failures),
                   "failures": failures[:5], "tally": wl.tally(outcomes),
                   "span_file": str(span_file.relative_to(ROOT)),
                   "metrics": {name: {"value": value,
                                      "unit": unit_and_better(name)[0],
                                      "moves": moves(name)}
                               for name, value in metrics.items()}}
        else:
            out = summarize(wl.timed_run(stream, args.seconds, ROOT,
                                         str(workdir)))
            out["peak_rss_mb"] = peak_rss_mb(args.workload == "cli-cold")
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
