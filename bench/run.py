"""zkwander benchmark: four seeded, single-client, closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package in ``src/``.
With ``--trace 0`` it times set-up from several fresh worker processes,
runs the workload for ``S`` seconds of whole cycles in the last of them,
checks every output, and prints the end-to-end metrics.  With ``--trace 1``
it prints the per-layer metrics of the traced profile instead (see
``worker.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every op passed its output check.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import CALIBRATION_REF_MS, calibration_ms, rescale

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# as in workloads.py, which this file cannot import: it imports the package
WORKLOADS = ("certify-exact", "certify-interval", "explore", "cli-cold")
SETUP_LAUNCHES = 5
DEADLINE_S = 170.0


def launch(args, mode: str, deadline: float) -> tuple:
    """Start a worker; return (seconds until READY, its last output line)."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                          text=True) as proc:
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                   proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            lines = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker ({mode}) exited {code} "
                           f"before finishing")
    return setup, (lines[-1] if lines else "")


def end_to_end(args, deadline: float) -> dict:
    setups, raw_setups = [], []
    before = calibration_ms()
    for i in range(SETUP_LAUNCHES):
        mode = "run" if i == SETUP_LAUNCHES - 1 else "probe"
        setup, line = launch(args, mode, deadline)
        after = calibration_ms()
        raw_setups.append(setup)
        setups.append(rescale(setup, (before + after) / 2))
        before = after
    run = json.loads(line)
    n, q = run["attempted"], run["tail_q"]
    rows = [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} fresh processes, at reference speed"),
        ("op_ms.p50", run["op_ms.p50"], "ms", f"n={n}"),
        ("op_ms.tail", run["op_ms.tail"], "ms", f"p{100 * q:.0f}, n={n}"),
        ("ops_per_s", run["ops_per_s"], "1/s",
         f"n={n} ops in {run['op_s_total']:.3f} s of op time"),
        ("peak_rss_mb", run["peak_rss_mb"], "MiB",
         "largest CLI process" if args.workload == "cli-cold"
         else "worker process"),
    ]
    print(f"ops: {n} in {run['cycles']} whole cycles, {run['failed']} failed "
          f"(ops_failed_frac = {run['failed'] / n:.4g}, n={n})")
    print(f"outcomes: {json.dumps(run['tally'])}; first cycle: "
          f"{json.dumps(run['tally_first_cycle'])}")
    print(f"times at reference speed (calibration snippet median "
          f"{run['calibration_ms.p50']:.4g} ms, reference "
          f"{CALIBRATION_REF_MS:g} ms); as measured: "
          f"setup_s = {statistics.median(raw_setups):.6g} s, "
          f"op_ms.p50 = {run['raw_op_ms.p50']:.6g} ms, "
          f"ops_per_s = {run['raw_ops_per_s']:.6g} 1/s")
    for name, value, unit, note in rows:
        print(f"  {name:<12} {value:>12.6g} {unit:<4} {note}")
    for failure in run["failures"]:
        print(f"FAILED: {failure}")
    return {"correct": run["failed"] == 0, "attempted": n,
            "failed": run["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, value, unit, _ in rows}}


def traced(args, deadline: float) -> dict:
    _, line = launch(args, "trace", deadline)
    run = json.loads(line)
    print(f"traced profile: {run['attempted']} ops, {run['failed']} failed; "
          f"outcomes {json.dumps(run['tally'])}; spans in {run['span_file']}")
    for name, m in run["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} "
              f"moves {m['moves']}")
    for failure in run["failures"]:
        print(f"FAILED: {failure}")
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in run["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # One CPU for this process, the workers and the CLI processes they start
    # (affinity is inherited): the two CPUs of a shared machine can differ in
    # speed, and the calibration snippet must run where the measured work ran.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "zkwander" / "__init__.py").is_file():
        print(f"no zkwander sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # "build": byte-compile up front so no timed process pays for it
    if not (compileall.compile_dir(str(ROOT / "src"), quiet=1)
            and compileall.compile_dir(str(BENCH), quiet=1)):
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2
    print(f"zkwander benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        result = (traced if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
