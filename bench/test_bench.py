"""Self-tests of the benchmark itself.

    python3 -m pytest bench -q

They check that op lists are reproducible, that each output check rejects
a deliberately wrong result, that tracing leaves the package as it found
it, and that a short run of every workload completes with no failed op.
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import zkwander  # noqa: E402

import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _headline_op():
    return next(op for op in next(wl.cycles("certify-exact", 0))
                if op.headline)


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench/run.py"),
                           *args], cwd=str(cwd), capture_output=True,
                          text=True, timeout=300)


# -- op lists ---------------------------------------------------------------

@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_ops(workload):
    def first_cycles(seed):
        stream = wl.cycles(workload, seed, cert_path="c.json", workdir="w")
        return [next(stream) for _ in range(3)]
    assert first_cycles(11) == first_cycles(11)
    assert first_cycles(11) != first_cycles(12)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_cycle_mix_does_not_depend_on_seed(workload):
    def kinds(seed):
        cycle = next(wl.cycles(workload, seed, cert_path="c", workdir="w"))
        return sorted(getattr(op, "kind", type(op).__name__) for op in cycle)
    assert kinds(1) == kinds(2)


def test_outcome_tally_repeats():
    def first_cycle_tally():
        first = wl.timed_run(wl.cycles("certify-exact", 5), 0)[0]
        outcomes, failures = wl.check_all(first)
        assert not failures
        return wl.tally(outcomes)
    assert first_cycle_tally() == first_cycle_tally()


# -- output checks reject wrong results ---------------------------------------

def test_headline_passes_its_check():
    op = _headline_op()
    assert wl.check(op, wl.execute(op)) == "pass"


def test_check_rejects_tampered_certificate():
    op = _headline_op()
    res = wl.execute(op)
    seq = zkwander.dirichlet(op.alpha)
    rs = zkwander.reduce_system(seq, zkwander.DegreePattern.default(6))
    params = zkwander.attach_register(
        zkwander.recover(rs, op.d, z3=op.z3), 1, 1)
    data = json.loads(zkwander.verify(params.pair, seq).to_json())
    tampered = copy.deepcopy(data)
    tampered["coefficients"]["a_high"][0] = str(
        Fraction(tampered["coefficients"]["a_high"][0]) * 2)
    report = zkwander.check_certificate(tampered)
    bad = wl.Result("pass", {"c": res.data["c"], "report": report})
    with pytest.raises(wl.CheckFailed):
        wl.check(op, bad)


def test_check_rejects_wrong_headline_c():
    op = _headline_op()
    res = wl.execute(op)
    res.data["c"] = res.data["c"] * Fraction(1000001, 1000000)
    with pytest.raises(wl.CheckFailed, match="headline c"):
        wl.check(op, res)


def test_check_rejects_pass_with_c_not_below_one():
    op = _headline_op()
    res = wl.execute(op)
    res.data["c"] = Fraction(1)
    with pytest.raises(wl.CheckFailed):
        wl.check(op, res)


def test_check_rejects_wrong_exit_code(tmp_path):
    cert = tmp_path / "headline.json"
    wl.make_headline_certificate(str(cert))
    op = wl.CliOp("certify", ("certify", "--check", str(cert)))
    good = wl.execute(op, ROOT, str(tmp_path))
    assert wl.check(op, good) == "ok"
    bad = wl.Result("negative", dict(good.data, code=2))
    with pytest.raises(wl.CheckFailed, match="exited 2"):
        wl.check(op, bad)


def test_check_rejects_search_result_that_does_not_confirm():
    op = wl.SearchOp(Fraction(-16), 6, 0, 0, "grid")
    res = wl.execute(op)
    assert wl.check(op, res) == "below"
    value, text, regime, _ = res.data["confirmed"]
    res.data["confirmed"] = (value, text, regime, "above")
    with pytest.raises(wl.CheckFailed, match="confirm_value"):
        wl.check(op, res)


def test_check_rejects_non_minimal_beta():
    op = wl.MinimalBetaOp(20)
    res = wl.execute(op)
    beta, sigma = res.data["found"]
    res.data["found"] = (beta + 1, sigma)
    with pytest.raises(wl.CheckFailed, match="not minimal"):
        wl.check(op, res)


# -- tracing ----------------------------------------------------------------

def test_tracer_sees_calls_and_restores_the_package():
    original = zkwander.weights.weight
    objectives = dict(zkwander.search._OBJECTIVES)
    t = tr.Tracer().install()
    try:
        assert zkwander.reduction.weight is not original
        assert zkwander.reduction.weight is zkwander.weights.weight
        assert zkwander.search._OBJECTIVES["B1"] is not objectives["B1"]
        wl.run_ops([_headline_op(),
                    wl.SearchOp(Fraction(-16), 6, 0, 0, "grid")], tracer=t)
    finally:
        t.uninstall()
    assert zkwander.weights.weight is original
    assert zkwander.reduction.weight is original
    assert zkwander.search._OBJECTIVES == objectives
    assert t.counters["reduction.objective.calls"] > 729   # the grid
    totals = t.totals()
    assert totals["weights.weight.rational"][0] > 0
    assert totals["certify.verify.rational"][0] == 2     # op + replay
    assert totals["scalars.Radical"][0] > 0
    spans = t.spans
    for i in range(len(spans["id"])):
        duration = spans["end"][i] - spans["start"][i]
        assert -1e-9 <= spans["self"][i] <= duration + 1e-9
        assert spans["op"][i] in (0, 1)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       numpy.core",
        "import time:        20 |         30 |     numpy",
        "import time:       100 |        130 |   scipy",
        "import time:        50 |         50 |   scipy.optimize",
        "import time:        40 |         40 |   mpmath",
        "import time:         5 |        225 | zkwander",
    ])
    assert worker.parse_importtime(text) == {
        "import.zkwander_ms": 0.225, "import.scipy_ms": 0.18,
        "import.mpmath_ms": 0.04}


# -- BENCHMARK.json and whole runs ------------------------------------------

def test_per_layer_names_and_units_match_benchmark_json():
    for m in SPEC["per_layer"]:
        assert worker.unit_and_better(m["name"]) == (m["unit"], m["better"])
        assert worker.moves(m["name"])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run(workload):
    proc = _run_bench("--workload", workload, "--seed", "3",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_smoke_trace():
    proc = _run_bench("--workload", "explore", "--seed", "3",
                      "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "certify-exact", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
