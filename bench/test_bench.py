"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` (about two minutes).

They run the traced benchmark twice per workload, at two seeds, and check
that every count repeats and that the layers a workload must not reach read
zero while the ones it exercises do not.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import SETUP_RUNS, WORKLOAD_NAMES, HostSpeed, tail_percentile  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name in WORKLOAD_NAMES:
        runs = []
        for seed in (1, 2):
            proc = _run("--workload", name, "--seed", str(seed), "--seconds", "1",
                        "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            runs.append((json.loads(lines[-2]), json.loads(lines[-1])))
        out[name] = runs
    return out


def _value(result, name):
    return result["metrics"][name]["value"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_runs_correct_and_counts_repeat(traced, name):
    (rep1, res1), (rep2, res2) = traced[name]
    for rep, res in traced[name]:
        # The failed checks include a count that differs between traced
        # iterations and a binding the tracer missed.
        assert res["correct"] and res["failed"] == 0, rep["failed_checks"]
        assert rep["unpatched_bindings"] == []
    counts = [m for m, spec in res1["metrics"].items()
              if spec["unit"] in ("count", "flop", "ratio") and not m.startswith("trace.")]
    assert counts
    for m in counts:
        assert _value(res1, m) == _value(res2, m), m
    assert _value(res1, "trace.wall_s") > 0
    assert _value(res1, "trace.untraced_wall_s") > 0


def test_zero_and_nonzero_pattern(traced):
    res = {name: runs[0][1] for name, runs in traced.items()}
    assert _value(res["corrected_vc8"], "fwtransform.bch_combine.calls") > 0
    assert _value(res["corrected_vc8"], "opalg.commutator.calls") > 0
    assert _value(res["eriksen10"], "fwtransform.bch_combine.calls") == 0
    for m in ("fw_pipeline.self_s", "bch_combine.self_s", "correction_exponent.self_s",
              "apply_correction.self_s", "eriksen_condition_check.self_s"):
        assert _value(res["eriksen10"], "fwtransform." + m) == 0, m
        assert _value(res["corrected_vc8"], "fwtransform." + m) > 0, m
    assert _value(res["eriksen10"], "fwtransform.eriksen_series.self_s") > 0
    assert _value(res["verify_all"], "numlab.eigh.calls") > 0
    assert _value(res["verify_all"], "numlab.eigh.max_dim") == 1024
    assert _value(res["verify_all"], "diracred.instantiate.terms_out") > 0
    numlab = [m for m in res["verify_all"]["metrics"] if m.startswith("numlab.")]
    for name in ("corrected_vc8", "eriksen10", "algebra_random"):
        for m in numlab:
            assert _value(res[name], m) == 0, (name, m)
    assert _value(res["algebra_random"], "opalg.normalize.raw_terms") > 0


def test_tracer_rebinds_every_binding_and_restores():
    from fwalg import fwtransform, opalg, reference, shell
    originals = (opalg.commutator, fwtransform.commutator, reference.cm,
                 shell.VERIFY_SUITES["vc6"], opalg.OperatorExpr.__mul__)
    with Tracer() as tracer:
        assert tracer.unpatched_bindings() == []
        assert fwtransform.commutator is not originals[1]
        assert reference.cm is not originals[2]
        assert shell.VERIFY_SUITES["vc6"] is not originals[3]
        x = opalg.sym(opalg.O)
        opalg.commutator(x, opalg.sym(opalg.BETA))
        assert tracer.metrics()["opalg.commutator.calls"] == 1
        fwtransform.commutator = originals[1]  # a binding the tracer did not see
        assert tracer.unpatched_bindings() == ["fwtransform['commutator']"]
    assert (opalg.commutator, fwtransform.commutator, reference.cm,
            shell.VERIFY_SUITES["vc6"], opalg.OperatorExpr.__mul__) == originals


def test_result_hash_gates_only_the_recorded_case_seed(monkeypatch):
    seed = workloads.EXPECTED["algebra_seed"]
    wl = workloads.prepare("algebra_random", 1, seed)
    out = wl.run()
    assert wl.check(out).failed == []
    monkeypatch.setitem(workloads.EXPECTED["hashes"], "algebra_random", "0" * 64)
    assert wl.check(out).failed == ["result_hash"]
    other = workloads.prepare("algebra_random", 1, seed + 1)
    checked = other.check(other.run())
    assert checked.failed == [] and checked.digest != "0" * 64


def test_independent_normal_form():
    raw = [(1, 0, 0, 0, ("O", "beta")), (2, 0, 0, 0, ("beta", "m", "beta"))]
    assert workloads.reference_normal_form(raw) == (
        (((), -1, 0), (2, 0)),
        ((("beta", "O"), 0, 0), (-1, 0)),
    )


def test_tail_percentile():
    assert tail_percentile(list(range(10))) is None
    tail = tail_percentile([float(i) for i in range(40)])
    assert tail == {"percentile": 75.0, "value": 29.0}


def test_host_speed_samples_only_while_started():
    speed = HostSpeed()
    speed.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        sum(range(1000))
    spent, scale = speed.stop()
    n = len(speed.samples)
    assert n >= 3 and 0 < spent < 0.2 and scale > 0
    time.sleep(0.1)
    assert len(speed.samples) == n


def test_untraced_run_reports_scaled_and_raw_times():
    proc = _run("--workload", "algebra_random", "--seed", "3", "--seconds", "2",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["correct"] and result["attempted"] > 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["wall_s"]["median"] == _value(result, "wall_s")
    assert len(report["wall_s"]["raw_samples"]) == report["wall_s"]["n"] > 0
    assert len(report["setup_s"]["raw_samples"]) == SETUP_RUNS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "eriksen10", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
