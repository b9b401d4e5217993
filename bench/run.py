"""fwalg benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload corrected_vc8 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30 --trace 0   # every workload, one table
    python3 bench/run.py --workload algebra_random --case-seed 7 ...  # a second case seed

Load shape: one process runs a closed loop, one iteration at a time, each
started when the last has been checked. The first iteration is a warm-up and
is not part of ``wall_s``. With ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json`` are reported: the median iteration time ``wall_s``, the
set-up time ``setup_s`` (median of ``SETUP_RUNS`` fresh processes spread over
the run, each timed from its start to the point where it would make the first
timed call) and the process's ``peak_rss_mb``. With ``--trace 1`` untraced and
traced iterations alternate; the per-layer metrics come from the traced ones
(the counts of one iteration, median self times), next to the traced and
untraced iteration times.

The end-to-end times are given at a reference host speed: while each timed
span runs (an iteration, or a set-up process), ``HostSpeed`` samples a fixed
calibration loop, and the span is scaled by how much slower or faster than
``CAL_REF_S`` that loop ran. On a shared host this takes out the drift that
other tenants cause, which is larger than the bounds. The raw medians are in
the report line, and in the ``--workload all`` table.

Every iteration's outputs are checked (see ``workloads.py``); each check is
one attempted operation. The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a JSON
report with the samples, the tail percentile, ``check_fail_ratio``, the failed
checks, the output hashes and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("corrected_vc8", "eriksen10", "verify_all", "algebra_random")

# Fixed, so that runs on one machine compare. Two threads (at most the CPUs
# this process may use) is what OpenBLAS picks by default on the two-CPU
# machine the bounds were set on; there the spread between runs was the same
# as with one thread, and verify_all's shorter iterations give more samples.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7

# Host-speed sampling (see HostSpeed). CAL_REF_S is the typical time of one
# calibration loop sampled inside an iteration on the two-CPU machine the
# bounds were set on; it only fixes the scale, so that reported times read
# about as seconds on that machine.
CAL_INTERVAL_S = 0.02
SETUP_CAL_INTERVAL_S = 0.005  # set-up lasts a few tenths of a second
CAL_REF_S = 240e-6


def _calibration_loop():
    """Fixed exact-rational work, like the program's coefficient arithmetic.

    Of the loops tried (this one, float arithmetic, random reads of a large
    list), scaling by this one left the smallest spread between the medians
    of separate 30 s runs.
    """
    x = Fraction(1, 3)
    for i in range(24):
        x = x * Fraction(i % 5 + 1, 7) + Fraction(1, i + 2)
    return x


class HostSpeed:
    """The speed of this CPU, sampled while a timed span runs.

    On the shared host the benchmark was tuned on, other tenants slow the
    same pure-Python loop by up to 2x, for seconds to minutes at a time and
    without steal time, so raw times of one program drift by more than any
    useful bound between runs. While a span runs, a timer signal every
    CAL_INTERVAL_S times one ``_calibration_loop`` between the program's
    bytecodes. ``stop`` gives the time spent sampling, to subtract from the
    span, and the scale ``CAL_REF_S / median sample``: a span multiplied by it
    is the span at the reference speed. Median, not mean, so that a garbage
    collection a sample happens to trigger does not skew the scale; the
    collection's time stays in the span.
    """

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        _calibration_loop()
        self.samples.append(time.perf_counter() - t0)

    def start(self, interval: float = CAL_INTERVAL_S) -> None:
        self.samples.clear()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> tuple[float, float]:
        """Stop sampling; return (seconds spent sampling, scale)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        n = len(self.samples)
        if not n:
            self._sample()
        typical = statistics.median(self.samples)
        return n * typical, CAL_REF_S / typical


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 10
    return {"percentile": round(100.0 * k / n, 2), "value": sorted(samples)[k - 1]}


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0)),
        "calibration": {"ref_s": CAL_REF_S, "interval_s": CAL_INTERVAL_S,
                        "setup_interval_s": SETUP_CAL_INTERVAL_S},
    }


def _self_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed),
            "--case-seed", str(args.case_seed), *extra]


def measure_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh process, from spawn to ready for the first call.

    CLOCK_MONOTONIC is system-wide, so the child's reading and the parent's
    spawn time compare directly. Returns the raw time and the time at the
    reference host speed, which the child samples from its first line of
    code on.
    """
    t0 = time.monotonic()
    proc = subprocess.run(_self_cmd(args, "--workload", args.workload, "--setup-probe"),
                          capture_output=True, text=True, timeout=120, check=True)
    ready, spent, scale = map(float, proc.stdout.split()[-3:])
    raw = ready - t0 - spent
    return raw, raw * scale


class Run:
    """One workload's closed loop, its checks and its samples."""

    def __init__(self, args, workload):
        self.args = args
        self.wl = workload
        self.attempted = 0
        self.failed: list[str] = []
        self.digests: set[str] = set()
        self.plain: list[float] = []
        self.scaled: list[float] = []
        self.traced: list[float] = []
        self.layers: list[dict] = []
        self.setup: list[float] = []
        self.setup_raw: list[float] = []
        self.unpatched: list[str] = []
        self.tracer = None
        self.speed = None
        self.scale = 1.0
        if args.trace:
            from tracing import Tracer
            self.tracer = Tracer()
        else:
            self.speed = HostSpeed()

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def iteration(self, traced: bool) -> float:
        """One checked iteration; returns its raw time and sets ``self.scale``."""
        t0 = time.perf_counter()
        if traced:
            self.tracer.reset()
            with self.tracer:
                out = self.wl.run()
                dt = time.perf_counter() - t0
                if not self.layers:
                    self.unpatched = self.tracer.unpatched_bindings()
                    self.expect("trace_rebinds_every_binding", not self.unpatched)
        elif self.speed:
            self.speed.start()
            out = self.wl.run()
            dt = time.perf_counter() - t0
            spent, self.scale = self.speed.stop()
            dt -= spent
        else:
            out = self.wl.run()
            dt = time.perf_counter() - t0
        if traced:
            self.traced.append(dt)
            self.layers.append(self.tracer.metrics())
        checked = self.wl.check(out)
        self.attempted += checked.attempted
        self.failed.extend(checked.failed)
        self.digests.add(checked.digest)
        return dt

    def loop(self) -> float:
        """Warm up, then iterate until the next iteration would overrun the window.

        The window includes the warm-up, so a run lasts about --seconds past
        set-up. Set-up probes are spread over the window, since the machine's
        speed drifts on that scale.
        """
        seconds = self.args.seconds
        start = time.perf_counter()
        probes = 0 if self.tracer else SETUP_RUNS

        def probe_setup():
            raw, scaled = measure_setup(self.args)
            self.setup_raw.append(raw)
            self.setup.append(scaled)

        def probe_if_due():
            while (len(self.setup) < probes and time.perf_counter()
                   >= start + len(self.setup) * seconds / probes):
                probe_setup()

        probe_if_due()
        warmup = last = self.iteration(traced=False)
        while True:
            probe_if_due()
            if self.tracer and len(self.traced) < len(self.plain):
                last = self.iteration(traced=True)
            else:
                last = self.iteration(traced=False)
                self.plain.append(last)
                if self.speed:
                    self.scaled.append(last * self.scale)
            if ((self.traced or not self.tracer)
                    and time.perf_counter() + last > start + seconds):
                break
        while len(self.setup) < probes:
            probe_setup()
        return warmup

    def layer_values(self) -> dict:
        """Counts of one traced iteration (checked to repeat), median self times."""
        counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")}
                  for s in self.layers]
        self.expect("trace_counts_repeat", all(c == counts[0] for c in counts))
        values = dict(counts[0])
        for key in {k for s in self.layers for k in s if k.endswith(".self_s")}:
            values[key] = _median([s.get(key, 0.0) for s in self.layers])
        values["trace.wall_s"] = _median(self.traced)
        values["trace.untraced_wall_s"] = _median(self.plain)
        values["trace.overhead_ratio"] = values["trace.wall_s"] / values["trace.untraced_wall_s"]
        return values


def run_workload(args, spec: dict) -> tuple[dict, dict]:
    import workloads
    run = Run(args, workloads.prepare(args.workload, args.seed, args.case_seed))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.workload == "algebra_random":
        report["case_seed"] = args.case_seed
        report["case_seed_recorded"] = workloads.EXPECTED["algebra_seed"]
    report["warmup_s"] = run.loop()
    samples = run.scaled if run.speed else run.plain
    report["wall_s"] = {"median": _median(samples), "n": len(samples),
                        "tail": tail_percentile(samples), "samples": samples,
                        "raw_median": _median(run.plain), "raw_samples": run.plain}
    env = environment()
    if run.tracer:
        values = run.layer_values()
        wanted = spec["per_layer"]
        report["traced_wall_s"] = run.traced
        report["unpatched_bindings"] = run.unpatched
        env["numlab_eigh_max_dim"] = values.get("numlab.eigh.max_dim", 0)
        env["numlab_eigh_flops_computed"] = values.get("numlab.eigh.flops_computed", 0)
    else:
        values = {"wall_s": _median(run.scaled), "setup_s": _median(run.setup),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        wanted = spec["end_to_end"]
        report["setup_s"] = {"median": values["setup_s"], "samples": run.setup,
                             "raw_median": _median(run.setup_raw),
                             "raw_samples": run.setup_raw}
    report["check_fail_ratio"] = len(run.failed) / run.attempted
    report["failed_checks"] = sorted(set(run.failed))[:20]
    report["output_hashes"] = sorted(run.digests)
    report["environment"] = env
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": not run.failed, "attempted": run.attempted,
              "failed": len(run.failed), "metrics": metrics}
    return report, result


def run_all(args) -> int:
    """Each workload in its own fresh process; one table of every metric."""
    rows = []
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(_self_cmd(args, "--workload", name, "--seconds",
                                        str(args.seconds), "--trace", str(args.trace)),
                              capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "check_fail_ratio", report["check_fail_ratio"],
                     f"({result['failed']} of {result['attempted']} checks)"))
        if not args.trace:
            tail = report["wall_s"]["tail"]
            rows.append((name, "wall_s.samples", report["wall_s"]["n"], "count"))
            rows.append((name, "wall_s.raw", report["wall_s"]["raw_median"], "s"))
            rows.append((name, "setup_s.raw", report["setup_s"]["raw_median"], "s"))
            if tail:
                rows.append((name, f"wall_s.p{tail['percentile']}", tail["value"], "s"))
    for workload, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:<16} {metric:<42} {shown:>14} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--case-seed", type=int, default=None,
                        help="algebra_random case seed (default: the recorded one); "
                             "only the recorded seed has a result hash to compare")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    speed = None
    if args.setup_probe:
        speed = HostSpeed()
        speed.start(SETUP_CAL_INTERVAL_S)

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads  # needs the source tree on the path
    if args.case_seed is None:
        args.case_seed = workloads.EXPECTED["algebra_seed"]

    if args.setup_probe:
        workloads.prepare(args.workload, args.seed, args.case_seed)
        ready = time.monotonic()
        spent, scale = speed.stop()
        print(ready, spent, scale)
        return 0
    if args.workload == "all":
        return run_all(args)
    report, result = run_workload(args, spec)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
