"""Benchmark entry point: set-up, a timed or traced run, checks, one JSON result.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  tailproc is imported from ``src/``
of that checkout.  Each workload runs in a fresh interpreter (worker.py); the
set-up clock runs from starting that interpreter to its ``ready`` line, and
set-up is repeated in SETUP_RUNS interpreters, of which the median is
reported.  The run's outputs are then checked here (checks.py).  The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from the traced run.  The line before it is a JSON object
with the run's environment and diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5           # fresh interpreters timed for setup_s, the run's own included
WORKER_TIMEOUT_S = 150   # a run that takes longer is a failed benchmark run
# Listed here rather than taken from workloads.py, which imports tailproc:
# without tailproc sources the command must still start and fail cleanly.
WORKLOAD_NAMES = ("mc_ma1_serial_n1e6", "fit_gpd_k1e4", "closed_form")


def start_worker(args, mode: str, out: Path) -> tuple[subprocess.Popen, float]:
    """Start worker.py and return it with the seconds until it printed ``ready``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--out", str(out)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        sys.exit(f"benchmark: worker ({mode}) exited before set-up finished")
    return proc, ready


def finish_worker(proc: subprocess.Popen, mode: str) -> None:
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"benchmark: worker ({mode}) did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"benchmark: worker ({mode}) exited with code {proc.returncode}")


def upper_decile(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def loaded_round_s(unit_times: list[list[float]], pooled: bool) -> float:
    """Time of one round with each unit at the upper decile of its times.

    ``unit_times[round][unit]``.  Pooled units (batches of one size) share one
    decile over all their times; otherwise each unit takes its own decile
    over the rounds.
    """
    if pooled:
        return len(unit_times[0]) * upper_decile([t for units in unit_times for t in units])
    return sum(upper_decile(list(times)) for times in zip(*unit_times))


def time_setup(args, out: Path) -> float:
    proc, ready = start_worker(args, "setup", out)
    finish_worker(proc, "setup")
    return ready


def environment(workers: int) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "workers": workers,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tailproc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "tailproc" / "__init__.py").is_file():
        sys.exit(f"benchmark: no tailproc sources under {SRC}")

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        # Set-up probes before and after the run, so that they span it.
        setup = [time_setup(args, out) for _ in range(SETUP_RUNS // 2)] if not args.trace else []
        mode = "trace" if args.trace else "run"
        proc, ready = start_worker(args, mode, out)
        setup.append(ready)
        finish_worker(proc, mode)
        if not args.trace:
            setup += [time_setup(args, out) for _ in range(SETUP_RUNS - len(setup))]
        result = json.loads((out / "result.json").read_text())
    finally:
        shutil.rmtree(out, ignore_errors=True)

    # Checks import tailproc here, after every measured process has ended.
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    inputs = workloads.build(args.workload, args.seed)
    # The timed run is serial; the traced run also times run_experiment on a pool.
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **environment(workloads.WORKERS if args.trace else 1), "rounds": result["rounds"]}
    if inputs.experiment:
        records = result["records"]
        verdict = checks.check_experiment(inputs, records, args.seed, panel=not args.trace)
        attempted = len(records)
        failed = sum(rec[7] != "ok" for rec in records)
    else:
        verdict, failures = checks.check_closed_form(inputs, result)
        attempted, failed = result["rounds"] * len(inputs.ops), result["rounds"] * len(failures)
        info["failed_calls"] = failures
    if args.trace:
        composition = result["composition"]
        verdict.require(not composition["mismatches"],
                        f"traced chain differs from run_replication: {composition['mismatches'][:3]}")
        info["composition_compared"] = composition["compared"]
        info["trace_file"] = str(Path("benchmarks") / "out" / result["trace_file"])
        metrics = result["metrics"]
    else:
        # The reference machine's cores switch between two speeds about 1.6x
        # apart; the share of fast time varies from run to run, and a total
        # over a run would measure that share.  A round timed at the upper decile
        # of its units' CPU times measures the slow speed, which every run
        # reaches.  The host also takes the vCPU away in bursts (steal time),
        # which wall time counts and CPU time does not; the median ratio of
        # wall to CPU time over the units carries the waits that every unit
        # has into the wall time, and leaves those bursts out.
        pooled = inputs.experiment   # batches of one size are exchangeable
        ok_per_round = (attempted - failed) / result["rounds"]
        loaded_cpu = loaded_round_s(result["unit_cpu_s"], pooled)
        wall_per_cpu = statistics.median(
            wall / max(cpu, 1e-6) for walls, cpus in zip(result["unit_wall_s"], result["unit_cpu_s"])
            for wall, cpu in zip(walls, cpus))
        loaded_wall = loaded_cpu * wall_per_cpu
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": ok_per_round / loaded_wall, "unit": "1/s"},
            "cpu_ms_per_op": {"value": 1e3 * loaded_cpu / max(ok_per_round, 1e-9), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        info["round_wall_s"] = [sum(units) for units in result["unit_wall_s"]]
        info["loaded_round_wall_s"] = loaded_wall
        info["wall_per_cpu"] = wall_per_cpu
        info["setup_samples_s"] = setup
    info.update(verdict.info)
    info["problems"] = verdict.problems
    print(json.dumps(info))
    print(json.dumps({"correct": not verdict.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
