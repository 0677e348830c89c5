"""Runs one workload in a fresh interpreter: set-up, then a timed or a traced run.

run.py starts this script with tailproc's sources on PYTHONPATH.  It prints
``ready`` on standard output as soon as the workload's inputs are built, which
is where run.py stops the set-up clock, and writes its measurements as JSON to
``<out>/result.json``.  Only tailproc's public functions are called.

    python3 benchmarks/worker.py --workload NAME --seed N --mode setup|run|trace \
        --seconds S --out DIR
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import workloads
from tailproc import (
    CoefficientSequence,
    ExcessSample,
    GpdParams,
    LmeSolverError,
    apply_filter,
    arma_to_ma,
    check_conditions,
    estimator_cov,
    lme_fit,
    pairwise_dependence_sum,
    phi_constants,
    philox_stream,
    quantile_expansion,
    second_order_rates,
    simulate,
    tail_expansion,
    top_k_excesses,
)
from tailproc import cli
from tailproc import montecarlo as mc
from tracing import Tracer

PROBE_SAMPLES = 20     # probe replications for layers a workload does not call
MEMORY_SAMPLES = 2     # simulate + top-k runs under tracemalloc
REPORT_SAMPLES = 5     # repetitions of the report chain

LAYER_UNITS = {
    "process.uniforms_ms": "ms",
    "process.inverse_transform_ms": "ms",
    "process.filter_ms": "ms",
    "process.simulate_ms": "ms",
    "process.path_bytes_per_sample": "B/sample",
    "process.arma_to_ma_ms": "ms",
    "process.pairwise_dependence_sum_ms": "ms",
    "estimator.top_k_ms": "ms",
    "estimator.lme_fit_ms": "ms",
    "estimator.lme_evaluations": "count",
    "estimator.lme_failures": "count",
    "montecarlo.replication_ms": "ms",
    "montecarlo.scale_ms": "ms",
    "montecarlo.report_ms": "ms",
    "montecarlo.pool_overhead_ms": "ms",
    "asymptotics.phi_constants_ms": "ms",
    "asymptotics.estimator_cov_ms": "ms",
    "second_order.tail_expansion_ms": "ms",
    "second_order.check_conditions_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def call_cli(argv: list[str]) -> dict:
    """One in-process ``tailproc.cli.main`` call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        error = None
    except Exception as exc:  # an exception escaping main is a failed call, counted by run.py
        code, error = None, type(exc).__name__
    return {"code": code, "stdout": out.getvalue(), "error": error}


def digest(output: dict) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def closed_form_result(rounds: list[list[dict]], order: list[int]) -> dict:
    """Round-0 outputs by op index and, for every round, a digest per op."""
    first = {order[pos]: out for pos, out in enumerate(rounds[0])}
    digests = [{order[pos]: digest(out) for pos, out in enumerate(outs)} for outs in rounds]
    return {"order": order, "outputs": [first[i] for i in sorted(first)],
            "digests": [[d[i] for i in sorted(d)] for d in digests]}


def read_records(path: Path, round_index: int, batch: int) -> list[list]:
    with open(path, newline="") as handle:
        return [[round_index, batch, int(row["index"]), float(row["gamma_hat"]), float(row["sigma_hat"]),
                 float(row["z1"]), float(row["z2"]), row["status"]]
                for row in csv.DictReader(handle)]


def timed(inputs: workloads.Inputs, seconds: float, out: Path) -> dict:
    """Whole rounds until ``seconds`` have passed, timed around the public calls.

    A unit is one ``run_experiment`` batch, or one closed-form call.  Each
    unit's wall and CPU time is kept per round, indexed by batch or by call
    (not by its place in the round's order); reading the records back is left
    out.
    """
    workload = inputs.workload
    order = workloads.round_order(inputs)
    outputs, records, walls, cpus = [], [], [], []
    start = time.perf_counter()
    while len(walls) < workload.min_rounds or time.perf_counter() - start < seconds:
        units = workloads.batch_order(inputs) if inputs.experiment else order
        wall, cpu = [0.0] * len(units), [0.0] * len(units)
        outs = []
        for unit in units:
            cpu_start, unit_start = cpu_seconds(), time.perf_counter()
            if inputs.experiment:
                path = out / "records.csv"
                mc.run_experiment(workloads.batch_config(inputs, unit), csv_path=path)
            else:
                outs.append(call_cli(inputs.ops[unit][1]))
            wall[unit] = time.perf_counter() - unit_start
            cpu[unit] = cpu_seconds() - cpu_start
            if inputs.experiment:
                records += read_records(path, len(walls), unit)
        if not inputs.experiment:
            outputs.append(outs)
        walls.append(wall)
        cpus.append(cpu)
    result = {"unit_wall_s": walls, "unit_cpu_s": cpus,
              "peak_rss_mb": peak_rss_mb(), "rounds": len(walls)}
    if inputs.experiment:
        result["records"] = records
    else:
        result.update(closed_form_result(outputs, order))
    return result


# ---------------------------------------------------------------------------
# Traced run: the replication rebuilt from its layer calls, one span per call.


def fields(rec: mc.ReplicationRecord) -> tuple:
    return (rec.index, rec.status, *(float(v).hex() for v in (rec.gamma_hat, rec.sigma_hat, rec.z1, rec.z2)))


def _fit_and_standardise(tracer, root, config, index, sample, scale) -> mc.ReplicationRecord:
    try:
        with tracer.span("estimator.lme_fit") as span:
            fit = lme_fit(sample, config.r)
            span["attrs"]["evaluations"] = fit.iterations
    except LmeSolverError:
        root["attrs"]["status"] = "no_solution"
        nan = float("nan")
        return mc.ReplicationRecord(index, nan, nan, nan, nan, "no_solution")
    root["attrs"]["status"] = "ok"
    with tracer.span("montecarlo.standardise"):
        sk = np.sqrt(config.k)
        return mc.ReplicationRecord(
            index=index, gamma_hat=fit.gamma_hat, sigma_hat=fit.sigma_hat,
            z1=float(sk * (fit.gamma_hat - config.gamma)),
            z2=float(sk * (fit.sigma_hat / scale - 1.0)), status="ok")


def series_chain(tracer: Tracer, config, index: int, kind: str) -> mc.ReplicationRecord:
    """Uniforms, inverse transform, filter, top-k, LME fit, standardisation."""
    with tracer.span("montecarlo.replication_chain", kind, index=index) as root:
        with tracer.span("montecarlo.scale"):
            with tracer.span("second_order.tail_expansion"):
                texp = tail_expansion(config.model.alpha, config.coeffs)
            scale = mc.sigma_nk(quantile_expansion(texp), config.gamma, config.n, config.k)
        with tracer.span("process.uniforms"):
            u = philox_stream(config.master_seed, index).random(config.n + config.coeffs.order)
        u = 1.0 - u
        with tracer.span("process.inverse_transform"):
            z = config.model.from_uniform(u)
        del u
        with tracer.span("process.filter"):
            x = apply_filter(config.coeffs, z)
        del z
        with tracer.span("estimator.top_k"):
            sample = top_k_excesses(x, config.k)
        del x
        return _fit_and_standardise(tracer, root, config, index, sample, scale)


def gpd_chain(tracer: Tracer, config, index: int, kind: str) -> mc.ReplicationRecord:
    """Uniforms, GPD quantiles, LME fit, standardisation (scale 1)."""
    with tracer.span("montecarlo.replication_chain", kind, index=index) as root:
        with tracer.span("process.uniforms"):
            u = philox_stream(config.master_seed, index).random(config.k)
        with tracer.span("estimator.gpd_quantile"):
            sample = ExcessSample.from_excesses(GpdParams(gamma=config.gamma, sigma=1.0).quantile(u))
        return _fit_and_standardise(tracer, root, config, index, sample, 1.0)


def cli_chain(tracer: Tracer, argv: list[str], arma, kind: str) -> dict:
    """A ``main`` call, then the library calls it makes, then their parts."""
    with tracer.span("cli.main", kind, argv=argv[0]) as main_span:
        output = call_cli(argv)
    floats = None if arma else tuple(float(v) for v in argv[-1].split(","))
    try:
        with tracer.span("cli.library", kind, argv=argv[0]) as lib_span:
            with tracer.span("process.arma_to_ma" if arma else "process.coefficients"):
                coeffs = arma_to_ma(*arma) if arma else CoefficientSequence(floats)
            if argv[0] == "cov":
                with tracer.span("asymptotics.estimator_cov"):
                    estimator_cov(workloads.GAMMA, workloads.R, coeffs)
            else:
                with tracer.span("second_order.check_conditions"):
                    check_conditions(1.0 / workloads.GAMMA, coeffs, xi=0.9)
    except ArithmeticError:
        return output
    if output["code"] == 0:
        main_span["attrs"]["overhead_s"] = ((main_span["end"] - main_span["start"])
                                            - (lib_span["end"] - lib_span["start"]))
    if argv[0] == "cov":
        with tracer.span("asymptotics.phi_constants", kind):
            phi_constants(coeffs, workloads.GAMMA, workloads.R)
    else:
        with tracer.span("second_order.tail_expansion", kind):
            tail_expansion(1.0 / workloads.GAMMA, coeffs)
        with tracer.span("process.pairwise_dependence_sum", kind):
            pairwise_dependence_sum(coeffs, workloads.GAMMA)
    return output


def traced(inputs: workloads.Inputs, out: Path) -> dict:
    """Every layer of the workload's operation, timed call by call."""
    workload = inputs.workload
    tracer = Tracer()
    with tracer.span("workloads.build", "setup"):
        workloads.build(workload.name, inputs.seed)

    exp_kind = "op" if inputs.experiment else "probe"
    series_kind = "op" if inputs.experiment and inputs.series else "probe"
    series_config = inputs.config if inputs.series else workloads.probe_config()
    records = {"op": [], "probe": []}
    mismatches = []

    def replicate(chain, config, index, kind):
        rec = chain(tracer, config, index, kind)
        with tracer.span("montecarlo.replication", kind):
            serial = mc.run_replication(config, index)
        if fields(rec) != fields(serial):
            mismatches.append({"index": index, "chain": fields(rec), "run_replication": fields(serial)})
        records[kind].append(rec)

    for index in range(workload.traced if series_kind == "op" else PROBE_SAMPLES):
        replicate(series_chain, series_config, index, series_kind)
        with tracer.span("process.simulate", series_kind):
            simulate(series_config.coeffs, series_config.model, series_config.n,
                     series_config.master_seed, stream=index)
    if not inputs.series:
        for index in range(workload.traced):
            replicate(gpd_chain, inputs.config, index, "op")

    for index in range(MEMORY_SAMPLES):
        with tracer.span("process.path_memory", series_kind) as span:
            tracemalloc.start()
            path = simulate(series_config.coeffs, series_config.model, series_config.n,
                            series_config.master_seed, stream=index)
            top_k_excesses(path.values, series_config.k)
            del path
            span["attrs"]["bytes_per_sample"] = tracemalloc.get_traced_memory()[1] / series_config.n
            tracemalloc.stop()

    exp_config = inputs.config if inputs.experiment else series_config
    exp_records = records[exp_kind]
    pairs = np.array([[r.z1, r.z2] for r in exp_records if r.ok], dtype=float)
    for _ in range(REPORT_SAMPLES):
        with tracer.span("montecarlo.report", exp_kind):
            with tracer.span("asymptotics.estimator_cov"):
                theory = estimator_cov(exp_config.gamma, exp_config.r, exp_config.coeffs).estimator_cov
            if len(pairs) >= 2:
                with tracer.span("montecarlo.empirical_cov"):
                    mc.empirical_cov(pairs)
            if len(pairs) >= mc.MIN_RECORDS_FOR_DIAGNOSTICS:
                with tracer.span("montecarlo.normality_diagnostics"):
                    mc.normality_diagnostics(pairs, theory)
            if exp_config.sampling == "series":
                with tracer.span("second_order.second_order_rates"):
                    second_order_rates(exp_config.n, exp_config.k, quantile_expansion(
                        tail_expansion(exp_config.model.alpha, exp_config.coeffs)))
        with tracer.span("asymptotics.phi_constants", exp_kind):
            phi_constants(exp_config.coeffs, exp_config.gamma, exp_config.r)

    pool_config = dataclasses.replace(exp_config, replications=len(exp_records),
                                      worker_count_hint=workloads.WORKERS)
    with tracer.span("montecarlo.run_experiment", exp_kind) as pool_span:
        mc.run_experiment(pool_config)

    cli_kind = "probe" if inputs.experiment else "op"
    if inputs.experiment:
        ops = [(argv, arma) for _, argv, arma in workloads.closed_form_ops(inputs.cli_models)]
        outputs = [[cli_chain(tracer, argv, arma, cli_kind) for argv, arma in ops]]
        order = list(range(len(ops)))
    else:
        order = workloads.round_order(inputs)
        outputs = [[cli_chain(tracer, inputs.ops[i][1], inputs.ops[i][2], cli_kind) for i in order]
                   for _ in range(workload.min_rounds)]

    trace_path = out.parent / f"trace-{workload.name}-seed{inputs.seed}.json"
    tracer.write(trace_path)

    chains = tracer.select("montecarlo.replication_chain")
    serial_s = sum(s["end"] - s["start"] for s in tracer.select("montecarlo.replication")
                   if s["kind"] == exp_kind)
    pool_s = pool_span["end"] - pool_span["start"]
    values = {
        "process.uniforms_ms": tracer.median_ms("process.uniforms"),
        "process.inverse_transform_ms": tracer.median_ms("process.inverse_transform"),
        "process.filter_ms": tracer.median_ms("process.filter"),
        "process.simulate_ms": tracer.median_ms("process.simulate"),
        "process.path_bytes_per_sample": statistics.median(
            s["attrs"]["bytes_per_sample"] for s in tracer.select("process.path_memory")),
        "process.arma_to_ma_ms": tracer.median_ms("process.arma_to_ma"),
        "process.pairwise_dependence_sum_ms": tracer.median_ms("process.pairwise_dependence_sum"),
        "estimator.top_k_ms": tracer.median_ms("estimator.top_k"),
        "estimator.lme_fit_ms": tracer.median_ms("estimator.lme_fit"),
        "estimator.lme_evaluations": statistics.median(
            s["attrs"]["evaluations"] for s in tracer.select("estimator.lme_fit")
            if "evaluations" in s["attrs"]),
        "estimator.lme_failures": sum(s["attrs"].get("status") != "ok" for s in chains),
        "montecarlo.replication_ms": tracer.median_ms("montecarlo.replication"),
        "montecarlo.scale_ms": tracer.median_ms("montecarlo.scale"),
        "montecarlo.report_ms": tracer.median_ms("montecarlo.report"),
        "montecarlo.pool_overhead_ms": 1e3 * (pool_s * pool_config.worker_count_hint - serial_s)
        / pool_config.replications,
        "asymptotics.phi_constants_ms": tracer.median_ms("asymptotics.phi_constants"),
        "asymptotics.estimator_cov_ms": tracer.median_ms("asymptotics.estimator_cov"),
        "second_order.tail_expansion_ms": tracer.median_ms("second_order.tail_expansion"),
        "second_order.check_conditions_ms": tracer.median_ms("second_order.check_conditions"),
        "cli.overhead_ms": 1e3 * statistics.median(
            s["attrs"]["overhead_s"] for s in tracer.select("cli.main") if "overhead_s" in s["attrs"]),
        "trace.overhead_ratio": tracer.median_ms("montecarlo.replication_chain")
        / tracer.median_ms("montecarlo.replication"),
    }
    result = {
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in LAYER_UNITS.items()},
        "composition": {"compared": len(records["op"]) + len(records["probe"]),
                        "mismatches": mismatches},
        "trace_file": str(trace_path.name),
        "rounds": len(outputs),
    }
    if inputs.experiment:
        result["records"] = [[0, 0, r.index, r.gamma_hat, r.sigma_hat, r.z1, r.z2, r.status]
                             for r in records["op"]]
    else:
        result.update(closed_form_result(outputs, order))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    inputs = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    out = Path(args.out)
    result = timed(inputs, args.seconds, out) if args.mode == "run" else traced(inputs, out)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
