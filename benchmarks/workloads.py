"""Workload definitions: what each workload runs and how its inputs are built.

The operations of a workload are a fixed panel, the same in every run and
every round, so that ``failed`` is the same share of ``attempted`` whatever
the seed and however long the run.  ``--seed`` orders the panel and picks the
replications the checks recompute; tailproc receives only the generated
configurations and argument lists.  Importing this module imports tailproc,
so the set-up time of a fresh interpreter includes it.
"""

from __future__ import annotations

import dataclasses
import os
import random
from dataclasses import dataclass

from tailproc import CoefficientSequence, InnovationModel
from tailproc import montecarlo as mc

WORKERS = min(2, os.cpu_count() or 1)   # pool size of the traced run_experiment
# Master seeds of the replication panel.  1606 is the first seed from 1605 on
# whose MA(1) panel holds a fit without a solution (1 of 400; 4 of the 2400
# replications of the panels 1605 to 1610), so that a fix of the solver shows
# as fewer failures.
PANEL_SEED = 1606
GAMMA = 1.0 / 3.0
R = -0.5


@dataclass(frozen=True)
class Workload:
    """How a workload runs.

    A round is ``batches`` ``run_experiment`` calls of ``batch_size``
    replications each (or one pass over the model list); a timed run repeats
    whole rounds until ``--seconds`` have passed and at least ``min_rounds``
    ran.  Batches are small so that a run times many of them: the end-to-end
    metrics take the upper decile of these times (run.py).  ``checked``
    replications per run are recomputed against the oracles; ``traced``
    samples feed the traced run.  ``closed_form`` has no
    replications, so those fields are 0 there.
    """

    name: str
    batch_size: int
    batches: int
    min_rounds: int
    checked: int
    traced: int


WORKLOADS = {w.name: w for w in (
    Workload("mc_ma1_serial_n1e6", batch_size=10, batches=40, min_rounds=2, checked=16, traced=40),
    Workload("fit_gpd_k1e4", batch_size=10, batches=40, min_rounds=2, checked=24, traced=60),
    Workload("closed_form", batch_size=0, batches=0, min_rounds=3, checked=0, traced=0),
)}


def batch_seed(batch: int) -> int:
    """Master seed of batch ``batch`` of the panel."""
    return (PANEL_SEED << 20) + batch


def explicit_geometric(order: int) -> tuple[float, ...]:
    return tuple(0.99**j for j in range(order + 1))


# (label, coefficient flags, ARMA (ar, ma) or None for explicit sequences).
CLOSED_FORM_MODELS = tuple(
    [(f"0.99^j J={order}", ["--coeffs", ",".join(repr(c) for c in explicit_geometric(order))], None)
     for order in (300, 1000, 3000)]
    + [("ARMA(1,1) ar 0.5 ma 0.4", ["--ar", "0.5", "--ma", "0.4"], ((0.5,), (0.4,))),
       ("AR(1) ar 0.6", ["--ar", "0.6"], ((0.6,), ())),
       ("ARMA(1,1) ar 0.7 ma 0.5", ["--ar", "0.7", "--ma", "0.5"], ((0.7,), (0.5,))),
       ("AR(2) ar 0.5,0.2", ["--ar", "0.5,0.2"], ((0.5, 0.2), ())),
       ("AR(1) ar 0.9", ["--ar", "0.9"], ((0.9,), ()))]
)


def closed_form_ops(models=CLOSED_FORM_MODELS) -> list[tuple[str, list[str], tuple | None]]:
    """One ``cov`` and one ``check`` call per model, as ``(label, argv, arma)``."""
    ops = []
    for label, flags, arma in models:
        ops.append((f"cov {label}", ["cov", "--gamma", repr(GAMMA), "--r", repr(R), *flags], arma))
        ops.append((f"check {label}", ["check", "--alpha", repr(1.0 / GAMMA), "--xi", "0.9", *flags], arma))
    return ops


@dataclass(frozen=True)
class Inputs:
    """Everything a run needs, built once in set-up."""

    workload: Workload
    seed: int
    config: mc.ExperimentConfig        # batch 0 of the workload's panel, or the probe
    series: bool                        # config simulates a path (not gpd_direct)
    experiment: bool                    # the workload's operation is a replication
    cli_models: tuple                   # models for the closed-form chain
    ops: tuple = ()                     # closed_form: argv of every call in one round


def probe_config() -> mc.ExperimentConfig:
    """Small series replication used for layers a workload does not call."""
    return mc.ExperimentConfig.create(
        coeffs=CoefficientSequence((1.0, 0.5)), model=InnovationModel(alpha=3.0),
        n=10**5, r=R, replications=1, master_seed=batch_seed(0), theta=0.9)


def build(name: str, seed: int) -> Inputs:
    """Set-up of a workload: coefficient models, configurations, argument lists."""
    workload = WORKLOADS[name]
    model = InnovationModel(alpha=1.0 / GAMMA)
    common = dict(r=R, replications=workload.batch_size, master_seed=batch_seed(0))
    if name == "mc_ma1_serial_n1e6":
        config = mc.ExperimentConfig.create(
            coeffs=CoefficientSequence((1.0, 0.5)), model=model, n=10**6, theta=0.9, **common)
        return Inputs(workload, seed, config, True, True,
                      (("MA(1) ma 0.5", ["--ma", "0.5"], ((), (0.5,))),))
    if name == "fit_gpd_k1e4":
        config = mc.ExperimentConfig.create(
            coeffs=CoefficientSequence((1.0,)), model=model, n=10**6, k=10**4,
            sampling="gpd_direct", **common)
        return Inputs(workload, seed, config, False, True, (("iid as MA(1) ma 0", ["--ma", "0"], ((), (0.0,))),))
    if name == "closed_form":
        return Inputs(workload, seed, probe_config(), True, False, CLOSED_FORM_MODELS,
                      tuple(closed_form_ops()))
    raise KeyError(name)


def batch_config(inputs: Inputs, batch: int) -> mc.ExperimentConfig:
    return dataclasses.replace(inputs.config, master_seed=batch_seed(batch))


def batch_order(inputs: Inputs) -> list[int]:
    """Order of the batches within every round: the panel rotated by the seed."""
    count = inputs.workload.batches
    return [(inputs.seed + b) % count for b in range(count)]


def round_order(inputs: Inputs) -> list[int]:
    """Order of the closed-form calls within every round, shuffled by the seed."""
    order = list(range(len(inputs.ops)))
    random.Random(inputs.seed).shuffle(order)
    return order
