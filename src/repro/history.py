"""Execution-history generation (paper §V-A, "Pre-training Setup").

Real DSPS deployments accumulate histories of (dataflow DAG, source
rates, parallelism degrees) → per-operator metrics. We generate them by
fanning simulator deployments out over Spark with ``mapInPandas`` —
exactly the kind of embarrassingly parallel sweep Spark is good at. A
record holds its workload's own :class:`DataflowDAG`. The sweep's only
column is a config index: the configs themselves travel pickled with the
worker function, which returns each config's Algorithm 1 labels and job
latency, and the driver builds the records from its own configs, in
config order: the same list the pure-local generator (small unit tests,
small sweeps) returns. The index is not shuffled: ``spark.range``
already slices it into one contiguous partition per default-parallelism
core, and a round-robin repartition on top cost more than the
simulations themselves.

Per the paper: source rates are drawn from (1·W_u, 10·W_u) and are
disjoint from the integer multipliers used during tuning; parallelism
degrees are uniform in [1, 60] (clipped to the engine's p_max).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.bottleneck import label_operators, saturated_ops
from repro.graphs.dag import DataflowDAG
from repro.sim.engine import base_latency, peak_utilisation, simulate
from repro.sim.source_rates import pretrain_rates
from repro.sim.workloads import Workload

#: Paper: "we assigned random values from [1,60] for each dataflow
#: operator across different queries".
PRETRAIN_P_RANGE = (1, 60)


@dataclass
class HistoryRecord:
    """One historical deployment with Algorithm 1 labels."""

    job: str
    dag: DataflowDAG
    system: str
    rates: dict[str, float]
    parallelism: dict[str, int]
    labels: dict[str, int]  # -1 unlabelled / 0 / 1
    job_latency: float  # job-level cost proxy (ZeroTune's regression target)

    def to_row(self) -> dict:
        return {
            "job": self.job,
            "dag_json": self.dag.to_json(),
            "system": self.system,
            "rates_json": json.dumps(self.rates),
            "par_json": json.dumps(self.parallelism),
            "labels_json": json.dumps(self.labels),
            "job_latency": self.job_latency,
        }


def job_latency_proxy(result) -> float:
    """Job-level cost: dominated by the hottest operator's utilisation;
    grows steeply past saturation (queueing). ZeroTune regresses this."""
    rho = peak_utilisation(result)
    base = base_latency(rho)
    if rho > 1.0:
        base += 5.0 * (rho - 1.0)
    return float(base)


def _deploy_and_label(
    workload_name: str,
    dag: DataflowDAG,
    system: str,
    rates: dict[str, float],
    parallelism: dict[str, int],
    seed: int,
) -> HistoryRecord:
    res = simulate(dag, parallelism, rates, system=system, seed=seed)
    labels = label_operators(dag, res)
    # Near-boundary positives densify exactly the region the fine-tuned
    # model must resolve.
    for oid in saturated_ops(dag, res):
        labels[oid] = 1
    return HistoryRecord(
        job=workload_name,
        dag=dag,
        system=system,
        rates=rates,
        parallelism=parallelism,
        labels=labels,
        job_latency=job_latency_proxy(res),
    )


def _configs(
    workloads: list[Workload], n_per_workload: int, seed: int
) -> list[tuple[str, DataflowDAG, str, dict[str, float], dict[str, int], int]]:
    cfgs = []
    for w_i, wl in enumerate(workloads):
        mults = pretrain_rates(n_per_workload, seed=seed + 17 * w_i)
        rng = np.random.default_rng(seed + 1000 + w_i)
        for j, mult in enumerate(mults):
            par = {
                oid: int(
                    rng.integers(
                        PRETRAIN_P_RANGE[0],
                        min(PRETRAIN_P_RANGE[1], wl.p_max) + 1,
                    )
                )
                for oid in wl.dag.tunable_operators()
            }
            cfgs.append((wl.name, wl.dag, wl.system, wl.rates(mult), par, seed + j))
    return cfgs


def generate_history_local(
    workloads: list[Workload], *, n_per_workload: int = 40, seed: int = 11
) -> list[HistoryRecord]:
    """Single-process history generation (unit tests, small sweeps)."""
    return [_deploy_and_label(*cfg) for cfg in _configs(workloads, n_per_workload, seed)]


def generate_history(
    spark,
    workloads: list[Workload],
    *,
    n_per_workload: int = 40,
    seed: int = 11,
) -> list[HistoryRecord]:
    """Spark-parallel history generation: ``mapInPandas`` over one column
    of config indices, the configs pickled with the worker function (Spark
    broadcasts it when large), each worker returning the labels and job
    latency of its configs; the records come back in config order (equal
    to :func:`generate_history_local`)."""
    cfgs = _configs(workloads, n_per_workload, seed)

    def _run(batches):
        for b in batches:
            recs = [_deploy_and_label(*cfgs[i]) for i in b["id"]]
            yield pd.DataFrame(
                {
                    "id": b["id"],
                    "labels_json": [json.dumps(r.labels) for r in recs],
                    "job_latency": [r.job_latency for r in recs],
                }
            )

    schema = "id long, labels_json string, job_latency double"
    out = spark.range(len(cfgs)).mapInPandas(_run, schema=schema).toPandas().sort_values("id")
    return [
        HistoryRecord(*cfgs[i][:5], json.loads(lj), float(lat))
        for i, lj, lat in zip(out["id"], out["labels_json"], out["job_latency"])
    ]
