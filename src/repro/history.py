"""Execution-history generation (paper §V-A, "Pre-training Setup").

Real DSPS deployments accumulate histories of (dataflow DAG, source
rates, parallelism degrees) → per-operator metrics. We generate them by
fanning simulator deployments out over Spark — exactly the kind of
embarrassingly parallel sweep Spark is good at. A record holds its
workload's own :class:`DataflowDAG`. The sweep is an RDD of config
indices, sliced into one contiguous partition per default-parallelism
core: the configs themselves travel pickled with the worker function,
which yields each config's Algorithm 1 labels and job latency, and
``collect`` returns the partitions in order, so the driver zips the
results with its own configs: the same list the pure-local generator
(small unit tests, small sweeps) returns. No DataFrame is involved, so a
worker loads neither pandas nor Arrow.

Per the paper: source rates are drawn from (1·W_u, 10·W_u) and are
disjoint from the integer multipliers used during tuning; parallelism
degrees are uniform in [1, 60] (clipped to the engine's p_max).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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
        p_hi = min(PRETRAIN_P_RANGE[1], wl.p_max) + 1
        for j, mult in enumerate(mults):
            par = {oid: int(rng.integers(PRETRAIN_P_RANGE[0], p_hi)) for oid in wl.dag.tunable_operators()}
            cfgs.append((wl.name, wl.dag, wl.system, wl.rates(mult), par, seed + j))
    return cfgs


def generate_history_local(
    workloads: list[Workload], *, n_per_workload: int = 40, seed: int = 11
) -> list[HistoryRecord]:
    """Single-process history generation (unit tests, small sweeps)."""
    return [_deploy_and_label(*cfg) for cfg in _configs(workloads, n_per_workload, seed)]


def generate_history(
    spark, workloads: list[Workload], *, n_per_workload: int = 40, seed: int = 11
) -> list[HistoryRecord]:
    """Spark-parallel history generation: ``mapPartitions`` over an RDD
    of config indices, the configs pickled with the worker function (Spark
    broadcasts it when large), each worker yielding the labels and job
    latency of its configs in order; the records come back in config order
    (equal to :func:`generate_history_local`)."""
    cfgs = _configs(workloads, n_per_workload, seed)

    def _run(ids):
        for i in ids:
            rec = _deploy_and_label(*cfgs[i])
            yield rec.labels, rec.job_latency

    sc = spark.sparkContext
    out = sc.parallelize(range(len(cfgs)), sc.defaultParallelism).mapPartitions(_run).collect()
    return [HistoryRecord(*cfg[:5], labels, lat) for cfg, (labels, lat) in zip(cfgs, out)]
