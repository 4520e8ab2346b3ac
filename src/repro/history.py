"""Execution-history generation (paper §V-A, "Pre-training Setup").

Real DSPS deployments accumulate histories of (dataflow DAG, source
rates, parallelism degrees) → per-operator metrics. We generate them by
fanning simulator deployments out over Spark with ``mapInPandas`` — one
row per historical deployment, labelled with Algorithm 1 — exactly the
kind of embarrassingly parallel sweep Spark is good at. The config table
is not shuffled: ``createDataFrame`` already slices it into one
contiguous partition per default-parallelism core, and a round-robin
repartition on top cost more than the simulations themselves. So the
Spark sweep returns the records in config order, the same list the
pure-local generator (small unit tests, small sweeps) returns.

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
from repro.sim.engine import simulate
from repro.sim.source_rates import pretrain_rates
from repro.sim.workloads import Workload

#: Paper: "we assigned random values from [1,60] for each dataflow
#: operator across different queries".
PRETRAIN_P_RANGE = (1, 60)


@dataclass
class HistoryRecord:
    """One historical deployment with Algorithm 1 labels."""

    job: str
    dag_json: str
    system: str
    rates: dict[str, float]
    parallelism: dict[str, int]
    labels: dict[str, int]  # -1 unlabelled / 0 / 1
    job_backpressure: bool
    job_latency: float  # job-level cost proxy (ZeroTune's regression target)

    def to_row(self) -> dict:
        return {
            "job": self.job,
            "dag_json": self.dag_json,
            "system": self.system,
            "rates_json": json.dumps(self.rates),
            "par_json": json.dumps(self.parallelism),
            "labels_json": json.dumps(self.labels),
            "job_backpressure": self.job_backpressure,
            "job_latency": self.job_latency,
        }

    @staticmethod
    def from_row(row) -> "HistoryRecord":
        return HistoryRecord(
            job=row["job"],
            dag_json=row["dag_json"],
            system=row["system"],
            rates=json.loads(row["rates_json"]),
            parallelism={k: int(v) for k, v in json.loads(row["par_json"]).items()},
            labels={k: int(v) for k, v in json.loads(row["labels_json"]).items()},
            job_backpressure=bool(row["job_backpressure"]),
            job_latency=float(row["job_latency"]),
        )


def job_latency_proxy(result) -> float:
    """Job-level cost: dominated by the hottest operator's utilisation;
    grows steeply past saturation (queueing). ZeroTune regresses this."""
    rho = max(
        (m.input_rate / m.pa)
        for m in result.metrics.values()
        if np.isfinite(m.pa) and m.pa > 0
    )
    base = 0.05 + 0.25 * rho
    if rho > 1.0:
        base += 5.0 * (rho - 1.0)
    return float(base)


def _deploy_and_label(
    workload_name: str,
    dag_json: str,
    system: str,
    rates: dict[str, float],
    parallelism: dict[str, int],
    seed: int,
) -> HistoryRecord:
    from repro.graphs.dag import DataflowDAG

    dag = DataflowDAG.from_json(dag_json)
    res = simulate(dag, parallelism, rates, system=system, seed=seed)
    labels = label_operators(dag, res)
    # Near-boundary positives densify exactly the region the fine-tuned
    # model must resolve.
    for oid in saturated_ops(dag, res):
        labels[oid] = 1
    return HistoryRecord(
        job=workload_name,
        dag_json=dag_json,
        system=system,
        rates=rates,
        parallelism=parallelism,
        labels=labels,
        job_backpressure=res.job_backpressure,
        job_latency=job_latency_proxy(res),
    )


def _configs(
    workloads: list[Workload], n_per_workload: int, seed: int
) -> list[tuple[str, str, str, dict[str, float], dict[str, int], int]]:
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
            cfgs.append(
                (wl.name, wl.dag.to_json(), wl.system, wl.rates(mult), par, seed + j)
            )
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
    """Spark-parallel history generation: the config sweep is distributed
    with ``mapInPandas``; results come back as one row per deployment, in
    config order (equal to :func:`generate_history_local`)."""
    from pyspark.sql.types import (
        BooleanType,
        DoubleType,
        StringType,
        StructField,
        StructType,
    )

    cfgs = _configs(workloads, n_per_workload, seed)
    pdf = pd.DataFrame(
        [
            {
                "job": c[0],
                "dag_json": c[1],
                "system": c[2],
                "rates_json": json.dumps(c[3]),
                "par_json": json.dumps(c[4]),
                "seed": c[5],
            }
            for c in cfgs
        ]
    )
    schema = StructType(
        [
            StructField("job", StringType()),
            StructField("dag_json", StringType()),
            StructField("system", StringType()),
            StructField("rates_json", StringType()),
            StructField("par_json", StringType()),
            StructField("labels_json", StringType()),
            StructField("job_backpressure", BooleanType()),
            StructField("job_latency", DoubleType()),
        ]
    )

    def _run(batches):
        for b in batches:
            rows = []
            for r in b.itertuples():
                rec = _deploy_and_label(
                    r.job,
                    r.dag_json,
                    r.system,
                    json.loads(r.rates_json),
                    {k: int(v) for k, v in json.loads(r.par_json).items()},
                    int(r.seed),
                )
                rows.append(rec.to_row())
            yield pd.DataFrame(rows)

    out = spark.createDataFrame(pdf).mapInPandas(_run, schema=schema).toPandas()
    return [HistoryRecord.from_row(row) for _, row in out.iterrows()]
