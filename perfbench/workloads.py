"""The three benchmark workloads and the checks on their outputs.

Each workload calls the program's public entry points with inputs made
from the seed, times them, and checks what they return. A workload reads
the tuning outcomes from the spans of the tracer it is given (the
runner installs at least :data:`layers.PROBES`), so checks and quality
figures come from the same call boundaries in traced and untraced runs.

Why these three (see README.md for the full map):

* ``flink-sweep`` — Table III / Fig. 6 / Fig. 7 through
  ``tables.run_flink_evaluation``: exercises ``core.monotonic`` and
  ``core.tuner`` (almost all of its time) and bypasses GED clustering.
* ``timely-sweep`` — Fig. 8 through ``tables.run_timely_evaluation``:
  the same engine, tuner and DS2 code on the Timely branches (no source
  throttling, spinning workers, the 85 % rule, ``epoch_latencies``).
* ``offline-pretrain`` — the ``jobs/pretrain_job.py`` path on Spark:
  history generation, elbow + GED k-means with Spark assignment and one
  GNN per cluster. Bypasses ``core.monotonic`` and ``core.tuner``.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field

from spans import Tracer

#: Flink-sweep scale: the repository's reference knobs, on one of the eight
#: Table III columns. The full eight-job sweep takes ~110 s on 4 cores,
#: more than one benchmark run may take. 3-way-join is the richest PQP
#: DAG, runs every method (ZeroTune runs on PQP only) and carries both
#: the Fig. 6 and the Fig. 7 invariant.
FLINK_KNOBS = dict(pattern_perms=1, pqp_per_group=1, history_per_workload=100,
                   pretrain_epochs=20, model_kind="xgboost")
FLINK_COLUMNS = ("3-way-join",)
#: Timely-sweep scale (Fig. 8 always runs Q3, Q5 and Q8).
TIMELY_KNOBS = dict(pattern_perms=1, history_per_workload=100, pretrain_epochs=20,
                    model_kind="xgboost")
#: Offline pre-training scale: deployments per job over the 61-job Flink
#: catalogue (1220 deployments) and GNN epochs per cluster.
PRETRAIN_KNOBS = dict(n_per_workload=20, epochs=10)

#: Units of the workload outputs reported beside the per-layer metrics.
OUTPUT_UNITS = {
    "streamtune_total_parallelism_10wu": "operators",
    "streamtune_backpressure_events": "count",
    "streamtune_reconfigs_per_process": "count",
    "epoch_latency_p99_s": "virtual_s",
    "failed_frac": "ratio",
}
for _b in ("ds2", "conttune", "zerotune"):
    OUTPUT_UNITS |= {
        f"baselines.{_b}.total_parallelism_10wu": "operators",
        f"baselines.{_b}.backpressure_events": "count",
    }
_BASELINE_KEY = {"DS2": "ds2", "ContTune": "conttune", "ZeroTune": "zerotune"}


@dataclass
class Outcome:
    wall_s: float
    pretrain_accuracy: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: workload outputs keyed as in OUTPUT_UNITS (absent → not produced)
    outputs: dict[str, float] = field(default_factory=dict)
    #: one line per failed correctness check
    errors: list[str] = field(default_factory=list)


def _tags(tr: Tracer, name: str) -> list[dict]:
    return [s.tags for s in tr.spans if s.name == name and s.tags]


def _tuning_outcomes(tr: Tracer, out: Outcome) -> None:
    """Count tuning processes, fail the ones that did not converge, and
    check every final parallelism vector lies within [1, p_max]."""
    procs = [
        t for name in ("tuner/tune", "baselines/ds2_tune", "baselines/conttune_tune",
                       "baselines/zerotune_tune")
        for t in _tags(tr, name)
    ]
    out.attempted += len(procs)
    out.failed += sum(not t["converged"] for t in procs)
    bad = sum(not t["in_range"] for t in procs)
    if bad:
        out.errors.append(f"{bad} tuning processes left a degree outside [1, p_max]")
    if not procs:
        out.errors.append("no tuning process ran")


def _pattern_outputs(tr: Tracer, out: Outcome) -> None:
    """Σp@10, backpressure events and reconfigurations per process for
    each method, summed over the jobs it ran on."""
    runs = _tags(tr, "tables/run_pattern")
    for method in ("StreamTune", *_BASELINE_KEY):
        mine = [r for r in runs if r["method"] == method]
        if not mine:
            continue
        p10 = sum(r["p10"] for r in mine)
        bp = sum(r["bp"] for r in mine)
        if method == "StreamTune":
            out.outputs["streamtune_total_parallelism_10wu"] = p10
            out.outputs["streamtune_backpressure_events"] = bp
            out.outputs["streamtune_reconfigs_per_process"] = (
                sum(r["reconfigs"] for r in mine) / sum(r["processes"] for r in mine)
            )
        else:
            key = _BASELINE_KEY[method]
            out.outputs[f"baselines.{key}.total_parallelism_10wu"] = p10
            out.outputs[f"baselines.{key}.backpressure_events"] = bp


def _bundle_accuracy(tr: Tracer, out: Outcome) -> float:
    bundles = _tags(tr, "pretrain/pretrain")
    if not bundles:
        out.errors.append("no pre-trained bundle")
        return 0.0
    return bundles[-1]["acc"]


# -- flink-sweep ---------------------------------------------------------------


def _check_flink_tables(run, out: Outcome) -> None:
    """The table extractors return complete rows, and the paper-shape
    invariants of benchmarks/bench_fig6/fig7_*.py hold on the evaluated
    columns. (bench_table3's backpressure limits are not checked: they
    are counts of one or two events and vary with the seed.)"""
    from repro import tables as T

    cols = list(FLINK_COLUMNS)
    frames = {
        "table3": (T.table3_backpressure(run), ["DS2", "ContTune", "ZeroTune", "StreamTune"]),
        "fig6": (T.fig6_parallelism(run), ["DS2", "ContTune", "ZeroTune", "StreamTune"]),
        "fig7": (T.fig7_reconfigurations(run), ["DS2", "ContTune", "StreamTune"]),
    }
    pqp_cols = [c for c in cols if c in ("Linear", "2-way-join", "3-way-join")]
    for name, (df, methods) in frames.items():
        if list(df["Method"]) != methods or list(df.columns) != ["Method", *T.QUERY_COLUMNS]:
            out.errors.append(f"{name}: rows or columns missing: {df.to_dict('list')}")
            continue
        for _, row in df.iterrows():
            for c in cols:
                absent = row["Method"] == "ZeroTune" and c not in pqp_cols
                if (row[c] == "/") != absent:
                    out.errors.append(f"{name}: {row['Method']}/{c} = {row[c]!r}")
    fig7b = T.fig7b_tuning_minutes(run)
    if sorted(fig7b["Query"]) != sorted(cols) or fig7b.isna().any().any():
        out.errors.append(f"fig7b: incomplete rows {fig7b.to_dict('list')}")
    if out.errors:
        return

    f6 = frames["fig6"][0].set_index("Method")
    for c in pqp_cols:
        if not (f6.loc["ZeroTune", c] > f6.loc["StreamTune", c]
                and f6.loc["ZeroTune", c] > f6.loc["DS2", c]):
            out.errors.append(f"fig6: ZeroTune not highest on {c}: {f6[c].to_dict()}")
    f7 = frames["fig7"][0].set_index("Method")
    for c in set(cols) & {"Q5", "Q8", "3-way-join"}:
        if not f7.loc["DS2", c] > f7.loc["ContTune", c]:
            out.errors.append(f"fig7: DS2 not above ContTune on {c}: {f7[c].to_dict()}")


def flink_sweep(seed: int, spark, tr: Tracer) -> Outcome:
    from repro import tables as T

    full_jobs = T._eval_jobs
    T._eval_jobs = lambda cfg: {
        c: names for c, names in full_jobs(cfg).items() if c in FLINK_COLUMNS
    }
    try:
        t0 = time.perf_counter()
        run = T.run_flink_evaluation(T.EvalConfig(seed=seed, **FLINK_KNOBS))
        wall = time.perf_counter() - t0
    finally:
        T._eval_jobs = full_jobs
    out = Outcome(wall_s=wall)
    out.pretrain_accuracy = _bundle_accuracy(tr, out)
    _tuning_outcomes(tr, out)
    _pattern_outputs(tr, out)
    _check_flink_tables(run, out)
    return out


# -- timely-sweep --------------------------------------------------------------


def timely_sweep(seed: int, spark, tr: Tracer) -> Outcome:
    from repro.tables import run_timely_evaluation

    t0 = time.perf_counter()
    df = run_timely_evaluation(seed=seed, **TIMELY_KNOBS)
    wall = time.perf_counter() - t0
    out = Outcome(wall_s=wall)
    out.pretrain_accuracy = _bundle_accuracy(tr, out)
    _tuning_outcomes(tr, out)
    _pattern_outputs(tr, out)

    # Fig. 8 rows complete, and the invariant of bench_fig8_timely.py.
    queries, methods = ["Q3", "Q5", "Q8"], ["DS2", "ContTune", "StreamTune"]
    if (
        sorted(zip(df["Query"], df["Method"])) != sorted((q, m) for q in queries for m in methods)
        or df.isna().any().any()
    ):
        out.errors.append(f"fig8: incomplete rows {df.to_dict('list')}")
        return out
    piv = df.pivot_table(index="Query", columns="Method", values="total parallelism @10Wu")
    if not (piv["DS2"] >= piv["StreamTune"]).all() or (piv["DS2"] / piv["StreamTune"]).max() < 2.0:
        out.errors.append(f"fig8: DS2 does not over-provision Timely: {piv.to_dict()}")
    st = df[df["Method"] == "StreamTune"]
    out.outputs["epoch_latency_p99_s"] = float(st["latency p99 (s)"].mean())
    return out


# -- offline-pretrain ----------------------------------------------------------


def _history_key(rec) -> str:
    return json.dumps(rec.to_row(), sort_keys=True)


def offline_pretrain(seed: int, spark, tr: Tracer) -> Outcome:
    from repro.core.pretrain import pretrain
    from repro.history import generate_history, generate_history_local
    from repro.sim.workloads import full_catalogue

    workloads = list(full_catalogue("flink").values())
    n = PRETRAIN_KNOBS["n_per_workload"]
    t0 = time.perf_counter()
    history = generate_history(spark, workloads, n_per_workload=n, seed=seed)
    bundle = pretrain(history, k=None, epochs=PRETRAIN_KNOBS["epochs"], spark=spark)
    wall = time.perf_counter() - t0

    expected = n * len(workloads)
    out = Outcome(wall_s=wall, attempted=expected + 1, failed=max(0, expected - len(history)))
    out.pretrain_accuracy = _bundle_accuracy(tr, out)
    # The single-threaded baseline on the same configs doubles as the
    # reference the Spark history must equal, as a multiset.
    local = generate_history_local(workloads, n_per_workload=n, seed=seed)
    if Counter(map(_history_key, history)) != Counter(map(_history_key, local)):
        out.errors.append(
            f"Spark history ({len(history)} rows) differs from local ({len(local)} rows)"
        )
    k = len(bundle.encoders)
    if not (k >= 1 and len(bundle.centers) == k and len(bundle.train_acc) == k):
        out.errors.append(f"bundle: {k} encoders, {len(bundle.centers)} centers")
    if sum(map(len, bundle.cluster_records)) != len(history):
        out.errors.append("bundle: some history records are in no cluster")
    if not 0.0 < out.pretrain_accuracy <= 1.0:
        out.errors.append(f"pretrain accuracy {out.pretrain_accuracy}")
    return out


WORKLOADS = {
    "flink-sweep": (flink_sweep, "flink", False),
    "timely-sweep": (timely_sweep, "timely", False),
    "offline-pretrain": (offline_pretrain, "flink", True),
}
"""name → (function, catalogue system, uses Spark)"""

KNOBS = {
    "flink-sweep": {**FLINK_KNOBS, "columns": list(FLINK_COLUMNS)},
    "timely-sweep": TIMELY_KNOBS,
    "offline-pretrain": PRETRAIN_KNOBS,
}
