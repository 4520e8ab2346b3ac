"""Evaluation harnesses — one function per table of the paper's §V.

Shared protocol (§V-A): the periodic source-rate pattern (120 changes at
full scale; ``pattern_perms`` scales it down for CI-speed runs), tuners
carry deployed parallelism across changes, and the same pre-trained
bundle backs every StreamTune tuner. PQP groups are evaluated on a
subset of queries per group (``pqp_per_group``) and counts are scaled to
the full group size so they are comparable to the paper's totals.

Functions return pandas DataFrames shaped like the paper's tables;
``jobs/*.py`` print them, ``benchmarks/*.py`` time/regress them, and
EXPERIMENTS.md records paper-vs-ours side by side.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.baselines.conttune import ContTuneTuner
from repro.baselines.ds2 import DS2Tuner
from repro.baselines.zerotune import ZeroTuneCostModel, ZeroTuneTuner
from repro.core.pretrain import PretrainedBundle, pretrain, pretrain_global
from repro.core.tuner import PatternRunStats, StreamTuneTuner, run_pattern
from repro.history import HistoryRecord, generate_history, generate_history_local
from repro.sim.engine import epoch_latencies
from repro.sim.source_rates import periodic_pattern
from repro.sim.workloads import SOURCE_RATE_UNITS, Workload, full_catalogue, pqp_groups

#: Columns of Table III / Fig. 6 / Fig. 7a, in the paper's order.
QUERY_COLUMNS = ["Q1", "Q2", "Q3", "Q5", "Q8", "Linear", "2-way-join", "3-way-join"]

_NEXMARK_BY_COL = {
    "Q1": "nexmark_q1",
    "Q2": "nexmark_q2",
    "Q3": "nexmark_q3",
    "Q5": "nexmark_q5",
    "Q8": "nexmark_q8",
}
_PQP_BY_COL = {
    "Linear": "pqp_linear",
    "2-way-join": "pqp_2way",
    "3-way-join": "pqp_3way",
}


@dataclass
class EvalConfig:
    """Knobs for one full Flink evaluation sweep."""

    pattern_perms: int = 2  # 6 → the paper's 120 changes
    pqp_per_group: int = 2  # queries evaluated per PQP template group
    history_per_workload: int = 250
    pretrain_epochs: int = 50
    model_kind: str = "xgboost"  # StreamTune's fine-tune layer
    seed: int = 3
    k_clusters: int | None = 1  # None → elbow; 1 → global encoder


@dataclass
class EvalRun:
    """All pattern-run statistics from one sweep, reusable across the
    Table III / Fig. 6 / Fig. 7a extractors."""

    config: EvalConfig
    bundle: PretrainedBundle
    history: list[HistoryRecord]
    #: method → column → list of per-query PatternRunStats
    stats: dict[str, dict[str, list[PatternRunStats]]] = field(default_factory=dict)
    jobs_per_column: dict[str, int] = field(default_factory=dict)
    group_sizes: dict[str, int] = field(default_factory=dict)


def _eval_jobs(cfg: EvalConfig) -> dict[str, list[str]]:
    """Column → workload names evaluated for it."""
    groups = pqp_groups()
    out: dict[str, list[str]] = {c: [w] for c, w in _NEXMARK_BY_COL.items()}
    for col, grp in _PQP_BY_COL.items():
        out[col] = groups[grp][: cfg.pqp_per_group]
    return out


def _history(spark, workloads: list[Workload], n_per_workload: int, seed: int) -> list[HistoryRecord]:
    """The execution history: a Spark sweep when a session is given."""
    if spark is None:
        return generate_history_local(workloads, n_per_workload=n_per_workload, seed=seed)
    return generate_history(spark, workloads, n_per_workload=n_per_workload, seed=seed)


def run_flink_evaluation(
    cfg: EvalConfig | None = None, *, spark=None, verbose: bool = False
) -> EvalRun:
    """Pre-train once, then drive DS2 / ContTune / ZeroTune / StreamTune
    through the periodic pattern on every evaluated job."""
    cfg = cfg or EvalConfig()
    cat = full_catalogue("flink")
    jobs = _eval_jobs(cfg)
    eval_names = sorted({n for names in jobs.values() for n in names})
    workloads = [cat[n] for n in eval_names]
    history = _history(spark, workloads, cfg.history_per_workload, seed=11)
    if cfg.k_clusters == 1:
        bundle = pretrain_global(history, epochs=cfg.pretrain_epochs, seed=0)
    else:
        bundle = pretrain(
            history, k=cfg.k_clusters, epochs=cfg.pretrain_epochs, seed=0, spark=spark
        )
    pqp_hist = [r for r in history if r.job.startswith("pqp")]
    zt_model = None
    if pqp_hist:
        zt_model = ZeroTuneCostModel(bundle.feature_encoder, seed=0).fit(
            pqp_hist, epochs=cfg.pretrain_epochs, seed=0
        )

    pattern = periodic_pattern(n_permutations=cfg.pattern_perms, seed=7)
    run = EvalRun(config=cfg, bundle=bundle, history=history)
    groups = pqp_groups()
    run.group_sizes = {c: len(groups[g]) for c, g in _PQP_BY_COL.items()} | {
        c: 1 for c in _NEXMARK_BY_COL
    }
    for col, names in jobs.items():
        run.jobs_per_column[col] = len(names)
    methods: dict[str, object] = {
        "DS2": lambda wl: DS2Tuner(wl, seed=cfg.seed),
        "ContTune": lambda wl: ContTuneTuner(wl, seed=cfg.seed),
        "ZeroTune": lambda wl: (
            ZeroTuneTuner(wl, zt_model, seed=cfg.seed)
            if (zt_model is not None and wl.group != "nexmark")
            else None
        ),
        "StreamTune": lambda wl: StreamTuneTuner(bundle, wl, model_kind=cfg.model_kind, seed=cfg.seed),
    }
    for method, mk in methods.items():
        run.stats[method] = {}
        for col, names in jobs.items():
            col_stats: list[PatternRunStats] = []
            for name in names:
                wl = cat[name]
                tuner = mk(wl)
                if tuner is None:
                    continue
                st = run_pattern(tuner, wl, pattern, method_name=method)
                col_stats.append(st)
                if verbose:
                    print(
                        f"[{method}] {name}: bp={st.total_backpressure} "
                        f"reconf={st.avg_reconfigs:.2f} "
                        f"p@10={st.final_parallelism_at.get(10)}",
                        flush=True,
                    )
            run.stats[method][col] = col_stats
    return run


def _scale(col: str, run: EvalRun, value: float) -> float:
    """Scale a subset total up to the paper's full group size."""
    n_eval = max(1, run.jobs_per_column.get(col, 1))
    return value * run.group_sizes.get(col, 1) / n_eval


def table2_source_rates() -> pd.DataFrame:
    """Table II — source-rate units of the evaluated streaming jobs."""
    rows = []
    for (job, system), units in SOURCE_RATE_UNITS.items():
        for source, wu in units.items():
            rows.append(
                {"job": job, "system": system, "source": source, "W_u (records/s)": wu}
            )
    return pd.DataFrame(rows)


def table3_backpressure(run: EvalRun) -> pd.DataFrame:
    """Table III — frequency of backpressure occurrences during the
    tuning processes, scaled to full PQP group sizes."""
    rows = []
    for method in ("DS2", "ContTune", "ZeroTune", "StreamTune"):
        row: dict[str, object] = {"Method": method}
        for col in QUERY_COLUMNS:
            stats = run.stats.get(method, {}).get(col, [])
            if not stats:
                row[col] = "/"
            else:
                total = sum(s.total_backpressure for s in stats)
                row[col] = int(round(_scale(col, run, total)))
        rows.append(row)
    return pd.DataFrame(rows)


def fig6_parallelism(run: EvalRun) -> pd.DataFrame:
    """Fig. 6 (as a table) — final total operator parallelism at 10·W_u
    (averaged over the evaluated queries of each PQP group)."""
    rows = []
    for method in ("DS2", "ContTune", "ZeroTune", "StreamTune"):
        row: dict[str, object] = {"Method": method}
        for col in QUERY_COLUMNS:
            stats = run.stats.get(method, {}).get(col, [])
            vals = [
                s.final_parallelism_at.get(10)
                for s in stats
                if s.final_parallelism_at.get(10) is not None
            ]
            row[col] = round(float(np.mean(vals)), 1) if vals else "/"
        rows.append(row)
    return pd.DataFrame(rows)


def fig7_reconfigurations(run: EvalRun) -> pd.DataFrame:
    """Fig. 7a (as a table) — average reconfigurations per tuning
    process. ZeroTune is excluded as in the paper (always one)."""
    rows = []
    for method in ("DS2", "ContTune", "StreamTune"):
        row: dict[str, object] = {"Method": method}
        for col in QUERY_COLUMNS:
            stats = run.stats.get(method, {}).get(col, [])
            vals = [s.avg_reconfigs for s in stats]
            row[col] = round(float(np.mean(vals)), 2) if vals else "/"
        rows.append(row)
    return pd.DataFrame(rows)


def fig7b_tuning_minutes(run: EvalRun) -> pd.DataFrame:
    """Fig. 7b companion — StreamTune tuning time (virtual minutes) per
    tuning process: min / mean / max across all processes."""
    rows = []
    for col in QUERY_COLUMNS:
        stats = run.stats.get("StreamTune", {}).get(col, [])
        minutes = [m for s in stats for m in s.tuning_minutes]
        if not minutes:
            continue
        rows.append(
            {
                "Query": col,
                "min (min)": round(min(minutes), 1),
                "mean (min)": round(float(np.mean(minutes)), 1),
                "max (min)": round(max(minutes), 1),
            }
        )
    return pd.DataFrame(rows)


# -- Timely evaluation (Fig. 8) ---------------------------------------------


def run_timely_evaluation(
    *,
    pattern_perms: int = 2,
    history_per_workload: int = 250,
    pretrain_epochs: int = 50,
    model_kind: str = "xgboost",
    seed: int = 3,
    spark=None,
    n_epochs: int = 200,
) -> pd.DataFrame:
    """Fig. 8 (as a table): final total parallelism at 10·W_u on the
    Timely engine plus per-epoch latency percentiles under each method's
    recommendation, for Q3/Q5/Q8."""
    cat = full_catalogue("timely")
    report_jobs = ["nexmark_q3", "nexmark_q5", "nexmark_q8"]
    workloads = [cat[n] for n in report_jobs]
    history = _history(spark, workloads, history_per_workload, seed=13)
    bundle = pretrain_global(history, epochs=pretrain_epochs, seed=0)
    pattern = periodic_pattern(n_permutations=pattern_perms, seed=7)
    rows = []
    for name in report_jobs:
        wl = cat[name]
        for method, mk in (
            ("DS2", lambda: DS2Tuner(wl, seed=seed)),
            ("ContTune", lambda: ContTuneTuner(wl, seed=seed)),
            ("StreamTune", lambda: StreamTuneTuner(bundle, wl, model_kind=model_kind, seed=seed)),
        ):
            st = run_pattern(mk(), wl, pattern, method_name=method)
            # Latency CDF under the configuration the pattern run reached
            # at 10·W_u — the one whose total parallelism is reported.
            lat = epoch_latencies(
                wl.dag, st.parallelism_at[10], wl.rates(10), n_epochs=n_epochs, seed=seed
            )
            rows.append(
                {
                    "Query": name.replace("nexmark_q", "Q"),
                    "Method": method,
                    "total parallelism @10Wu": st.final_parallelism_at[10],
                    "bottleneck events": st.total_backpressure,
                    "latency p50 (s)": round(float(np.percentile(lat, 50)), 3),
                    "latency p99 (s)": round(float(np.percentile(lat, 99)), 3),
                }
            )
    return pd.DataFrame(rows)


# -- Ablations (Fig. 11) -----------------------------------------------------


def fig11a_models(
    run: EvalRun, *, queries: tuple[str, ...] = ("Q3", "Q5", "Q8")
) -> pd.DataFrame:
    """Fig. 11a (as a table): fine-tuning-model ablation — SVM and
    XGBoost honour the monotonic constraint, the NN does not."""
    cat = full_catalogue("flink")
    pattern = periodic_pattern(n_permutations=run.config.pattern_perms, seed=7)
    rows = []
    for col in queries:
        wl = cat[_NEXMARK_BY_COL[col]]
        for kind in ("svm", "xgboost", "nn"):
            tuner = StreamTuneTuner(run.bundle, wl, model_kind=kind, seed=run.config.seed)
            st = run_pattern(tuner, wl, pattern, method_name=f"st-{kind}")
            rows.append(
                {
                    "Query": col,
                    "Model": kind.upper(),
                    "monotonic": kind != "nn",
                    "backpressure occurrences": st.total_backpressure,
                    "total parallelism @10Wu": st.final_parallelism_at.get(10),
                    "avg reconfigs": round(st.avg_reconfigs, 2),
                }
            )
    return pd.DataFrame(rows)


def fig11b_simcenter(
    *, sizes: tuple[int, ...] = (50, 100, 200, 400), tau: float = 5.0
) -> pd.DataFrame:
    """Fig. 11b (as a table): similarity-center computation time, pruned
    (AStar+-LSa-style) search vs direct full-GED computation."""
    import time

    from repro.graphs.similarity import similarity_center
    from repro.sim.workloads import full_catalogue as _fc

    base = list(_fc("flink").values())
    rows = []
    for n in sizes:
        dags = [base[i % len(base)].dag for i in range(n)]
        t0 = time.perf_counter()
        c1 = similarity_center(dags, tau, method="astar_lsa")
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        c2 = similarity_center(dags, tau, method="direct")
        t_direct = time.perf_counter() - t0
        assert c1.canonical_key() == c2.canonical_key()
        rows.append(
            {
                "#DAGs": n,
                "AStar+-LSa (s)": round(t_fast, 4),
                "direct GED (s)": round(t_direct, 4),
                "speedup": round(t_direct / max(t_fast, 1e-9), 1),
            }
        )
    return pd.DataFrame(rows)
