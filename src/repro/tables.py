"""The evaluation harness of the paper's §V, and one extractor per table.

Shared protocol (§V-A): the periodic source-rate pattern (120 changes at
full scale; ``pattern_perms`` scales it down for CI-speed runs), tuners
carry deployed parallelism across changes, and one ``StreamTune`` on
one pre-trained bundle makes every StreamTune tuner, each cluster's warm
start built once for all of them. ``run_evaluation`` runs it once on
either engine (``EvalConfig.system``) and returns an ``EvalRun``; the
extractors below read that run. A column evaluates the catalogue's jobs
of that ``Workload.group``: a Nexmark query its one job, a PQP group its
first ``pqp_per_group`` templates, with counts scaled to the group's
full template count (``PQP_TEMPLATES``) so they are comparable to the
paper's totals.

Extractors return pandas DataFrames shaped like the paper's tables;
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
from repro.core.monotonic import MODELS
from repro.core.pretrain import pretrain
from repro.core.tuner import PatternRunStats, StreamTune, run_pattern
from repro.history import HistoryRecord, generate_history, generate_history_local
from repro.sim.engine import epoch_latencies
from repro.sim.source_rates import periodic_pattern
from repro.sim.workloads import PQP_TEMPLATES, SOURCE_RATE_UNITS, Workload, full_catalogue

#: Epochs of each Fig. 8 latency run.
LATENCY_EPOCHS = 200

#: Columns of Table III / Fig. 6 / Fig. 7a, in the paper's order.
QUERY_COLUMNS = ["Q1", "Q2", "Q3", "Q5", "Q8", "Linear", "2-way-join", "3-way-join"]

#: Engine → (reported columns, history seed): the per-engine facts of the
#: §V protocol, keyed like ``sim.engine.PROFILES`` but not engine physics
#: (Fig. 8 shows Q3/Q5/Q8 only).
PROTOCOLS: dict[str, tuple[list[str], int]] = {
    "flink": (QUERY_COLUMNS, 11),
    "timely": (["Q3", "Q5", "Q8"], 13),
}


@dataclass
class EvalConfig:
    """Knobs for one evaluation sweep, on either engine."""

    system: str = "flink"  # a key of PROTOCOLS and sim.engine.PROFILES
    pattern_perms: int = 2  # 6 → the paper's 120 changes
    pqp_per_group: int = 2  # queries evaluated per PQP template group
    history_per_workload: int = 250
    pretrain_epochs: int = 50
    model_kind: str = "xgboost"  # StreamTune's fine-tune layer, a key of MODELS
    seed: int = 3
    k_clusters: int | None = 1  # None → elbow; 1 → global encoder

    def __post_init__(self) -> None:
        if self.system not in PROTOCOLS:
            raise ValueError(f"unknown system {self.system!r}")
        if min(self.pattern_perms, self.pqp_per_group) < 1:
            raise ValueError(f"pattern_perms {self.pattern_perms}, pqp_per_group {self.pqp_per_group}: need >= 1")
        if self.model_kind not in MODELS:
            raise ValueError(f"unknown fine-tune model {self.model_kind!r}")


@dataclass
class EvalRun:
    """The pattern and every pattern-run statistic of one sweep, reusable
    across the table extractors, and the sweep's StreamTune: its bundle
    and the warm starts it has built."""

    config: EvalConfig
    streamtune: StreamTune
    pattern: list[int] = field(default_factory=list)
    #: method → column → one PatternRunStats per evaluated job
    stats: dict[str, dict[str, list[PatternRunStats]]] = field(default_factory=dict)


def _eval_jobs(cfg: EvalConfig) -> dict[str, list[str]]:
    """Column → workload names evaluated for it: the first
    ``pqp_per_group`` catalogue jobs of that group."""
    cat = full_catalogue(cfg.system).values()
    return {
        col: [wl.name for wl in cat if wl.group == col][: cfg.pqp_per_group]
        for col in PROTOCOLS[cfg.system][0]
    }


def _history(spark, workloads: list[Workload], n_per_workload: int, seed: int) -> list[HistoryRecord]:
    """The execution history: a Spark sweep when a session is given."""
    if spark is None:
        return generate_history_local(workloads, n_per_workload=n_per_workload, seed=seed)
    return generate_history(spark, workloads, n_per_workload=n_per_workload, seed=seed)


def run_evaluation(
    cfg: EvalConfig | None = None, *, spark=None, verbose: bool = False
) -> EvalRun:
    """Pre-train once on ``cfg.system``'s history, then drive DS2 /
    ContTune / ZeroTune / StreamTune through the periodic pattern on every
    evaluated job. ZeroTune runs only where PQP history exists."""
    cfg = cfg or EvalConfig()
    cat = full_catalogue(cfg.system)
    jobs = _eval_jobs(cfg)
    workloads = [cat[n] for n in sorted({n for names in jobs.values() for n in names})]
    history = _history(spark, workloads, cfg.history_per_workload, seed=PROTOCOLS[cfg.system][1])
    bundle = pretrain(history, k=cfg.k_clusters, epochs=cfg.pretrain_epochs, seed=0, spark=spark)
    # ZeroTune learns from, and tunes, the PQP jobs (paper §V-A).
    pqp_jobs = {wl.name for wl in workloads if wl.group in PQP_TEMPLATES}
    pqp_hist = [r for r in history if r.job in pqp_jobs]
    zt_model = None
    if pqp_hist:
        zt_model = ZeroTuneCostModel(bundle.feature_encoder, seed=0).fit(
            pqp_hist, epochs=cfg.pretrain_epochs, seed=0
        )

    pattern = periodic_pattern(n_permutations=cfg.pattern_perms, seed=7)
    streamtune = StreamTune(bundle, cfg.seed)
    run = EvalRun(config=cfg, streamtune=streamtune, pattern=pattern)
    methods: dict[str, object] = {
        "DS2": lambda wl: DS2Tuner(wl, seed=cfg.seed),
        "ContTune": lambda wl: ContTuneTuner(wl, seed=cfg.seed),
        "ZeroTune": lambda wl: (
            ZeroTuneTuner(wl, zt_model, seed=cfg.seed)
            if (zt_model is not None and wl.name in pqp_jobs)
            else None
        ),
        "StreamTune": lambda wl: streamtune.tuner(wl, cfg.model_kind),
    }
    for method, mk in methods.items():
        run.stats[method] = {}
        for col, names in jobs.items():
            run.stats[method][col] = col_stats = []
            for name in names:
                wl = cat[name]
                if (tuner := mk(wl)) is None:
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
    return run


# perfbench calls these two names; they go once perfbench calls
# ``run_evaluation`` and ``fig8_timely`` itself.
run_flink_evaluation = run_evaluation


def run_timely_evaluation(*, spark=None, **knobs) -> pd.DataFrame:
    """Fig. 8 of a Timely sweep with ``EvalConfig`` knobs ``knobs``."""
    return fig8_timely(run_evaluation(EvalConfig(system="timely", **knobs), spark=spark))


def _scale(col: str, stats: list[PatternRunStats], value: float) -> float:
    """Scale a total over a column's evaluated jobs (one stat each) up to
    the paper's full group size."""
    size = PQP_TEMPLATES[col][1] if col in PQP_TEMPLATES else 1
    return value * size / len(stats)


def table2_source_rates() -> pd.DataFrame:
    """Table II — source-rate units of the evaluated streaming jobs."""
    rows = []
    for (job, system), units in SOURCE_RATE_UNITS.items():
        for source, wu in units.items():
            rows.append(
                {"job": job, "system": system, "source": source, "W_u (records/s)": wu}
            )
    return pd.DataFrame(rows)


def _method_table(run: EvalRun, methods: tuple[str, ...], cell) -> pd.DataFrame:
    """One row per method, one column per query: ``cell(col, stats)`` over
    that column's pattern-run stats, or "/" when it has none."""
    rows = []
    for method in methods:
        row: dict[str, object] = {"Method": method}
        for col in QUERY_COLUMNS:
            stats = run.stats.get(method, {}).get(col, [])
            row[col] = cell(col, stats) if stats else "/"
        rows.append(row)
    return pd.DataFrame(rows)


def table3_backpressure(run: EvalRun) -> pd.DataFrame:
    """Table III — frequency of backpressure occurrences during the
    tuning processes, scaled to full PQP group sizes."""
    return _method_table(
        run, ("DS2", "ContTune", "ZeroTune", "StreamTune"),
        lambda col, stats: int(round(_scale(col, stats, sum(s.total_backpressure for s in stats)))),
    )


def fig6_parallelism(run: EvalRun) -> pd.DataFrame:
    """Fig. 6 (as a table) — final total operator parallelism at 10·W_u
    (averaged over the evaluated queries of each PQP group; "/" when no
    run reached 10·W_u)."""

    def cell(col: str, stats: list[PatternRunStats]) -> object:
        vals = [v for s in stats if (v := s.final_parallelism_at.get(10)) is not None]
        return round(float(np.mean(vals)), 1) if vals else "/"

    return _method_table(run, ("DS2", "ContTune", "ZeroTune", "StreamTune"), cell)


def fig7_reconfigurations(run: EvalRun) -> pd.DataFrame:
    """Fig. 7a (as a table) — average reconfigurations per tuning
    process. ZeroTune is excluded as in the paper (always one)."""
    return _method_table(
        run, ("DS2", "ContTune", "StreamTune"),
        lambda col, stats: round(float(np.mean([s.avg_reconfigs for s in stats])), 2),
    )


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


def fig8_timely(run: EvalRun) -> pd.DataFrame:
    """Fig. 8 (as a table): final total parallelism at 10·W_u plus
    per-epoch latency percentiles under each method's recommendation, per
    query of a Timely sweep."""
    cat = full_catalogue(run.config.system)
    rows = []
    for col in PROTOCOLS[run.config.system][0]:
        for method in ("DS2", "ContTune", "StreamTune"):
            for st in run.stats[method][col]:
                wl = cat[st.job]
                # Latency CDF under the configuration the pattern run reached
                # at 10·W_u — the one whose total parallelism is reported.
                lat = epoch_latencies(
                    wl.dag, st.parallelism_at[10], wl.rates(10),
                    n_epochs=LATENCY_EPOCHS, seed=run.config.seed,
                )
                rows.append(
                    {
                        "Query": col,
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
    XGBoost honour the monotonic constraint, the NN does not. The tuners
    come from the sweep's StreamTune: they share its warm-up set, each
    kind's first model M_f⁰ is fit once for all queries, and the sweep's
    own kind reuses the sweep's."""
    cat = full_catalogue(run.config.system).values()
    rows = []
    for col in queries:
        wl = next(wl for wl in cat if wl.group == col)
        for kind in MODELS:
            tuner = run.streamtune.tuner(wl, kind)
            st = run_pattern(tuner, wl, run.pattern, method_name=f"st-{kind}")
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
    (AStar+-LSa-style) search vs direct full-GED computation, each the
    median of 5 runs on a fresh memo, with the A* states each run
    expanded, a count that does not depend on the host. The two paths
    alternate within each repeat, so host-speed drift hits both alike."""
    import time

    from repro.graphs.ged import GEDCache
    from repro.graphs.similarity import similarity_center

    def once(dags: list, method: str):
        memo = GEDCache()
        t0 = time.perf_counter()
        center = similarity_center(dags, tau, method=method, memo=memo)
        return time.perf_counter() - t0, center.canonical_key(), memo.expansions

    base = list(full_catalogue().values())
    rows = []
    for n in sizes:
        dags = [base[i % len(base)].dag for i in range(n)]
        fast, direct = zip(*([once(dags, "astar_lsa"), once(dags, "direct")] for _ in range(5)))
        assert fast[-1][1] == direct[-1][1]
        t_fast, t_direct = (np.median([t for t, _, _ in runs]) for runs in (fast, direct))
        rows.append(
            {
                "#DAGs": n,
                "AStar+-LSa (s)": round(t_fast, 4),
                "direct GED (s)": round(t_direct, 4),
                "speedup": round(t_direct / max(t_fast, 1e-9), 1),
                "AStar+-LSa expansions": fast[-1][2],
                "direct expansions": direct[-1][2],
            }
        )
    return pd.DataFrame(rows)
