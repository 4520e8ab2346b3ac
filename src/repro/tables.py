"""The evaluation harness of the paper's §V, and one extractor per table.

Shared protocol (§V-A): the periodic source-rate pattern (120 changes at
full scale; ``pattern_perms`` scales it down for CI-speed runs), tuners
carry deployed parallelism across changes, and one ``StreamTune`` on
one pre-trained bundle makes every StreamTune tuner, each cluster's warm
start built once for all of them. ``run_evaluation`` runs it once on
either engine (``EvalConfig.system``) and returns an ``EvalRun`` of every
stage it built; the extractors below read that run. A column evaluates
the catalogue's jobs of that ``Workload.group``: a Nexmark query its one
job, a PQP group its first ``pqp_per_group`` templates, with counts
scaled to the group's full template count (``PQP_TEMPLATES``) so they
are comparable to the paper's totals.

Extractors return pandas DataFrames shaped like the paper's tables;
``jobs/*.py`` print them, ``benchmarks/*.py`` time/regress them, and
EXPERIMENTS.md records paper-vs-ours side by side.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.baselines.conttune import ContTuneTuner
from repro.baselines.ds2 import DS2Tuner
from repro.baselines.zerotune import ZeroTuneCostModel, ZeroTuneTuner
from repro.core.monotonic import MODELS
from repro.core.pretrain import pretrain
from repro.core.tuner import PatternRunStats, StreamTune, run_pattern
from repro.history import generate_history, generate_history_local
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
        if min(self.pattern_perms, self.pqp_per_group, self.history_per_workload) < 1 or self.pretrain_epochs < 0:
            raise ValueError(f"{self}: the counts need >= 1, pretrain_epochs >= 0")
        if self.model_kind not in MODELS:
            raise ValueError(f"unknown fine-tune model {self.model_kind!r}")


@dataclass
class EvalRun:
    """Every stage of one sweep, each built from the ones before it; the
    table extractors read it, and :func:`run_patterns` fills ``stats``
    from the other fields alone."""

    config: EvalConfig
    #: column → the evaluated workloads
    jobs: dict[str, list[Workload]]
    #: the sweep's StreamTune: its bundle and the warm starts it has built
    streamtune: StreamTune
    #: ZeroTune's fitted cost model, or None when no PQP job is evaluated
    zerotune: ZeroTuneCostModel | None = None
    pattern: list[int] = field(default_factory=list)
    #: method → column → one PatternRunStats per job the method ran on
    stats: dict[str, dict[str, list[PatternRunStats]]] = field(default_factory=dict)
    #: stage (history, pretrain, zerotune, or a method's pattern runs) → seconds
    timings: dict[str, float] = field(default_factory=dict)


def _eval_jobs(cfg: EvalConfig) -> dict[str, list[Workload]]:
    """Column → the evaluated workloads: the first ``pqp_per_group``
    catalogue jobs of that group."""
    cat = full_catalogue(cfg.system).values()
    return {
        col: [wl for wl in cat if wl.group == col][: cfg.pqp_per_group]
        for col in PROTOCOLS[cfg.system][0]
    }


@contextmanager
def _timed(timings: dict[str, float], stage: str):
    """Store the seconds the ``with`` body took as ``timings[stage]``."""
    t0 = time.perf_counter()
    yield
    timings[stage] = time.perf_counter() - t0


def run_evaluation(cfg: EvalConfig | None = None, *, spark=None) -> EvalRun:
    """Build a sweep's stages on ``cfg.system`` in order: the evaluated
    jobs, their history, one pre-trained bundle, ZeroTune's cost model on
    the PQP jobs' history, the pattern; then :func:`run_patterns`."""
    cfg = cfg or EvalConfig()
    jobs = _eval_jobs(cfg)
    by_name = {wl.name: wl for wls in jobs.values() for wl in wls}
    workloads = [by_name[n] for n in sorted(by_name)]
    timings: dict[str, float] = {}
    with _timed(timings, "history"):  # a Spark sweep when a session is given
        kw = dict(n_per_workload=cfg.history_per_workload, seed=PROTOCOLS[cfg.system][1])
        history = (generate_history_local(workloads, **kw) if spark is None
                   else generate_history(spark, workloads, **kw))
    with _timed(timings, "pretrain"):
        bundle = pretrain(history, k=cfg.k_clusters, epochs=cfg.pretrain_epochs, seed=0, spark=spark)
    with _timed(timings, "zerotune"):
        pqp_hist = [r for r in history if by_name[r.job].group in PQP_TEMPLATES]
        zt_model = ZeroTuneCostModel(bundle.feature_encoder, seed=0).fit(
            pqp_hist, epochs=cfg.pretrain_epochs, seed=0) if pqp_hist else None
    return run_patterns(EvalRun(
        config=cfg, jobs=jobs, streamtune=StreamTune(bundle, cfg.seed), zerotune=zt_model,
        pattern=periodic_pattern(n_permutations=cfg.pattern_perms, seed=7), timings=timings,
    ))


def run_patterns(run: EvalRun) -> EvalRun:
    """Drive DS2 / ContTune / ZeroTune / StreamTune through ``run.pattern``
    on every job of ``run.jobs`` (ZeroTune on the PQP ones only), filling
    ``run.stats`` and each method's entry of ``run.timings``."""
    seed = run.config.seed
    methods = {
        "DS2": lambda wl: DS2Tuner(wl, seed=seed),
        "ContTune": lambda wl: ContTuneTuner(wl, seed=seed),
        "ZeroTune": lambda wl: ZeroTuneTuner(wl, run.zerotune, seed=seed),
        "StreamTune": lambda wl: run.streamtune.tuner(wl, run.config.model_kind),
    }
    for method, make in methods.items():
        with _timed(run.timings, method):
            run.stats[method] = {
                col: [run_pattern(make(wl), wl, run.pattern, method_name=method)
                      for wl in wls if method != "ZeroTune" or wl.group in PQP_TEMPLATES]
                for col, wls in run.jobs.items()
            }
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
    rows = []
    for col, wls in run.jobs.items():
        for method in ("DS2", "ContTune", "StreamTune"):
            for wl, st in zip(wls, run.stats[method][col], strict=True):
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


#: Queries of the Fig. 11a ablation.
FIG11A_QUERIES = ("Q3", "Q5", "Q8")


def fig11a_models(run: EvalRun) -> pd.DataFrame:
    """Fig. 11a (as a table): fine-tuning-model ablation — SVM and
    XGBoost honour the monotonic constraint, the NN does not. The sweep's
    own kind reads the sweep's StreamTune rows; each other kind runs on the
    query's first job with a tuner from the sweep's StreamTune, so it
    shares its warm-up set and fits its first model M_f⁰ once."""
    rows = []
    for col in FIG11A_QUERIES:
        wl = run.jobs[col][0]
        for kind in MODELS:
            st = (run.stats["StreamTune"][col][0] if kind == run.config.model_kind
                  else run_pattern(run.streamtune.tuner(wl, kind), wl, run.pattern, method_name=f"st-{kind}"))
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
