"""Which public functions each layer's spans wrap, and how the per-layer
metrics are derived from those spans.

Span names are ``<layer>/<function>``. Counts and ratios are taken from
the same spans as the times, so a ratio such as deployments per tuning
process counts the ``simulate`` calls made *inside* ``StreamTuneTuner.tune``.
"""
from __future__ import annotations

import numpy as np

from spans import Hook, Tracer


def _rows(args, kwargs, out) -> dict:
    return {"rows": len(out)}


def _epochs(args, kwargs, out) -> dict:
    return {"epochs": int(kwargs.get("epochs", 60))}


def _pruned(args, kwargs, out) -> dict:
    return {"pruned": out is None}


def _pattern(args, kwargs, out) -> dict:
    """One (method, job) pattern run: the figures the tables report."""
    return {
        "method": kwargs.get("method_name", "streamtune"),
        "job": out.job,
        "processes": out.n_processes,
        "reconfigs": out.total_reconfigs,
        "bp": out.total_backpressure,
        "p10": out.final_parallelism_at.get(10),
    }


def _tuning(args, kwargs, out) -> dict:
    """One tuning process: did it converge, and is every degree it
    settled on within [1, p_max] of the tuned workload?"""
    p_max = args[0].wl.p_max
    return {
        "converged": bool(out.converged),
        "in_range": all(1 <= p <= p_max for p in out.final_parallelism.values()),
    }


def _bundle(args, kwargs, out) -> dict:
    """Clusters and record-weighted training accuracy of a bundle."""
    sizes = [len(r) for r in out.cluster_records]
    accs = [(a, n) for a, n in zip(out.train_acc, sizes) if np.isfinite(a)]
    w = sum(n for _, n in accs)
    return {"k": len(out.encoders), "acc": sum(a * n for a, n in accs) / w if w else 0.0}


#: Public entry points of every ``src/repro`` module on the measured paths,
#: keyed by ``module:qualname`` → (span name, hook).
TARGETS: dict[str, tuple[str, Hook | None]] = {
    # core.monotonic — the fine-tune model M_f
    "repro.core.monotonic:MonotoneGBDT.fit": ("monotonic/fit", None),
    "repro.core.monotonic:MonotoneSVM.fit": ("monotonic/fit", None),
    "repro.core.monotonic:PlainNN.fit": ("monotonic/fit", None),
    "repro.core.monotonic:MonotoneGBDT.predict_proba": ("monotonic/predict_proba", None),
    "repro.core.monotonic:MonotoneSVM.predict_proba": ("monotonic/predict_proba", None),
    "repro.core.monotonic:PlainNN.predict_proba": ("monotonic/predict_proba", None),
    "repro.core.monotonic:min_safe_parallelism": ("monotonic/min_safe_parallelism", None),
    # core.tuner — Algorithm 2
    "repro.core.tuner:StreamTuneTuner.__init__": ("tuner/init", None),
    "repro.core.tuner:StreamTuneTuner.tune": ("tuner/tune", _tuning),
    # sim.engine
    "repro.sim.engine:simulate": ("engine/simulate", None),
    "repro.sim.engine:epoch_latencies": ("engine/epoch_latencies", None),
    # history
    "repro.history:generate_history": ("history/spark", _rows),
    "repro.history:generate_history_local": ("history/local", _rows),
    # core.gnn / core.pretrain / core.features
    "repro.core.gnn:GNN.fit": ("pretrain/gnn_fit", _epochs),
    "repro.core.gnn:GNN.embed": ("pretrain/embed", None),
    "repro.core.features:FeatureEncoder.encode_dag": ("pretrain/encode_dag", None),
    "repro.core.pretrain:PretrainedBundle.warmup_dataset": ("pretrain/warmup_dataset", None),
    "repro.core.pretrain:pretrain": ("pretrain/pretrain", _bundle),
    # graphs.ged / graphs.clustering / graphs.similarity
    "repro.graphs.ged:ged": ("graphs/ged", None),
    "repro.graphs.ged:ged_within": ("graphs/ged_within", _pruned),
    "repro.graphs.clustering:kmeans_ged": ("graphs/kmeans_ged", None),
    "repro.graphs.clustering:elbow_k": ("graphs/elbow_k", None),
    "repro.graphs.clustering:assign_with_spark": ("graphs/assign_with_spark", None),
    "repro.graphs.clustering:nearest_center": ("graphs/nearest_center", None),
    "repro.graphs.similarity:similarity_center": ("graphs/similarity_center", None),
    # baselines
    "repro.baselines.ds2:DS2Tuner.tune": ("baselines/ds2_tune", _tuning),
    "repro.baselines.conttune:ContTuneTuner.tune": ("baselines/conttune_tune", _tuning),
    "repro.baselines.zerotune:ZeroTuneTuner.tune": ("baselines/zerotune_tune", _tuning),
    "repro.baselines.zerotune:ZeroTuneCostModel.fit": ("baselines/zerotune_fit", None),
    # tables — one span per (method, job) pattern run
    "repro.core.tuner:run_pattern": ("tables/run_pattern", _pattern),
}

#: The spans the untraced run keeps: the few calls whose outcomes the
#: end-to-end metrics and correctness checks read.
PROBES = {
    k: v for k, v in TARGETS.items()
    if v[0] in ("tuner/tune", "baselines/ds2_tune", "baselines/conttune_tune",
                "baselines/zerotune_tune", "tables/run_pattern", "pretrain/pretrain")
}

LAYERS = ("monotonic", "tuner", "engine", "history", "pretrain", "graphs", "baselines", "tables")
METHODS = ("DS2", "ContTune", "ZeroTune", "StreamTune")

#: name → unit of every per-layer metric :func:`layer_metrics` returns,
#: besides the workload outputs and trace overhead added by the runner.
UNITS: dict[str, str] = {}
for _l in LAYERS:
    UNITS |= {f"{_l}.calls": "count", f"{_l}.total_s": "s", f"{_l}.self_s": "s"}
UNITS |= {
    "monotonic.fit_calls": "count",
    "monotonic.fit_s_per_call": "s",
    "monotonic.predict_proba_calls": "count",
    "monotonic.min_safe_parallelism_us_per_op": "us",
    "tuner.tune_calls": "count",
    "tuner.tune_self_s": "s",
    "tuner.deployments_per_process": "ratio",
    "tuner.fits_per_process": "ratio",
    "tuner.init_s_per_call": "s",
    "streamtune_tune_ms_p50": "ms",
    "streamtune_tune_ms_p90": "ms",
    "engine.simulate_calls": "count",
    "engine.simulate_us_per_call": "us",
    "engine.epoch_latencies_calls": "count",
    "engine.epoch_latencies_s": "s",
    "history.spark.deployments_per_s": "1/s",
    "history.local.deployments_per_s": "1/s",
    "pretrain.gnn_fit_s_per_epoch": "s",
    "pretrain.embed_calls": "count",
    "pretrain.warmup_dataset_s": "s",
    "pretrain.encode_dag_calls": "count",
    "pretrain.clusters": "count",
    "graphs.ged_calls": "count",
    "graphs.ged_ms_per_pair": "ms",
    "graphs.ged_within_calls": "count",
    "graphs.ged_within.pruned_frac": "ratio",
    "graphs.kmeans_ged_s": "s",
    "graphs.elbow_k_s": "s",
    "graphs.assign_with_spark_s": "s",
    "graphs.nearest_center_calls": "count",
    "baselines.zerotune.cost_model_fit_s": "s",
}
for _b in ("ds2", "conttune", "zerotune"):
    UNITS |= {f"baselines.{_b}.tune_calls": "count", f"baselines.{_b}.tune_s": "s"}
for _m in METHODS:
    UNITS[f"tables.run_pattern_s_per_job.{_m}"] = "s"


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every metric in :data:`UNITS`, from the recorded spans. A layer the
    workload never calls reports zero calls and zero time."""
    spans = tr.spans
    selfs = tr.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name: str) -> list[int]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return float(sum(spans[i].dur for i in idx(name)))

    def per_call(name: str, scale: float = 1.0) -> float:
        n = len(idx(name))
        return total(name) / n * scale if n else 0.0

    def inside(name: str, ancestor: str) -> int:
        return sum(ancestor in tr.ancestors(i) for i in idx(name))

    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s.name.startswith(layer + "/")]
        outer = [
            i for i in mine
            if not any(a.startswith(layer + "/") for a in tr.ancestors(i))
        ]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.total_s"] = float(sum(spans[i].dur for i in outer))
        m[f"{layer}.self_s"] = float(sum(selfs[i] for i in mine))

    n_tune = len(idx("tuner/tune"))
    tune_ms = [spans[i].dur * 1e3 for i in idx("tuner/tune")]
    gnn_epochs = sum(spans[i].tags.get("epochs", 0) for i in idx("pretrain/gnn_fit"))
    pruned = [spans[i].tags["pruned"] for i in idx("graphs/ged_within")]
    m |= {
        "monotonic.fit_calls": len(idx("monotonic/fit")),
        "monotonic.fit_s_per_call": per_call("monotonic/fit"),
        "monotonic.predict_proba_calls": len(idx("monotonic/predict_proba")),
        # one min_safe_parallelism call resolves one operator
        "monotonic.min_safe_parallelism_us_per_op": per_call("monotonic/min_safe_parallelism", 1e6),
        "tuner.tune_calls": n_tune,
        "tuner.tune_self_s": float(sum(selfs[i] for i in idx("tuner/tune"))),
        "tuner.deployments_per_process": inside("engine/simulate", "tuner/tune") / n_tune if n_tune else 0.0,
        "tuner.fits_per_process": inside("monotonic/fit", "tuner/tune") / n_tune if n_tune else 0.0,
        "tuner.init_s_per_call": per_call("tuner/init"),
        "streamtune_tune_ms_p50": float(np.percentile(tune_ms, 50)) if tune_ms else 0.0,
        "streamtune_tune_ms_p90": float(np.percentile(tune_ms, 90)) if tune_ms else 0.0,
        "engine.simulate_calls": len(idx("engine/simulate")),
        "engine.simulate_us_per_call": per_call("engine/simulate", 1e6),
        "engine.epoch_latencies_calls": len(idx("engine/epoch_latencies")),
        "engine.epoch_latencies_s": total("engine/epoch_latencies"),
        "pretrain.gnn_fit_s_per_epoch": total("pretrain/gnn_fit") / gnn_epochs if gnn_epochs else 0.0,
        "pretrain.embed_calls": len(idx("pretrain/embed")),
        "pretrain.warmup_dataset_s": total("pretrain/warmup_dataset"),
        "pretrain.encode_dag_calls": len(idx("pretrain/encode_dag")),
        "pretrain.clusters": max((spans[i].tags["k"] for i in idx("pretrain/pretrain")), default=0),
        "graphs.ged_calls": len(idx("graphs/ged")),
        "graphs.ged_ms_per_pair": per_call("graphs/ged", 1e3),
        "graphs.ged_within_calls": len(pruned),
        "graphs.ged_within.pruned_frac": sum(pruned) / len(pruned) if pruned else 0.0,
        "graphs.kmeans_ged_s": total("graphs/kmeans_ged"),
        "graphs.elbow_k_s": total("graphs/elbow_k"),
        "graphs.assign_with_spark_s": total("graphs/assign_with_spark"),
        "graphs.nearest_center_calls": len(idx("graphs/nearest_center")),
        "baselines.zerotune.cost_model_fit_s": total("baselines/zerotune_fit"),
    }
    for kind in ("spark", "local"):
        rows = sum(spans[i].tags["rows"] for i in idx(f"history/{kind}"))
        t = total(f"history/{kind}")
        m[f"history.{kind}.deployments_per_s"] = rows / t if t else 0.0
    for b in ("ds2", "conttune", "zerotune"):
        m[f"baselines.{b}.tune_calls"] = len(idx(f"baselines/{b}_tune"))
        m[f"baselines.{b}.tune_s"] = total(f"baselines/{b}_tune")
    for meth in METHODS:
        runs = [i for i in idx("tables/run_pattern") if spans[i].tags["method"] == meth]
        m[f"tables.run_pattern_s_per_job.{meth}"] = (
            float(sum(spans[i].dur for i in runs)) / len(runs) if runs else 0.0
        )
    if set(m) != set(UNITS):
        raise KeyError(f"per-layer metrics out of sync: {set(m) ^ set(UNITS)}")
    return m
