"""Steady-state dataflow execution simulator.

This is the stand-in for the paper's Flink / Timely testbeds (see
DESIGN.md §1 for the substitution argument). It models, per deployment of
a logical DAG with a parallelism vector and source rates:

* **Processing ability** ``PA(op, p) = unit_rate(op) · p / (1 + κ·(p−1))``
  — monotone increasing and sub-linear in ``p`` (the shape of the paper's
  Fig. 4; the reason DS2's linearity assumption drifts and StreamTune's
  monotonic constraint is sound). ``unit_rate`` derives from the operator
  type's base rate and the static features of Table I (tuple width,
  window length/policy/slide), so the cost is a function of exactly the
  features the GNN observes.
* **Rate propagation** in topological order with operator selectivities.
* **Backpressure (Flink)**: if any operator's offered input exceeds its
  PA, sources are throttled by the binding factor α and every ancestor of
  a bottleneck-cause operator accrues backpressured time ``1 − α``. An
  operator is *detected* as backpressured when that fraction exceeds 10 %
  (the paper's Flink rule); job-level backpressure is any detection.
* **No backpressure (Timely)**: sources never throttle; an operator whose
  PA is below 85 % of its offered input is a bottleneck (the paper's
  Timely rule) and its queue deficit propagates as reduced output.
* **Measurement noise** on the observed busy fraction / CPU — the
  "useful time is intricate to measure" effect that the paper blames for
  DS2's and ContTune's mis-provisioning. Timely additionally inflates
  observed busy time because its non-blocking operators spin.

Everything is deterministic in ``(dag, parallelism, rates, seed)``.
"""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.dag import DataflowDAG

#: Base processing rate (records/s at parallelism 1, tuple width 1, no
#: window) per operator type on the Flink-like engine. Sources/sinks are
#: effectively unbounded — the paper tunes neither.
BASE_RATE: dict[str, float] = {
    "source": float("inf"),
    "map": 400_000.0,
    "filter": 600_000.0,
    "flatmap": 300_000.0,
    "join": 150_000.0,
    "window_join": 100_000.0,
    "window_agg": 120_000.0,
    "aggregate": 250_000.0,
    "sink": 50_000_000.0,
}

#: Scaling friction κ per type: stateful operators pay more coordination
#: overhead per extra task, so PA is more sub-linear for them.
KAPPA: dict[str, float] = {
    "source": 0.0,
    "map": 0.01,
    "filter": 0.01,
    "flatmap": 0.01,
    "join": 0.02,
    "window_join": 0.025,
    "window_agg": 0.02,
    "aggregate": 0.015,
    "sink": 0.0,
}

#: Default operator selectivities by type, used when the Operator does not
#: carry an explicit one (Operator.selectivity defaults to 1.0 and the
#: workload catalogue sets realistic values).
TIMELY_SPEEDUP = 40.0  # native Rust workers vs JVM task slots

#: Fraction of Flink backpressured time above which an operator is
#: *detected* as backpressured (paper §V-B).
FLINK_BP_DETECT = 0.10
#: Timely bottleneck rule: PA below this fraction of offered input.
TIMELY_DEFICIT = 0.85
#: Std-dev of the multiplicative noise on observed busy/CPU fractions.
BUSY_NOISE_STD = 0.03
#: Parameters of the per-(job, operator) *systematic* useful-time
#: measurement error: mean/sd of the multiplicative bias on observed
#: busy time, clipped to [lo, hi]. The paper: "accurately measuring
#: useful time ... is intricate in real-world dataflow executions and
#: may impact the accuracy of parallelism recommendations" (§V-C), and
#: §V-E: overestimating processing ability (busy under-reported) causes
#: insufficient parallelism → backpressure, while underestimating it
#: causes excessive parallelism → waste. The bias is deterministic per
#: (job, op) — a property of that operator's code path — positive on
#: average (waste) with a negative tail (backpressure), larger for
#: stateful/windowed operators. Methods deriving PA from useful time
#: (DS2, ContTune) inherit it; StreamTune never reads it.
_STATEFUL = ("join", "window_join", "window_agg", "aggregate")
USEFUL_TIME_BIAS_PARAMS = {
    "stateful": (0.08, 0.06, -0.04, 0.25),
    "stateless": (0.04, 0.03, -0.02, 0.12),
}


def useful_time_bias(dag_name: str, op) -> float:
    """Deterministic systematic bias on the observed busy fraction for
    one operator of one job."""
    if op.op_type in ("source", "sink"):
        return 0.0
    kind = "stateful" if op.op_type in _STATEFUL else "stateless"
    mean, sd, lo, hi = USEFUL_TIME_BIAS_PARAMS[kind]
    rng = np.random.default_rng(
        zlib.crc32(f"bias|{dag_name}|{op.op_id}".encode())
    )
    return float(np.clip(rng.normal(mean, sd), lo, hi))
#: Deployment-level jitter on true operator rates (system variance).
RATE_JITTER_STD = 0.015
#: Fraction of idle time that Timely's spinning workers report as busy.
TIMELY_SPIN = 0.85


def unit_rate(op, system: str = "flink") -> float:
    """Records/s one parallel instance of ``op`` sustains (its PA at p=1).

    Cost grows with tuple width and window size — all Table I features —
    so the learned models can in principle recover it.
    """
    r = BASE_RATE[op.op_type]
    if not np.isfinite(r):
        return r
    if system == "timely":
        r *= TIMELY_SPEEDUP
    r /= max(0.001, op.tuple_width_in)  # width = relative per-record cost
    if op.window_type != "none":
        if op.window_policy == "time":
            r /= 1.0 + op.window_length / 30.0
        elif op.window_policy == "count":
            r /= 1.0 + op.window_length / 5000.0
        if op.window_type == "sliding" and op.sliding_length > 0:
            overlap = min(op.window_length / op.sliding_length - 1.0, 10.0)
            r /= 1.0 + 0.3 * max(0.0, overlap)
    return r


def processing_ability(op, p: int, system: str = "flink", jitter: float = 1.0) -> float:
    """PA(op, p): monotone, sub-linear in p (Fig. 4's empirical shape)."""
    if p < 1:
        raise ValueError(f"parallelism must be >=1, got {p}")
    u = unit_rate(op, system)
    if not np.isfinite(u):
        return u
    k = KAPPA[op.op_type]
    return u * jitter * p / (1.0 + k * (p - 1))


@dataclass
class OpMetrics:
    """Per-operator steady-state metrics for one deployment."""

    op_id: str
    parallelism: int
    input_rate: float
    processed_rate: float
    output_rate: float
    pa: float
    busy: float  # true busy fraction (= CPU utilisation)
    backpressured: float  # true backpressured-time fraction
    idle: float
    is_bottleneck_cause: bool  # offered input exceeds PA
    under_backpressure: bool  # detected (Flink 10 % rule / Timely 85 % rule)
    observed_busy: float  # noisy measurement the tuners see
    observed_cpu: float
    observed_rate: float


@dataclass
class SimResult:
    """One deployment's outcome: per-op metrics + job-level flags."""

    dag_name: str
    system: str
    metrics: dict[str, OpMetrics]
    job_backpressure: bool
    throttle: float  # α: fraction of offered source rate actually admitted
    parallelism: dict[str, int] = field(default_factory=dict)


def _rng_for(dag: DataflowDAG, parallelism: dict[str, int], rates: dict[str, float], seed: int) -> np.random.Generator:
    payload = json.dumps(
        [dag.name, sorted(parallelism.items()), sorted(rates.items()), seed]
    ).encode()
    return np.random.default_rng(zlib.crc32(payload))


def _propagate(
    dag: DataflowDAG,
    parallelism: dict[str, int],
    rates: dict[str, float],
    system: str,
    jitters: dict[str, float],
) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """Topological rate propagation with every operator's processed rate
    capped at its PA — queues (Timely) or per-channel flow control
    (Flink) absorb the excess, so no operator ever *processes* beyond
    capacity and downstream operators see the reduced output.
    Returns (input_rate, processed_rate, pa) per operator.
    """
    inp: dict[str, float] = {}
    processed: dict[str, float] = {}
    out: dict[str, float] = {}
    pa: dict[str, float] = {}
    for oid in dag.topological_order():
        op = dag.op(oid)
        p = parallelism.get(oid, 1)
        pa[oid] = processing_ability(op, p, system, jitters.get(oid, 1.0))
        if op.op_type == "source":
            r = rates[dag.sources[oid]]
            inp[oid] = r
            processed[oid] = r
            out[oid] = r
        else:
            r = sum(out[u] for u in dag.upstream(oid))
            inp[oid] = r
            processed[oid] = min(r, pa[oid])
            out[oid] = processed[oid] * op.selectivity
    return inp, processed, pa


def simulate(
    dag: DataflowDAG,
    parallelism: dict[str, int],
    source_rates: dict[str, float],
    *,
    system: str = "flink",
    seed: int = 0,
) -> SimResult:
    """Deploy ``dag`` with ``parallelism`` under ``source_rates`` and
    return steady-state metrics. Pure and deterministic."""
    if system not in ("flink", "timely"):
        raise ValueError(f"unknown system {system!r}")
    missing = set(dag.sources.values()) - set(source_rates)
    if missing:
        raise ValueError(f"missing source rates for {sorted(missing)}")
    for oid in dag.tunable_operators():
        if parallelism.get(oid, 1) < 1:
            raise ValueError(f"parallelism for {oid} must be >=1")
    rng = _rng_for(dag, parallelism, source_rates, seed)
    jitters = {
        o.op_id: float(np.clip(1.0 + rng.normal(0, RATE_JITTER_STD), 0.92, 1.08))
        for o in dag.operators
    }

    # Pass 1 — offered (unthrottled) rates: identifies bottleneck causes.
    inp, processed, pa = _propagate(dag, parallelism, source_rates, system, jitters)
    causes = {
        oid
        for oid in inp
        if np.isfinite(pa[oid]) and inp[oid] > pa[oid] * (1.0 + 1e-9)
    }

    alpha = 1.0
    if system == "flink" and causes:
        # Global source throttle α so the binding bottleneck runs at PA.
        alpha = float(min(1.0, min(pa[oid] / inp[oid] for oid in causes if inp[oid] > 0)))

    if alpha < 1.0:
        t_rates = {k: v * alpha for k, v in source_rates.items()}
        inp_t, processed_t, _ = _propagate(dag, parallelism, t_rates, system, jitters)
    else:
        inp_t, processed_t = inp, processed

    bp_ancestors: set[str] = set()
    for c in causes:
        bp_ancestors |= dag.ancestors(c)

    metrics: dict[str, OpMetrics] = {}
    job_bp = False
    for oid in dag.topological_order():
        op = dag.op(oid)
        p = parallelism.get(oid, 1)
        cap = pa[oid]
        busy = 0.0 if not np.isfinite(cap) or cap <= 0 else min(1.0, inp_t[oid] / cap)
        # α = 1 (always so on Timely) leaves no backpressured time.
        bp_frac = min((1.0 - alpha) if oid in bp_ancestors else 0.0, 1.0 - busy)
        idle = max(0.0, 1.0 - busy - bp_frac)
        if system == "flink":
            detected = bp_frac > FLINK_BP_DETECT
            obs_busy = busy * (1.0 + useful_time_bias(dag.name, op))
        else:
            detected = np.isfinite(cap) and cap < TIMELY_DEFICIT * inp_t[oid]
            obs_busy = busy + TIMELY_SPIN * idle  # spinning looks busy
        obs_busy = float(np.clip(obs_busy * (1.0 + rng.normal(0, BUSY_NOISE_STD)), 1e-6, 1.0))
        obs_cpu = float(np.clip(busy * (1.0 + rng.normal(0, BUSY_NOISE_STD)), 0.0, 1.0))
        obs_rate = float(processed_t[oid] * (1.0 + rng.normal(0, 0.01)))
        m = OpMetrics(
            op_id=oid,
            parallelism=p,
            input_rate=float(inp_t[oid]),
            processed_rate=float(processed_t[oid]),
            output_rate=float(processed_t[oid] * op.selectivity)
            if op.op_type != "source"
            else float(inp_t[oid]),
            pa=float(cap) if np.isfinite(cap) else float("inf"),
            busy=busy,
            backpressured=bp_frac,
            idle=idle,
            is_bottleneck_cause=oid in causes,
            under_backpressure=bool(detected),
            observed_busy=obs_busy,
            observed_cpu=obs_cpu,
            observed_rate=obs_rate,
        )
        metrics[oid] = m
        job_bp = job_bp or bool(detected)
    return SimResult(
        dag_name=dag.name,
        system=system,
        metrics=metrics,
        job_backpressure=job_bp,
        throttle=alpha,
        parallelism=dict(parallelism),
    )


def epoch_latencies(
    dag: DataflowDAG,
    parallelism: dict[str, int],
    source_rates: dict[str, float],
    *,
    n_epochs: int = 100,
    seed: int = 0,
) -> np.ndarray:
    """Per-epoch latencies on the Timely-like engine (paper Fig. 8b–d).

    An epoch is one second of source data. If every operator keeps up
    (utilisation ρ ≤ 1) latency is a jittered function of the peak
    utilisation; otherwise backlog accumulates and latency grows linearly
    across epochs — the signature of an under-provisioned Timely job.
    """
    res = simulate(dag, parallelism, source_rates, system="timely", seed=seed)
    rho = max(
        (m.input_rate / m.pa)
        for m in res.metrics.values()
        if np.isfinite(m.pa) and m.pa > 0
    )
    rng = _rng_for(dag, parallelism, source_rates, seed + 1)
    base = 0.05 + 0.25 * rho
    lat = np.empty(n_epochs)
    backlog = 0.0
    for e in range(n_epochs):
        if rho > 1.0:
            backlog += (rho - 1.0) / rho
        lat[e] = base + backlog + abs(rng.normal(0, 0.02))
    return lat
