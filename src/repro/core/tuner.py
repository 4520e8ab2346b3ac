"""Online fine-tuning and parallelism recommendation — Algorithm 2.

One :class:`StreamTuneTuner` is attached to a target streaming job. At
construction it routes the job's DAG to its nearest GED cluster,
retrieves the frozen pre-trained encoder, and builds the warm-up
dataset. Each call to :meth:`tune` reacts to a source-rate change:

  do:
    fit the monotone model M_f to T;
    for each operator v in topological order:
        h_v  = parallelism-agnostic embedding from the frozen encoder;
        p_v  = min{p ≤ p_max | M_f(h_v, p) = 0}      (one batched scan);
    redeploy with {p_v}; collect bottleneck labels ΔT; T ← T ∪ ΔT;
  while backpressure persists or the recommendation changed;

Only M_f is refit online; the GNN encoder stays frozen (paper §III).
A virtual clock charges the paper's 10-minute stabilisation wait per
reconfiguration so tuning times are comparable with Fig. 7b.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bottleneck import label_operators, saturated_ops
from repro.core.monotonic import make_model, min_safe_parallelism
from repro.core.pretrain import PretrainedBundle, op_vectors
from repro.sim.engine import simulate
from repro.sim.workloads import Workload

#: Paper §V-A: "a 10-minute wait is enforced between reconfigurations".
STABILISATION_MINUTES = 10.0

#: Decision threshold on P(bottleneck): below 0.5 it adds a conservative
#: margin so the *first* deployment is already backpressure-free (how the
#: paper's StreamTune achieves the all-zero row of Table III).
SAFE_THRESHOLD = 0.35
#: Neutral threshold for trim targets — the conservative margin is
#: supplied by the explicit +1 stop above the boundary instead.
TRIM_THRESHOLD = 0.5
#: Deployments at an unseen rate before the tuning process gives up.
MAX_ITERS = 8
#: Warm-up points drawn from the cluster's history (Alg. 2, line 3).
WARM_POINTS = 1800
#: M_f is fit to the freshest points of T only.
MAX_HISTORY = 2500
#: Online feedback is job-specific ground truth — weight it above the
#: warm-up points so ΔT corrections dominate quickly.
FEEDBACK_WEIGHT = 5.0
#: Multiplier on the first recommendation at a never-seen rate — the
#: conservative slack that keeps the first deployment backpressure-free
#: before job-specific feedback exists.
FIRST_SHOT_MARGIN = 1.25
#: Safety band over the model boundary. Labels encode the *10 % detection*
#: boundary (deployments inside the grace region are labelled 0), so
#: deploying exactly at the learned boundary is a coin flip against engine
#: jitter; the band keeps StreamTune on the safe side of it.
SAFETY = 1.10
#: A failed trim pauses trimming at that rate for this many visits (the
#: model needs fresh feedback before another attempt), rather than forever.
TRIM_COOLDOWN_VISITS = 2
#: M_f is refit only once T has grown by this many points.
REFIT_MIN_NEW = 12


@dataclass
class TuneProcessResult:
    """Outcome of one tuning process (one source-rate change)."""

    final_parallelism: dict[str, int]
    n_reconfigs: int
    backpressure_events: int
    converged: bool = True

    @property
    def total_parallelism(self) -> int:
        return int(sum(self.final_parallelism.values()))

    @property
    def tuning_minutes(self) -> float:
        """Virtual tuning time: one stabilisation wait per reconfiguration."""
        return self.n_reconfigs * STABILISATION_MINUTES


class StreamTuneTuner:
    """Algorithm 2 against the simulated engine."""

    def __init__(
        self,
        bundle: PretrainedBundle,
        workload: Workload,
        *,
        model_kind: str = "svm",
        seed: int = 0,
    ) -> None:
        self.bundle = bundle
        self.wl = workload
        self.model_kind = model_kind
        self.seed = seed
        self.cluster = bundle.cluster_for(workload.dag)  # Alg. 2, line 1
        self.enc = bundle.encoders[self.cluster]  # line 2
        h, p, y = bundle.warmup_dataset(self.cluster, max_points=WARM_POINTS, seed=seed)  # line 3
        self._h: list[np.ndarray] = list(h)
        self._p: list[float] = list(np.asarray(p))
        self._y: list[int] = list(np.asarray(y))
        #: sample weights: 1 per warm-up point, FEEDBACK_WEIGHT per ΔT point
        self._w: list[float] = [1.0] * len(self._y)
        self._visit_count: dict[tuple, int] = {}
        #: Verified-safe minimal configuration per rate vector.
        self._memo: dict[tuple, dict[str, int]] = {}
        #: Highest parallelism observed to bottleneck, per (rate, op):
        #: monotonicity makes anything at or below it unsafe.
        self._unsafe_floor: dict[tuple, dict[str, int]] = {}
        #: Visits left in the trim cooldown, per rate key.
        self._trim_cooldown: dict[tuple, int] = {}
        self._deploy_counter = 0
        #: Model cache: refit only when T has grown meaningfully.
        self._model = None
        self._fitted_at = -1

    # -- helpers -----------------------------------------------------------
    def _fit_model(self):
        """Fit M_f (monotone) to the current dataset T (Alg. 2, line 5).
        Cached between calls until enough new feedback accumulates."""
        y = np.asarray(self._y)
        if len(y) == 0 or len(np.unique(y)) < 2:
            return None  # degenerate T: keep current parallelism
        if self._model is not None and len(y) - self._fitted_at < REFIT_MIN_NEW:
            return self._model
        h = np.vstack(self._h)
        p = np.asarray(self._p)
        w = np.asarray(self._w)
        if len(y) > MAX_HISTORY:  # keep the freshest feedback
            h, p, y, w = h[-MAX_HISTORY:], p[-MAX_HISTORY:], y[-MAX_HISTORY:], w[-MAX_HISTORY:]
        model = make_model(self.model_kind, d=h.shape[1], seed=self.seed)
        self._model = model.fit(h, p, y, sample_weight=w)
        self._fitted_at = len(self._y)
        return self._model

    def _embeddings(self, rates: dict[str, float]) -> dict[str, np.ndarray]:
        """Parallelism-agnostic operator vectors for the target DAG under
        the *new* source rates (Alg. 2, line 7)."""
        order, vecs = op_vectors(
            self.enc, self.bundle.feature_encoder, self.wl.dag, rates
        )
        return {oid: vecs[i] for i, oid in enumerate(order)}

    def _collect_feedback(self, rates: dict[str, float], result, emb) -> None:
        """ΔT from the deployed configuration (Alg. 2, lines 10–11).

        Beyond Algorithm 1's labels, operators observed at CPU
        saturation (> 98 %) while the sources are throttled are recorded
        as incipient bottlenecks even when backpressure is still below
        the 10 % detection cut-off — these near-edge positives teach M_f
        the true capacity boundary, not merely the detection boundary.
        The rule is :func:`saturated_ops`, the same one that labels the
        offline history."""
        labels = label_operators(self.wl.dag, result)
        fe = self.bundle.feature_encoder
        key = self._rate_key(rates)
        sat = saturated_ops(self.wl.dag, result)
        for oid, lab in labels.items():
            p_now = int(result.parallelism.get(oid, 1))
            saturated = oid in sat
            if lab < 0 and not saturated:
                continue
            eff = 1 if (lab == 1 or saturated) else 0
            self._h.append(emb[oid])
            self._p.append(float(fe.scale_parallelism(p_now)))
            self._y.append(eff)
            self._w.append(FEEDBACK_WEIGHT)
            floors = self._unsafe_floor.setdefault(key, {})
            if lab == 1:
                floors[oid] = max(floors.get(oid, 0), p_now)
            elif saturated:  # workable but marginal: never trim below it
                floors[oid] = max(floors.get(oid, 0), p_now - 1)

    def _recommend(self, emb, model, threshold: float) -> dict[str, int] | None:
        """Minimum safe parallelism per operator in topological order
        (Alg. 2, lines 6–8)."""
        if model is None:
            return None
        fe = self.bundle.feature_encoder
        tunable = set(self.wl.dag.tunable_operators())
        rec: dict[str, int] = {}
        for oid in self.wl.dag.topological_order():  # line 6
            if oid in tunable:
                rec[oid] = min_safe_parallelism(  # line 8
                    model,
                    emb[oid],
                    self.wl.p_max,
                    fe.scale_parallelism,
                    threshold=threshold,
                )
        return rec

    def _deploy(self, par: dict[str, int], rates, emb):
        self._deploy_counter += 1
        res = simulate(
            self.wl.dag, par, rates, system=self.wl.system,
            seed=self.seed + 7919 * self._deploy_counter,
        )
        self._collect_feedback(rates, res, emb)
        return res

    @staticmethod
    def _rate_key(rates: dict[str, float]) -> tuple:
        return tuple(sorted((k, round(v, 6)) for k, v in rates.items()))

    @staticmethod
    def _dominates(a: tuple, b: tuple) -> bool:
        """True when rate vector a ≥ b elementwise (same sources)."""
        return all(x[1] >= y[1] for x, y in zip(a, b))

    def _transferred_floor(self, key: tuple) -> dict[str, int]:
        """Unsafe floors transfer monotonically across rates: a degree
        that bottlenecked under lower-or-equal rates is also unsafe now."""
        out: dict[str, int] = {}
        for k, floors in self._unsafe_floor.items():
            if self._dominates(key, k):
                for o, p in floors.items():
                    out[o] = max(out.get(o, 0), p)
        return out

    def _transferred_cap(self, key: tuple) -> dict[str, int]:
        """Safe caps transfer the other way: a configuration verified safe
        under higher-or-equal rates is safe now — never exceed it."""
        out: dict[str, int] = {}
        for k, conf in self._memo.items():
            if k != key and self._dominates(k, key):
                for o, p in conf.items():
                    out[o] = min(out.get(o, p), p)
        return out

    # -- the tuning process --------------------------------------------------
    def tune(
        self, current: dict[str, int], rates: dict[str, float]
    ) -> TuneProcessResult:
        """One tuning process for a source-rate change.

        Seen rate (repeats in the periodic pattern): redeploy the
        memoised verified-safe minimal configuration, then attempt one
        model-guided trim under a stricter threshold — "learning from the
        past" at the job level. Unseen rate: Algorithm 2 with a
        conservative first shot (margin on top of the monotone model's
        boundary) that escalates while backpressure persists, then a
        guarded trim once the job is healthy.
        """
        par = dict(current)
        reconfigs = 0
        bp_events = 0
        emb = self._embeddings(rates)
        key = self._rate_key(rates)

        def deploy_to(target: dict[str, int]):
            nonlocal reconfigs, bp_events, par
            changed = any(target[o] != par.get(o, 1) for o in target)
            par = dict(par) | dict(target)
            if changed:
                reconfigs += 1
            res = self._deploy(par, rates, emb)
            if res.job_backpressure:
                bp_events += 1
            return res, changed

        def at_edge(res) -> bool:
            """True when the deployment is healthy only by the grace of
            the detection threshold: some backpressured time exists (the
            raw metric is observable below the 10 % detection cut-off) or
            an operator is effectively saturated. Such configs flip to
            detected backpressure under engine jitter, so they are
            hardened rather than memoised as safe."""
            if res.job_backpressure:
                return True
            if self.wl.system == "flink":
                return res.throttle < 0.95
            return any(
                m.busy > 0.97
                for o, m in res.metrics.items()
                if self.wl.dag.op(o).op_type not in ("source", "sink")
            )

        def harden(res):
            """Bump saturated/bottleneck operators until off the edge."""
            r = res
            for _ in range(3):
                if not at_edge(r):
                    return r
                bumps = {
                    o: min(self.wl.p_max, par[o] + max(1, int(0.05 * par[o])))
                    for o, m in r.metrics.items()
                    if o in par and (m.is_bottleneck_cause or m.busy > 0.9)
                }
                if not bumps:
                    return r
                r, _ = deploy_to(bumps)
            return r

        def try_trim(res):
            """Model-guided downscale, bounded to small verified steps: at
            most max(1, 10 %) per operator per visit, at least two above
            any parallelism already observed to bottleneck at this rate,
            and paused for TRIM_COOLDOWN_VISITS visits at a rate where a
            trim failed. A trim that lands on the detection edge is reverted."""
            nonlocal par
            if self._trim_cooldown.get(key, 0) > 0:
                self._trim_cooldown[key] -= 1
                return res
            # Trim on alternating visits only: halves reconfiguration
            # overhead while the 12 visits per rate in the full pattern
            # still give ample descent opportunities.
            self._visit_count[key] = self._visit_count.get(key, 0) + 1
            if self._visit_count[key] % 2 == 0:
                return res
            model = self._fit_model()
            rec = self._recommend(emb, model, TRIM_THRESHOLD)
            if rec is None:
                return res
            # Trust gate: where the neutral (0.5) and conservative
            # boundaries disagree, the model is uncertain about this
            # operator — trim no lower than the conservative one.
            rec_cons = self._recommend(emb, model, SAFE_THRESHOLD)
            floors = self._transferred_floor(key)
            stepped: dict[str, int] = {}
            for o in rec:
                lo = max(1, floors.get(o, 0) + 2)
                # Stop one above the model boundary: the boundary itself
                # is the knife edge; bounded steps, unsafe floors and the
                # edge-revert below are the remaining guard rails.
                target = max(rec[o] + 1, rec_cons[o])
                step = max(1, int(0.10 * par[o]))
                stepped[o] = min(par[o], max(target, par[o] - step, lo))
            if any(stepped[o] < par[o] for o in stepped):
                safe = {o: par[o] for o in stepped}  # verified revert point
                res2, _ = deploy_to(stepped)
                if at_edge(res2):
                    self._trim_cooldown[key] = TRIM_COOLDOWN_VISITS
                    res2, _ = deploy_to(safe)
                return res2 if not at_edge(res2) else res
            return res

        def finish(res, converged=True):
            if not at_edge(res):
                self._memo[key] = {o: par[o] for o in self.wl.dag.tunable_operators()}
            return TuneProcessResult(
                final_parallelism={o: par[o] for o in self.wl.dag.tunable_operators()},
                n_reconfigs=reconfigs,
                backpressure_events=bp_events,
                converged=converged,
            )

        if key in self._memo:
            res, _ = deploy_to(self._memo[key])
            res = harden(res)
            if not at_edge(res):
                res = try_trim(res)
            return finish(res)

        margin = FIRST_SHOT_MARGIN
        for _ in range(MAX_ITERS):
            model = self._fit_model()
            rec = self._recommend(emb, model, SAFE_THRESHOLD)
            floors = self._transferred_floor(key)
            caps = self._transferred_cap(key)
            if rec is None:
                rec = {o: par.get(o, 1) for o in self.wl.dag.tunable_operators()}
            else:
                # +1 absolute slack: multiplicative margins are toothless
                # at small degrees (ceil(2 · 1.4) is still only 3). Floors
                # and caps transfer across rates by monotonicity.
                rec = {
                    o: int(
                        min(
                            self.wl.p_max,
                            max(
                                min(
                                    np.ceil(p * SAFETY * margin) + 1,
                                    caps.get(o, self.wl.p_max),
                                ),
                                floors.get(o, 0) + 1,
                            ),
                        )
                    )
                    for o, p in rec.items()
                }
            res, changed = deploy_to(rec)
            if res.job_backpressure:
                margin *= 1.2  # escalate conservatism while unhealthy
                continue
            res = harden(res)
            if not at_edge(res):
                res = try_trim(res)
            return finish(res)
        return finish(res, converged=False)


@dataclass
class PatternRunStats:
    """Aggregates over a whole periodic source-rate pattern."""

    job: str
    method: str
    n_processes: int = 0
    total_reconfigs: int = 0
    total_backpressure: int = 0
    #: the parallelism vector reached at each multiplier (last visit)
    parallelism_at: dict[int, dict[str, int]] = field(default_factory=dict)
    tuning_minutes: list[float] = field(default_factory=list)

    @property
    def avg_reconfigs(self) -> float:
        return self.total_reconfigs / max(1, self.n_processes)

    @property
    def final_parallelism_at(self) -> dict[int, int]:
        """Total parallelism reached at each multiplier (last visit)."""
        return {m: int(sum(par.values())) for m, par in self.parallelism_at.items()}


def run_pattern(
    tuner,
    workload: Workload,
    pattern: list[int],
    *,
    method_name: str = "streamtune",
) -> PatternRunStats:
    """Drive a tuner through a sequence of source-rate multipliers,
    carrying the deployed parallelism across changes (paper §V-C/D/E).
    Records the final parallelism vector and its total at each multiplier
    (Fig. 6 reads the 10×W_u total, Fig. 8 deploys the 10×W_u vector)."""
    stats = PatternRunStats(job=workload.name, method=method_name)
    par = {o: 1 for o in workload.dag.tunable_operators()}
    for mult in pattern:
        out = tuner.tune(par, workload.rates(mult))
        par = dict(out.final_parallelism)
        stats.n_processes += 1
        stats.total_reconfigs += out.n_reconfigs
        stats.total_backpressure += out.backpressure_events
        stats.parallelism_at[mult] = par
        stats.tuning_minutes.append(out.tuning_minutes)
    return stats
