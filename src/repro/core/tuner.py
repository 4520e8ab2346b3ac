"""Online fine-tuning and parallelism recommendation — Algorithm 2.

One :class:`StreamTuneTuner` is attached to a target streaming job. At
construction it routes the job's DAG to its nearest GED cluster and
retrieves the frozen pre-trained encoder. T is the cluster's warm-up
dataset plus the job's own feedback ΔT. The warm-up set belongs to the
cluster, not to the job: :class:`StreamTune` builds it, and the first
model M_f⁰ fit to it, once per cluster for every tuner it makes, and a
tuner keeps only ΔT. Each call to :meth:`tune` reacts to a source-rate
change:

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

from repro.core.bottleneck import label_operators, on_edge, saturated_ops
from repro.core.monotonic import make_model, min_safe_parallelism
from repro.core.pretrain import PretrainedBundle, op_vectors
from repro.sim.engine import SimResult, simulate
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


class Deployer:
    """A tuner's only call to the engine. The n-th deployment (n from 1)
    runs with seed ``seed + stride·n``: every method deploys on the same
    simulated system, each with its own jitter stream."""

    def __init__(self, wl: Workload, seed: int, stride: int) -> None:
        self.wl, self.seed, self.stride = wl, seed, stride
        self.n = 0

    def __call__(self, par: dict[str, int], rates: dict[str, float]) -> SimResult:
        self.n += 1
        seed = self.seed + self.stride * self.n
        return simulate(self.wl.dag, par, rates, system=self.wl.system, seed=seed)


class TuningProcess:
    """One tuning process through ``deploy(par, rates)`` and its outcome:
    the deployed parallelism and the two counts the methods are compared
    by — reconfigurations (Fig. 7a) and backpressure events (Table III)."""

    def __init__(self, deploy, current: dict[str, int], rates: dict[str, float]) -> None:
        self.deploy, self.rates = deploy, rates
        self.par = dict(current)
        self.n_reconfigs = self.backpressure_events = 0

    def changes(self, target: dict[str, int]) -> bool:
        """True when ``target`` changes a degree (an undeployed one is 1)."""
        return any(target[o] != self.par.get(o, 1) for o in target)

    def to(self, target: dict[str, int]) -> SimResult:
        """Deploy ``par | target``: a reconfiguration if it changes a degree,
        a backpressure event (even if unchanged) if the job backpressures."""
        self.n_reconfigs += self.changes(target)
        self.par = self.par | target
        res = self.deploy(self.par, self.rates)
        if res.job_backpressure:
            self.backpressure_events += 1
        return res

    def finish(self, ops, converged: bool = True) -> TuningProcess:
        """Fix the outcome over operators ``ops``; returns the process."""
        self.final_parallelism = {o: self.par.get(o, 1) for o in ops}
        self.converged = converged
        return self


@dataclass
class _AtRate:
    """What StreamTune has learnt at one source-rate vector."""

    #: the verified-safe minimal configuration, once one is found
    safe: dict[str, int] | None = None
    #: highest parallelism observed to bottleneck, per op: monotonicity
    #: makes anything at or below it unsafe
    floor: dict[str, int] = field(default_factory=dict)
    visits: int = 0
    #: visits left in the trim cooldown
    cooldown: int = 0


def _fit(kind: str, seed: int, h, p, y, w):
    """M_f of ``kind`` fit to the freshest ``MAX_HISTORY`` points of
    T = (h, p, y) with sample weights ``w``, or None when T holds fewer
    than two classes."""
    if len(np.unique(y)) < 2:
        return None
    h, p, y, w = h[-MAX_HISTORY:], p[-MAX_HISTORY:], y[-MAX_HISTORY:], w[-MAX_HISTORY:]
    return make_model(kind, d=h.shape[1], seed=seed).fit(h, p, y, sample_weight=w)


class StreamTune:
    """StreamTune on one pre-trained bundle with one seed: it makes the
    tuners and owns what they share. A cluster's warm start depends only
    on the bundle, the cluster and the seed, so it is built once, for the
    first tuner routed to it, and handed to every later one."""

    def __init__(self, bundle: PretrainedBundle, seed: int) -> None:
        self.bundle, self.seed = bundle, seed
        self._warm: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._first: dict[tuple[int, str], object] = {}

    def tuner(self, workload: Workload, model_kind: str) -> StreamTuneTuner:
        """A tuner for ``workload`` whose fine-tune model is ``model_kind``."""
        return StreamTuneTuner(self, workload, model_kind)

    def warm_start(self, cluster: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cluster's warm-up points ``(h, p, y)`` drawn from its
        history (Alg. 2, line 3), built on first use."""
        if cluster not in self._warm:
            self._warm[cluster] = self.bundle.warmup_dataset(cluster, max_points=WARM_POINTS, seed=self.seed)
        return self._warm[cluster]

    def first_model(self, cluster: int, kind: str):
        """M_f⁰ of ``kind``: fit to the cluster's warm-up points alone
        (None where they hold one class), on first use."""
        if (cluster, kind) not in self._first:
            h, p, y = self.warm_start(cluster)
            self._first[cluster, kind] = _fit(kind, self.seed, h, p, y, np.ones(len(y)))
        return self._first[cluster, kind]


class StreamTuneTuner:
    """Algorithm 2 against the simulated engine; made by :meth:`StreamTune.tuner`."""

    def __init__(self, owner: StreamTune, workload: Workload, model_kind: str) -> None:
        self.bundle = owner.bundle
        self.wl = workload
        self.model_kind = model_kind
        self.seed = owner.seed
        self.cluster = self.bundle.cluster_for(workload.dag)  # Alg. 2, line 1
        self.enc = self.bundle.encoders[self.cluster]  # line 2
        self._owner = owner
        self._warm = owner.warm_start(self.cluster)  # line 3, shared
        #: ΔT: this job's feedback points (h, p, y), oldest first
        self._fb: list[tuple[np.ndarray, float, int]] = []
        self._rates: dict[tuple, _AtRate] = {}
        self._deployer = Deployer(workload, self.seed, 7919)
        #: Model cache: refit only when ΔT has grown meaningfully.
        self._model = None
        self._fitted_at = -1

    # -- helpers -----------------------------------------------------------
    def _fit_model(self):
        """Fit M_f (monotone) to T = warm-up points + ΔT (Alg. 2, line 5),
        weighting warm-up points 1 and feedback ``FEEDBACK_WEIGHT``.
        Cached between calls until enough new feedback accumulates; while
        ΔT is empty, M_f is the cluster's shared M_f⁰."""
        n = len(self._fb)
        if self._model is not None and n - self._fitted_at < REFIT_MIN_NEW:
            return self._model
        if not self._fb:
            self._model = self._owner.first_model(self.cluster, self.model_kind)
        else:
            (h, p, y), (fh, fp, fy) = self._warm, zip(*self._fb)
            w = np.concatenate([np.ones(len(y)), np.full(n, FEEDBACK_WEIGHT)])
            self._model = _fit(self.model_kind, self.seed, np.vstack([h, *fh]),
                               np.concatenate([p, fp]), np.concatenate([y, fy]), w)
        self._fitted_at = n
        return self._model

    def _embeddings(self, rates: dict[str, float]) -> dict[str, np.ndarray]:
        """Parallelism-agnostic operator vectors for the target DAG under
        the *new* source rates (Alg. 2, line 7)."""
        order, vecs = op_vectors(
            self.enc, self.bundle.feature_encoder, self.wl.dag, rates
        )
        return {oid: vecs[i] for i, oid in enumerate(order)}

    def _collect_feedback(self, result, emb, floor: dict[str, int]) -> None:
        """ΔT from the deployed configuration (Alg. 2, lines 10–11), and
        the rate's unsafe ``floor`` raised where an operator bottlenecked.

        Beyond Algorithm 1's labels, operators observed at CPU
        saturation (> 98 %) while the sources are throttled are recorded
        as incipient bottlenecks even when backpressure is still below
        the 10 % detection cut-off — these near-edge positives teach M_f
        the true capacity boundary, not merely the detection boundary.
        The rule is :func:`saturated_ops`, the same one that labels the
        offline history."""
        labels = label_operators(self.wl.dag, result)
        fe = self.bundle.feature_encoder
        sat = saturated_ops(self.wl.dag, result)
        for oid, lab in labels.items():
            p_now = int(result.parallelism.get(oid, 1))
            saturated = oid in sat
            if lab < 0 and not saturated:
                continue
            eff = 1 if (lab == 1 or saturated) else 0
            self._fb.append((emb[oid], float(fe.scale_parallelism(p_now)), eff))
            if lab == 1:
                floor[oid] = max(floor.get(oid, 0), p_now)
            elif saturated:  # workable but marginal: never trim below it
                floor[oid] = max(floor.get(oid, 0), p_now - 1)

    def _recommend(self, emb, model, threshold: float) -> dict[str, int] | None:
        """Minimum safe parallelism per operator (Alg. 2, lines 6–8); M_f
        is fixed for the pass, so operator order changes no result."""
        if model is None:
            return None
        fe = self.bundle.feature_encoder
        return {
            o: min_safe_parallelism(model, emb[o], self.wl.p_max, fe.scale_parallelism, threshold=threshold)
            for o in self.wl.dag.tunable_operators()
        }

    @staticmethod
    def _rate_key(rates: dict[str, float]) -> tuple:
        return tuple(sorted((k, round(v, 6)) for k, v in rates.items()))

    def _transferred(self, key: tuple) -> tuple[dict[str, int], dict[str, int]]:
        """What monotonicity carries across rates to ``key``: the unsafe
        floor (a degree that bottlenecked under lower-or-equal rates is
        unsafe now) and the safe cap (a configuration verified safe under
        other, higher-or-equal rates is safe now — never exceed it)."""
        floor: dict[str, int] = {}
        cap: dict[str, int] = {}
        for k, at in self._rates.items():
            if all(x[1] >= y[1] for x, y in zip(key, k)):
                for o, p in at.floor.items():
                    floor[o] = max(floor.get(o, 0), p)
            if k != key and at.safe and all(x[1] <= y[1] for x, y in zip(key, k)):
                for o, p in at.safe.items():
                    cap[o] = min(cap.get(o, p), p)
        return floor, cap

    # -- the tuning process --------------------------------------------------
    def tune(
        self, current: dict[str, int], rates: dict[str, float]
    ) -> TuningProcess:
        """One tuning process for a source-rate change.

        Seen rate (repeats in the periodic pattern): redeploy the
        memoised verified-safe minimal configuration, then attempt one
        model-guided trim under a stricter threshold — "learning from the
        past" at the job level. Unseen rate: Algorithm 2 with a
        conservative first shot (margin on top of the monotone model's
        boundary) that escalates while backpressure persists, then a
        guarded trim once the job is healthy. Every deployment's feedback
        goes to T and to this rate's record.
        """
        emb = self._embeddings(rates)
        key = self._rate_key(rates)
        at = self._rates.setdefault(key, _AtRate())
        dag = self.wl.dag
        ops = dag.tunable_operators()

        def deploy(par, r):
            res = self._deployer(par, r)
            self._collect_feedback(res, emb, at.floor)
            return res

        proc = TuningProcess(deploy, current, rates)

        def harden(res):
            """Bump operators at near-saturated observed CPU until off the edge."""
            r = res
            for _ in range(3):
                if not on_edge(dag, r):
                    return r
                bumps = {
                    o: min(self.wl.p_max, proc.par[o] + max(1, int(0.05 * proc.par[o])))
                    for o, m in r.metrics.items()
                    if o in proc.par and m.observed_cpu > 0.9
                }
                if not bumps:
                    return r
                r = proc.to(bumps)
            return r

        def try_trim(res):
            """Model-guided downscale, bounded to small verified steps: at
            most max(1, 10 %) per operator per visit, at least two above
            any parallelism already observed to bottleneck at this rate,
            and paused for TRIM_COOLDOWN_VISITS visits at a rate where a
            trim failed. A trim that lands on the detection edge is reverted."""
            if at.cooldown > 0:
                at.cooldown -= 1
                return res
            # Trim on alternating visits only: halves reconfiguration
            # overhead while the 12 visits per rate in the full pattern
            # still give ample descent opportunities.
            at.visits += 1
            if at.visits % 2 == 0:
                return res
            model = self._fit_model()
            rec = self._recommend(emb, model, TRIM_THRESHOLD)
            if rec is None:
                return res
            # Trust gate: where the neutral (0.5) and conservative
            # boundaries disagree, the model is uncertain about this
            # operator — trim no lower than the conservative one.
            rec_cons = self._recommend(emb, model, SAFE_THRESHOLD)
            floors = self._transferred(key)[0]
            par = proc.par
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
                res2 = proc.to(stepped)
                if on_edge(dag, res2):
                    at.cooldown = TRIM_COOLDOWN_VISITS
                    res2 = proc.to(safe)
                return res2 if not on_edge(dag, res2) else res
            return res

        def settle(res) -> TuningProcess:
            """Harden a healthy deployment, trim it once off the edge, and
            memoise the outcome if it stays off the edge."""
            res = harden(res)
            if not on_edge(dag, res):
                res = try_trim(res)
            proc.finish(ops)
            if not on_edge(dag, res):
                at.safe = dict(proc.final_parallelism)
            return proc

        if at.safe is not None:
            return settle(proc.to(at.safe))

        margin = FIRST_SHOT_MARGIN
        for _ in range(MAX_ITERS):
            model = self._fit_model()
            rec = self._recommend(emb, model, SAFE_THRESHOLD)
            floors, caps = self._transferred(key)
            if rec is None:
                rec = {o: proc.par.get(o, 1) for o in ops}
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
            res = proc.to(rec)
            if not res.job_backpressure:
                return settle(res)
            margin *= 1.2  # escalate conservatism while unhealthy
        return proc.finish(ops, converged=False)  # backpressured: not memoised


@dataclass
class PatternRunStats:
    """Aggregates over a whole periodic source-rate pattern."""

    job: str
    method: str
    #: reconfigurations of each tuning process, in pattern order
    reconfigs: list[int] = field(default_factory=list)
    total_backpressure: int = 0
    #: the parallelism vector reached at each multiplier (last visit)
    parallelism_at: dict[int, dict[str, int]] = field(default_factory=dict)

    @property
    def n_processes(self) -> int:
        return len(self.reconfigs)

    @property
    def total_reconfigs(self) -> int:
        return sum(self.reconfigs)

    @property
    def avg_reconfigs(self) -> float:
        return self.total_reconfigs / max(1, self.n_processes)

    @property
    def tuning_minutes(self) -> list[float]:
        """Virtual time of each process: one stabilisation wait per reconfiguration."""
        return [n * STABILISATION_MINUTES for n in self.reconfigs]

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
        stats.reconfigs.append(out.n_reconfigs)
        stats.total_backpressure += out.backpressure_events
        stats.parallelism_at[mult] = par
    return stats
