"""DS2 (Kalavri et al., OSDI 2018) — the linear-scaling baseline.

DS2 observes each operator's *useful time* (busy fraction) and observed
processing rate, estimates the operator's true processing ability as
``rate / busy``, and — assuming PA is linear in parallelism — picks the
lowest degree that sustains the source rates propagated through the
DAG's static selectivities (:func:`repro.core.features.upstream_rates`):

    p* = ⌈ p_cur · target_input / true_rate ⌉

It iterates until the recommendation is a fixpoint (:func:`reactive_tune`,
the loop ContTune shares). Two realities of the simulated engine (and of
the paper's testbed) make DS2 imperfect: the useful-time metric is
biased/noisy, and PA is sub-linear in p — so DS2 needs several
reconfigurations and occasionally under-provisions (Table III / Fig. 7a).
"""
from __future__ import annotations

import math

from repro.core.features import upstream_rates
from repro.core.tuner import Deployer, TuningProcess
from repro.sim.engine import PROFILES, SimResult
from repro.sim.workloads import Workload

#: Floor on observed busy so rate/busy stays finite on idle operators.
MIN_BUSY = 0.02
#: Redeployments per tuning process before DS2 or ContTune stops.
MAX_ITERS = 6


def estimate_true_rate(m) -> float:
    """Useful-time-normalised processing ability estimate (DS2 step 1)."""
    return m.observed_rate / max(m.observed_busy, MIN_BUSY)


def reactive_tune(tuner, current, rates, obs, recommend) -> tuple[TuningProcess, SimResult]:
    """The reactive loop of DS2 and ContTune: redeploy the recommendation
    until it stops changing, at most MAX_ITERS times.

    ``obs`` is the observation that triggers the process;
    ``recommend(par, obs, tgt)`` maps the deployed parallelism, the latest
    observation and the targets (the *full* source rates propagated through
    the DAG, however throttled ``obs`` is) to the next recommendation;
    ``tuner._observe`` deploys it. Returns the process and the last observation."""
    proc = TuningProcess(tuner._observe, current, rates)
    tgt = upstream_rates(tuner.wl.dag, rates)
    for _ in range(MAX_ITERS):
        rec = recommend(proc.par, obs, tgt)
        if not proc.changes(rec):
            break
        obs = proc.to(rec)
    return proc.finish(tuner.wl.dag.tunable_operators()), obs


class DS2Tuner:
    """DS2's reactive loop against the simulated engine."""

    def __init__(self, workload: Workload, *, seed: int = 0) -> None:
        self.wl = workload
        self._observe = Deployer(workload, seed, 104729)
        #: Timely only: the metrics DS2 last collected. Flink's
        #: backpressure monitor triggers a fresh observation when a rate
        #: change degrades the job; Timely has no such signal, so DS2
        #: reacts to a rate change using the metrics it already has —
        #: stale rates from the previous regime (paper §V-B/F: Timely's
        #: spinning, signal-free runtime breaks useful-time methods).
        self._stale_obs: SimResult | None = None

    def _recommend(self, par: dict[str, int], obs: SimResult, tgt: dict[str, float]) -> dict[str, int]:
        """p* = ⌈p_cur · target_input / true_rate⌉ per tunable operator."""
        rec: dict[str, int] = {}
        ratchet, p_max = not PROFILES[self.wl.system].backpressure, self.wl.p_max
        for oid in self.wl.dag.tunable_operators():
            true_rate = estimate_true_rate(obs.metrics[oid])
            if true_rate <= 0:
                rec[oid] = par.get(oid, 1)
                continue
            p = math.ceil(par.get(oid, 1) * tgt[oid] / true_rate)
            if ratchet:
                # Timely's spinning workers always look ~100 % busy, so
                # DS2 cannot distinguish idle capacity from saturation:
                # scaling down an apparently-saturated operator would
                # violate its throughput objective, so it only ever
                # ratchets up (the paper's Fig. 8a over-provisioning).
                p = max(p, par.get(oid, 1))
            rec[oid] = int(min(max(1, p), p_max))
        return rec

    def tune(self, current: dict[str, int], rates: dict[str, float]) -> TuningProcess:
        if not PROFILES[self.wl.system].backpressure and self._stale_obs is not None:
            obs = self._stale_obs  # no fresh trigger signal on Timely
        else:
            obs = self._observe(current, rates)  # triggering observation (not counted)
        proc, self._stale_obs = reactive_tune(self, current, rates, obs, self._recommend)
        return proc
