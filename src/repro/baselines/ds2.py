"""DS2 (Kalavri et al., OSDI 2018) — the linear-scaling baseline.

DS2 observes each operator's *useful time* (busy fraction) and observed
processing rate, estimates the operator's true processing ability as
``rate / busy``, and — assuming PA is linear in parallelism — picks the
lowest degree that sustains the target rate propagated from the sources:

    p* = ⌈ p_cur · target_input / true_rate ⌉

It iterates until the recommendation is a fixpoint (:func:`reactive_tune`,
the loop ContTune shares). Two realities of the simulated engine (and of
the paper's testbed) make DS2 imperfect: the useful-time metric is
biased/noisy, and PA is sub-linear in p — so DS2 needs several
reconfigurations and occasionally under-provisions (Table III / Fig. 7a).
"""
from __future__ import annotations

import math

from repro.core.tuner import TuneProcessResult
from repro.sim.engine import SimResult, simulate
from repro.sim.workloads import Workload

#: Floor on observed busy so rate/busy stays finite on idle operators.
MIN_BUSY = 0.02
#: Redeployments per tuning process before DS2 or ContTune stops.
MAX_ITERS = 6


def target_rates(wl: Workload, result: SimResult, rates: dict[str, float]) -> dict[str, float]:
    """Propagate the *full* source rates through observed selectivities —
    DS2's 'true output rate' computation (its step 2)."""
    dag = wl.dag
    sel: dict[str, float] = {}
    for oid, m in result.metrics.items():
        sel[oid] = (m.output_rate / m.processed_rate) if m.processed_rate > 0 else 1.0
    tgt_in: dict[str, float] = {}
    tgt_out: dict[str, float] = {}
    for oid in dag.topological_order():
        if oid in dag.sources:
            tgt_in[oid] = rates[dag.sources[oid]]
            tgt_out[oid] = tgt_in[oid]
        else:
            tgt_in[oid] = sum(tgt_out[u] for u in dag.upstream(oid))
            tgt_out[oid] = tgt_in[oid] * sel[oid]
    return tgt_in


def estimate_true_rate(m) -> float:
    """Useful-time-normalised processing ability estimate (DS2 step 1)."""
    return m.observed_rate / max(m.observed_busy, MIN_BUSY)


def reactive_tune(tuner, current, rates, obs, recommend) -> tuple[TuneProcessResult, SimResult]:
    """The reactive loop of DS2 and ContTune: redeploy the recommendation
    until it stops changing, at most MAX_ITERS times.

    ``obs`` is the observation that triggers the process;
    ``recommend(par, obs, target_rates)`` maps the deployed parallelism and
    the latest observation to the next recommendation; ``tuner._observe``
    deploys it. Returns the outcome and the last observation."""
    par = dict(current)
    reconfigs = bp_events = 0
    for _ in range(MAX_ITERS):
        rec = recommend(par, obs, target_rates(tuner.wl, obs, rates))
        if all(rec[o] == par.get(o, 1) for o in rec):
            break
        par.update(rec)
        reconfigs += 1
        obs = tuner._observe(par, rates)
        if obs.job_backpressure:
            bp_events += 1
    out = TuneProcessResult(
        final_parallelism={o: par.get(o, 1) for o in tuner.wl.dag.tunable_operators()},
        n_reconfigs=reconfigs,
        backpressure_events=bp_events,
    )
    return out, obs


class DS2Tuner:
    """DS2's reactive loop against the simulated engine."""

    def __init__(self, workload: Workload, *, seed: int = 0) -> None:
        self.wl = workload
        self.seed = seed
        self._deploys = 0
        #: Timely only: the metrics DS2 last collected. Flink's
        #: backpressure monitor triggers a fresh observation when a rate
        #: change degrades the job; Timely has no such signal, so DS2
        #: reacts to a rate change using the metrics it already has —
        #: stale rates from the previous regime (paper §V-B/F: Timely's
        #: spinning, signal-free runtime breaks useful-time methods).
        self._stale_obs: SimResult | None = None

    def _observe(self, par: dict[str, int], rates: dict[str, float]) -> SimResult:
        self._deploys += 1
        return simulate(
            self.wl.dag, par, rates, system=self.wl.system,
            seed=self.seed + 104729 * self._deploys,
        )

    def _recommend(self, par: dict[str, int], obs: SimResult, tgt: dict[str, float]) -> dict[str, int]:
        """p* = ⌈p_cur · target_input / true_rate⌉ per tunable operator."""
        rec: dict[str, int] = {}
        for oid in self.wl.dag.tunable_operators():
            true_rate = estimate_true_rate(obs.metrics[oid])
            if true_rate <= 0:
                rec[oid] = par.get(oid, 1)
                continue
            p = math.ceil(par.get(oid, 1) * tgt[oid] / true_rate)
            if self.wl.system == "timely":
                # Timely's spinning workers always look ~100 % busy, so
                # DS2 cannot distinguish idle capacity from saturation:
                # scaling down an apparently-saturated operator would
                # violate its throughput objective, so it only ever
                # ratchets up (the paper's Fig. 8a over-provisioning).
                p = max(p, par.get(oid, 1))
            rec[oid] = int(min(max(1, p), self.wl.p_max))
        return rec

    def tune(self, current: dict[str, int], rates: dict[str, float]) -> TuneProcessResult:
        if self.wl.system == "timely" and self._stale_obs is not None:
            obs = self._stale_obs  # no fresh trigger signal on Timely
        else:
            obs = self._observe(current, rates)  # triggering observation (not counted)
        out, self._stale_obs = reactive_tune(self, current, rates, obs, self._recommend)
        return out
