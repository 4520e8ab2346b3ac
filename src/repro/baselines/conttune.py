"""ContTune (Lian et al., VLDB 2023) — conservative Bayesian optimisation.

Per-operator Gaussian-process surrogate of processing ability as a
function of parallelism, built from the *target job's own* tuning
history (ContTune uses no global knowledge — the paper's C1 criticism).
The Big-small algorithm: when the surrogate cannot certify any degree, a
"big" jump (linear extrapolation plus headroom) restores service; the
"small" phase then walks down to the minimum degree whose conservative
score ``μ(p) − α·σ(p)`` still covers the target rate, with α = 3 as in
the original experiments (§V-A).

The GP is a from-scratch numpy RBF regressor (no sklearn offline).
"""
from __future__ import annotations

import math

import numpy as np

from repro.baselines.ds2 import MIN_BUSY, estimate_true_rate, reactive_tune
from repro.core.tuner import Deployer, TuningProcess
from repro.sim.engine import SimResult
from repro.sim.workloads import Workload

ALPHA = 3.0  # conservative coefficient from ContTune's experiments
SIGNAL = 1.0  # RBF kernel signal std (fit standardises y)


class GaussianProcess1D:
    """Minimal RBF-kernel GP regressor over the parallelism axis."""

    def __init__(self, length_scale: float = 8.0, noise: float = 0.05):
        self.l, self.sn = length_scale, noise
        self.x: np.ndarray | None = None
        self.alpha_vec: np.ndarray | None = None
        self.k: np.ndarray | None = None
        self.y_mean = 0.0
        self.y_std = 1.0

    def _k(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = a.reshape(-1, 1) - b.reshape(1, -1)
        return SIGNAL**2 * np.exp(-0.5 * (d / self.l) ** 2)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess1D":
        self.x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self.y_mean = float(y.mean())
        self.y_std = float(y.std()) or 1.0
        yn = (y - self.y_mean) / self.y_std
        self.k = self._k(self.x, self.x) + self.sn**2 * np.eye(len(self.x))
        self.alpha_vec = np.linalg.solve(self.k, yn)
        return self

    def predict(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and std at ``xs`` (original y units). K is
        solved, never inverted."""
        assert self.x is not None
        ks = self._k(np.asarray(xs, dtype=float), self.x)
        mu = ks @ self.alpha_vec
        var = SIGNAL**2 - (ks * np.linalg.solve(self.k, ks.T).T).sum(axis=1)
        std = np.sqrt(np.maximum(var, 1e-12))
        return mu * self.y_std + self.y_mean, std * self.y_std


class ContTuneTuner:
    """Big-small conservative BO over the simulated engine."""

    def __init__(self, workload: Workload, *, seed: int = 0) -> None:
        self.wl = workload
        self._deployer = Deployer(workload, seed, 15485863)
        #: the job's own tuning history: op -> list[(p, PA estimate)]
        self.obs: dict[str, list[tuple[int, float]]] = {
            o: [] for o in workload.dag.tunable_operators()
        }

    def _observe(self, par: dict[str, int], rates: dict[str, float]) -> SimResult:
        res = self._deployer(par, rates)
        for oid in self.obs:
            m = res.metrics[oid]
            if m.observed_busy > MIN_BUSY and m.observed_rate > 0:
                self.obs[oid].append((par.get(oid, 1), estimate_true_rate(m)))
        return res

    def _recommend_op(self, oid: str, p_cur: int, target: float) -> int:
        """Small step via the conservative GP score; big step fallback."""
        pts = self.obs[oid][-60:]
        if target <= 0:
            return 1
        if len({p for p, _ in pts}) >= 2:
            xs = np.array([p for p, _ in pts], dtype=float)
            ys = np.array([pa for _, pa in pts], dtype=float)
            gp = GaussianProcess1D(length_scale=max(4.0, self.wl.p_max / 12)).fit(xs, ys)
            cand = np.arange(1, self.wl.p_max + 1, dtype=float)
            mu, sd = gp.predict(cand)
            ok = np.nonzero(mu - ALPHA * sd >= target)[0]
            if len(ok) > 0:
                return int(cand[ok[0]])
        # Big step: linear extrapolation from the latest estimate + headroom.
        if pts:
            p_last, pa_last = pts[-1]
            if pa_last > 0:
                return int(min(self.wl.p_max, max(1, math.ceil(1.25 * p_last * target / pa_last))))
        return int(min(self.wl.p_max, max(1, 2 * p_cur)))

    def _recommend(self, par: dict[str, int], obs: SimResult, tgt: dict[str, float]) -> dict[str, int]:
        """The GP reads the job's own history, not the latest observation."""
        return {
            oid: self._recommend_op(oid, par.get(oid, 1), tgt[oid])
            for oid in self.wl.dag.tunable_operators()
        }

    def tune(self, current: dict[str, int], rates: dict[str, float]) -> TuningProcess:
        obs = self._observe(current, rates)  # triggering observation
        return reactive_tune(self, current, rates, obs, self._recommend)[0]
