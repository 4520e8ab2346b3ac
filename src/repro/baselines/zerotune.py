"""ZeroTune (Agnihotri et al., ICDE 2024) — zero-shot job-level cost model.

A GNN over the dataflow DAG whose node features *include* parallelism,
mean-pooled into a summary vector and regressed onto a job-level
performance metric (our latency proxy) — the aggregation the paper
criticises for discarding operator-level detail. Tuning samples groups
of parallelism degrees and deploys the group with the lowest predicted
cost (one single reconfiguration, §V-A "Competitors"): because the cost
objective rewards performance only, ZeroTune systematically
over-provisions (Fig. 6) while never backpressuring (Table III).
"""
from __future__ import annotations

import numpy as np

from repro.core.features import FeatureEncoder, adjacency
from repro.core.gnn import GNN, GraphSample
from repro.core.pretrain import record_to_sample
from repro.core.tuner import TuneProcessResult
from repro.graphs.dag import DataflowDAG
from repro.history import HistoryRecord
from repro.sim.engine import simulate
from repro.sim.workloads import Workload

#: Random parallelism groups scored per tuning process (besides the
#: current configuration).
N_SAMPLES = 64


def _augment(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """ZeroTune feeds parallelism directly as a node feature."""
    return np.concatenate([x, np.asarray(p).reshape(-1, 1)], axis=1)


class ZeroTuneCostModel:
    """Graph-level regression GNN on log job latency."""

    def __init__(self, fe: FeatureEncoder, *, dim: int = 32, seed: int = 0) -> None:
        self.fe = fe
        self.gnn = GNN(
            d_in=fe.dim + 1, dim=dim, use_fuse=False, head="graph_reg", seed=seed
        )

    def fit(self, records: list[HistoryRecord], *, epochs: int = 60, seed: int = 0) -> "ZeroTuneCostModel":
        samples = []
        for rec in records:
            s = record_to_sample(rec, self.fe)
            samples.append(
                GraphSample(
                    x=_augment(s.x, s.p),
                    a_in=s.a_in,
                    a_out=s.a_out,
                    y_graph=float(np.log1p(rec.job_latency)),
                )
            )
        self.gnn.fit(samples, epochs=epochs, seed=seed)
        return self

    def predict(self, dag: DataflowDAG, rates: dict[str, float], parallelism: dict[str, int]) -> float:
        order, x = self.fe.encode_dag(dag, rates)
        a_in, a_out = adjacency(dag, order)
        p = self.fe.scale_parallelism([parallelism.get(o, 1) for o in order])
        s = GraphSample(x=_augment(x, p), a_in=a_in, a_out=a_out)
        return float(self.gnn.forward(s)[0])


class ZeroTuneTuner:
    """Sample parallelism groups, pick the predicted-cost argmin, deploy
    once. ZeroTune 'always performs a single reconfiguration' (§V-D)."""

    def __init__(self, workload: Workload, model: ZeroTuneCostModel, *, seed: int = 0) -> None:
        self.wl = workload
        self.model = model
        self.seed = seed
        self._deploys = 0

    def tune(self, current: dict[str, int], rates: dict[str, float]) -> TuneProcessResult:
        rng = np.random.default_rng(self.seed + 31 * self._deploys)
        ops = self.wl.dag.tunable_operators()
        candidates: list[dict[str, int]] = [dict(current)]
        for _ in range(N_SAMPLES):
            candidates.append(
                {o: int(rng.integers(1, self.wl.p_max + 1)) for o in ops}
            )
        costs = [self.model.predict(self.wl.dag, rates, c) for c in candidates]
        best = candidates[int(np.argmin(costs))]
        changed = any(best[o] != current.get(o, 1) for o in ops)
        self._deploys += 1
        res = simulate(
            self.wl.dag, best, rates, system=self.wl.system,
            seed=self.seed + 27644437 * self._deploys,
        )
        return TuneProcessResult(
            final_parallelism={o: best[o] for o in ops},
            n_reconfigs=1 if changed else 0,
            backpressure_events=int(res.job_backpressure),
        )
