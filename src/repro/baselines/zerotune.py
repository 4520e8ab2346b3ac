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
from repro.core.tuner import Deployer, TuningProcess
from repro.graphs.dag import DataflowDAG
from repro.history import HistoryRecord
from repro.sim.workloads import Workload

#: Random parallelism groups scored per tuning process (besides the
#: current configuration).
N_SAMPLES = 64
#: Embedding width of the cost model's GNN.
DIM = 32


def _augment(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """ZeroTune feeds parallelism directly as a node feature: features
    [n, d] and parallelisms [..., n] give [..., n, d + 1]."""
    return np.concatenate([np.broadcast_to(x, p.shape + x.shape[-1:]), p[..., None]], axis=-1)


class ZeroTuneCostModel:
    """Graph-level regression GNN on log job latency."""

    def __init__(self, fe: FeatureEncoder, *, seed: int = 0) -> None:
        self.fe = fe
        self.gnn = GNN(d_in=fe.dim + 1, dim=DIM, head="graph_reg", seed=seed)

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

    def costs(
        self, dag: DataflowDAG, rates: dict[str, float], candidates: list[dict[str, int]]
    ) -> np.ndarray:
        """Predicted cost of ``dag`` at ``rates`` under each parallelism
        candidate: one encoding, one forward over the stack of candidates."""
        order, x = self.fe.encode_dag(dag, rates)
        a_in, a_out = adjacency(dag, order)
        p = self.fe.scale_parallelism([[c.get(o, 1) for o in order] for c in candidates])
        return self.gnn.forward(GraphSample(x=_augment(x, p), a_in=a_in, a_out=a_out))[:, 0]


class ZeroTuneTuner:
    """Sample parallelism groups, pick the predicted-cost argmin, deploy
    once. ZeroTune 'always performs a single reconfiguration' (§V-D)."""

    def __init__(self, workload: Workload, model: ZeroTuneCostModel, *, seed: int = 0) -> None:
        self.wl = workload
        self.model = model
        self.seed = seed
        self._deployer = Deployer(workload, seed, 27644437)

    def tune(self, current: dict[str, int], rates: dict[str, float]) -> TuningProcess:
        rng = np.random.default_rng(self.seed + 31 * self._deployer.n)
        ops = self.wl.dag.tunable_operators()
        candidates: list[dict[str, int]] = [dict(current)]
        for _ in range(N_SAMPLES):
            candidates.append(
                {o: int(rng.integers(1, self.wl.p_max + 1)) for o in ops}
            )
        costs = self.model.costs(self.wl.dag, rates, candidates)
        proc = TuningProcess(self._deployer, current, rates)
        proc.to(candidates[int(np.argmin(costs))])
        return proc.finish(ops)
