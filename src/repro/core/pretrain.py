"""Offline pre-training (paper §III–IV): cluster the execution history by
Graph Edit Distance, then train one GNN-based encoder per cluster on the
operator-level bottleneck classification task.

The bundle produced here is what the online phase consumes: cluster
centers (similarity-center DAGs) to route a target job to its nearest
cluster, the per-cluster frozen encoders, and the per-cluster history
records from which warm-up datasets are drawn (Algorithm 2, line 3).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.features import FeatureEncoder, adjacency
from repro.core.gnn import GNN, GraphSample
from repro.graphs.clustering import elbow_k, kmeans_ged, nearest_center
from repro.graphs.dag import DataflowDAG
from repro.graphs.ged import GEDCache
from repro.history import HistoryRecord
from repro.sim.workloads import P_MAX


def record_to_sample(rec: HistoryRecord, fe: FeatureEncoder) -> GraphSample:
    """Encode one historical deployment as a GNN training sample."""
    dag = DataflowDAG.from_json(rec.dag_json)
    order, x = fe.encode_dag(dag, rec.rates)
    a_in, a_out = adjacency(dag, order)
    p = fe.scale_parallelism([rec.parallelism.get(o, 1) for o in order])
    y = np.array([rec.labels.get(o, -1) for o in order], dtype=int)
    return GraphSample(x=x, a_in=a_in, a_out=a_out, p=p, y_node=y)


def op_vector_dim(enc: GNN, fe: FeatureEncoder) -> int:
    return enc.dim + fe.dim


def op_vectors(
    enc: GNN, fe: FeatureEncoder, dag: DataflowDAG, rates: dict[str, float]
) -> tuple[list[str], np.ndarray]:
    """Parallelism-agnostic operator vectors for M_f: the frozen GNN
    embedding with a skip connection to the raw encoded features (the
    encoder output *is* [message-passed context ‖ own features])."""
    order, x = fe.encode_dag(dag, rates)
    a_in, a_out = adjacency(dag, order)
    emb = enc.embed(GraphSample(x=x, a_in=a_in, a_out=a_out))
    return order, np.concatenate([emb, x], axis=1)


@dataclass
class PretrainedBundle:
    """Everything the online fine-tuning phase needs."""

    feature_encoder: FeatureEncoder
    centers: list[DataflowDAG]
    encoders: list[GNN]
    cluster_records: list[list[HistoryRecord]]
    train_acc: list[float] = field(default_factory=list)

    def cluster_for(self, dag: DataflowDAG) -> int:
        """Nearest cluster by GED to the similarity centers (Alg. 2 l.1)."""
        return nearest_center(dag, self.centers)

    def warmup_dataset(
        self,
        cluster: int,
        *,
        max_points: int = 400,
        seed: int = 0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ConstructWarmUpDataset (Alg. 2 l.3): embed a sample of the
        cluster's history with the frozen encoder and pair each labelled
        operator's parallelism-agnostic embedding with its (scaled)
        parallelism and bottleneck label."""
        recs = self.cluster_records[cluster]
        enc = self.encoders[cluster]
        fe = self.feature_encoder
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(recs))
        hs: list[np.ndarray] = []
        ps: list[float] = []
        ys: list[int] = []
        for i in order:
            rec = recs[int(i)]
            s = record_to_sample(rec, fe)
            emb = enc.embed(s)
            vec = np.concatenate([emb, s.x], axis=1)  # skip connection
            mask = s.y_node >= 0
            hs.extend(vec[mask])
            ps.extend(np.asarray(s.p)[mask])
            ys.extend(s.y_node[mask])
            if len(ys) >= max_points:
                break
        if not ys:
            return (
                np.zeros((0, op_vector_dim(enc, fe))),
                np.zeros(0),
                np.zeros(0, dtype=int),
            )
        return (
            np.vstack(hs)[:max_points],
            np.asarray(ps)[:max_points],
            np.asarray(ys, dtype=int)[:max_points],
        )


def pretrain(
    records: list[HistoryRecord],
    *,
    k: int | None = None,
    tau: float = 5.0,
    dim: int = 32,
    epochs: int = 50,
    seed: int = 0,
    spark=None,
) -> PretrainedBundle:
    """Cluster the history by GED and pre-train one GNN per cluster.

    ``k=None`` selects k with the elbow method over the distinct DAG
    structures (paper §V-A). ``spark`` distributes the k-means assignment
    step; training itself is per-cluster numpy (graphs are tiny). The
    parallelism scale is the ``p_max`` of the engine the history was
    recorded on, so the history must come from a single engine."""
    if not records:
        raise ValueError("empty history")
    systems = sorted({r.system for r in records})
    if len(systems) > 1:
        raise ValueError(f"history mixes engines {systems}; pre-train one bundle per engine")
    # Records of one job share its DAG string: parse each string once.
    parsed = {j: DataflowDAG.from_json(j) for j in {r.dag_json for r in records}}
    dags = [parsed[r.dag_json] for r in records]
    fe = FeatureEncoder().fit(
        [(dag, r.rates) for dag, r in zip(dags, records)], p_max=P_MAX[systems[0]]
    )
    # One GED memo for the whole clustering: the elbow's k-means runs, the
    # final one and their similarity centers meet the same pairs again.
    memo = GEDCache()
    if k is None:
        # Elbow over distinct structures only (identical DAGs add nothing).
        distinct: dict[str, DataflowDAG] = {}
        for d in dags:
            distinct.setdefault(d.canonical_key(), d)
        k = elbow_k(list(distinct.values()), tau=tau, seed=seed, memo=memo)
    clust = kmeans_ged(dags, k, tau=tau, seed=seed, spark=spark, memo=memo)
    cluster_records: list[list[HistoryRecord]] = [[] for _ in range(k)]
    for rec, a in zip(records, clust.assignments):
        cluster_records[a].append(rec)
    encoders: list[GNN] = []
    accs: list[float] = []
    for c in range(k):
        samples = [record_to_sample(r, fe) for r in cluster_records[c]]
        gnn = GNN(d_in=fe.dim, dim=dim, use_fuse=True, head="node_binary", seed=seed + c)
        labelled = [s for s in samples if (s.y_node >= 0).any()]
        if labelled:
            gnn.fit(labelled, epochs=epochs, seed=seed + c)
            accs.append(gnn.accuracy(labelled))
        else:
            accs.append(float("nan"))
        encoders.append(gnn)
    return PretrainedBundle(
        feature_encoder=fe,
        centers=clust.centers,
        encoders=encoders,
        cluster_records=cluster_records,
        train_acc=accs,
    )


def pretrain_global(
    records: list[HistoryRecord],
    *,
    dim: int = 32,
    epochs: int = 50,
    seed: int = 0,
) -> PretrainedBundle:
    """The §VII fallback for limited histories: skip clustering and train
    a single global encoder (one cluster containing everything)."""
    return pretrain(records, k=1, dim=dim, epochs=epochs, seed=seed)
