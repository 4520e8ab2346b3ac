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
from repro.core.gnn import GNN, GraphSample, stack_by_size
from repro.graphs.clustering import elbow_k, kmeans_ged, nearest_center
from repro.graphs.dag import DataflowDAG
from repro.graphs.ged import GEDCache
from repro.history import HistoryRecord
from repro.sim.engine import PROFILES

#: GED threshold τ of the similarity-center search (Def. 1).
TAU = 5.0
#: Embedding width of every pre-trained encoder.
DIM = 32


def record_to_sample(rec: HistoryRecord, fe: FeatureEncoder) -> GraphSample:
    """Encode one historical deployment of ``rec.dag`` as a GNN training
    sample."""
    order, x = fe.encode_dag(rec.dag, rec.rates)
    a_in, a_out = adjacency(rec.dag, order)
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
        """Nearest cluster by GED to the similarity centers (Alg. 2 l.1);
        with one cluster, every job's, without a GED."""
        return 0 if len(self.centers) == 1 else nearest_center(dag, self.centers)

    def warmup_dataset(
        self,
        cluster: int,
        *,
        max_points: int,
        seed: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ConstructWarmUpDataset (Alg. 2 l.3): embed a sample of the
        cluster's history with the frozen encoder and pair each labelled
        operator's parallelism-agnostic embedding with its (scaled)
        parallelism and bottleneck label."""
        recs = self.cluster_records[cluster]
        enc = self.encoders[cluster]
        fe = self.feature_encoder
        rng = np.random.default_rng(seed)
        # The records in permutation order until max_points labelled
        # operators are reached, embedded one stack per node count.
        samples: list[GraphSample] = []
        n_lab = 0
        for i in rng.permutation(len(recs)):
            samples.append(record_to_sample(recs[int(i)], fe))
            n_lab += int((samples[-1].y_node >= 0).sum())
            if n_lab >= max_points:
                break
        embs: dict[int, np.ndarray] = {}
        for members, stack in stack_by_size(samples):
            embs.update(zip(members, enc.embed(stack)))
        hs: list[np.ndarray] = []
        ps: list[float] = []
        ys: list[int] = []
        for i, s in enumerate(samples):
            vec = np.concatenate([embs[i], s.x], axis=1)  # skip connection
            mask = s.y_node >= 0
            hs.extend(vec[mask])
            ps.extend(np.asarray(s.p)[mask])
            ys.extend(s.y_node[mask])
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
    epochs: int = 50,
    seed: int = 0,
    spark=None,
) -> PretrainedBundle:
    """Cluster the history by GED and pre-train one GNN per cluster.

    ``k=None`` selects k with the elbow method over the distinct DAG
    structures (paper §V-A). Each cluster's encoder trains on that
    cluster's records alone. Given ``spark`` and ``k > 1``, the clusters
    train in one Spark job: an RDD of cluster indices, one partition each,
    with the records and the feature encoder pickled with the worker
    function, and the encoders collected in cluster order. Otherwise they
    train in turn on the driver; both give the same bits. ``spark`` also
    reaches the k-means assignment step (:mod:`repro.graphs.clustering`).
    ``k == 1`` is the §VII fallback for limited histories, one global
    encoder: there is nothing to cluster or route, no similarity center is
    searched for, and the bundle's one center is the first record's DAG.
    The parallelism scale is the ``p_max`` of the engine the history was
    recorded on, so the history must come from a single engine."""
    if not records:
        raise ValueError("empty history")
    systems = sorted({r.system for r in records})
    if len(systems) > 1:
        raise ValueError(f"history mixes engines {systems}; pre-train one bundle per engine")
    dags = [r.dag for r in records]
    fe = FeatureEncoder().fit([(r.dag, r.rates) for r in records], p_max=PROFILES[systems[0]].p_max)
    # One GED memo for the whole clustering: the elbow's k-means runs, the
    # final one and their similarity centers meet the same pairs again.
    memo = GEDCache()
    if k is None:
        # Elbow over distinct structures only (identical DAGs add nothing).
        distinct: dict[str, DataflowDAG] = {}
        for d in dags:
            distinct.setdefault(d.canonical_key(), d)
        k = elbow_k(list(distinct.values()), tau=TAU, seed=seed, memo=memo)
    if k == 1:
        centers, assignments = [dags[0]], [0] * len(records)
    else:
        clust = kmeans_ged(dags, k, tau=TAU, seed=seed, spark=spark, memo=memo)
        centers, assignments = clust.centers, clust.assignments
    cluster_records: list[list[HistoryRecord]] = [[] for _ in range(k)]
    for rec, a in zip(records, assignments):
        cluster_records[a].append(rec)

    def train(c: int) -> tuple[GNN, float]:
        samples = [record_to_sample(r, fe) for r in cluster_records[c]]
        gnn = GNN(d_in=fe.dim, dim=DIM, head="node_binary", seed=seed + c)
        labelled = [s for s in samples if (s.y_node >= 0).any()]
        if not labelled:
            return gnn, float("nan")
        gnn.fit(labelled, epochs=epochs, seed=seed + c)
        return gnn, gnn.accuracy(labelled)

    if spark is not None and k > 1:
        trained = spark.sparkContext.parallelize(range(k), k).map(train).collect()
    else:
        trained = [train(c) for c in range(k)]
    return PretrainedBundle(
        feature_encoder=fe,
        centers=centers,
        encoders=[gnn for gnn, _ in trained],
        cluster_records=cluster_records,
        train_acc=[acc for _, acc in trained],
    )
