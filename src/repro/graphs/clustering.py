"""GED-based k-means over dataflow DAGs (paper §IV-C).

Centroids are *similarity centers* (approximate median graphs), not
averages; the assignment step computes GED from every DAG to every
centroid. Execution histories hold few distinct structures, each many
times over, so k-means runs on the distinct structures weighted by their
multiplicity, and every GED goes through one
:class:`repro.graphs.ged.GEDCache` memo. A caller can share that memo
across calls: ``pretrain`` hands the same one to ``elbow_k``, the final
``kmeans_ged`` and the similarity centers inside both, so each distinct
pair of structures costs at most one exact GED per pre-training. The
assignment step can fan out over Spark (``assign_with_spark``); it then
computes only the (structure, center) distances the memo lacks, as an
RDD of indices into those pairs, which travel pickled with the worker
function, and starts no job when it lacks none. Under ``pretrain(k=None)``
it always lacks none, because the final k-means repeats a run that
``elbow_k`` already made, and no program path passes an explicit k > 1;
so today this step starts no Spark job anywhere.

``elbow_k`` picks k by the elbow method (max second difference of the
within-cluster distance curve), as in the paper's pre-training setup.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dag import DataflowDAG
from .ged import GEDCache, ged
from .similarity import dedupe, similarity_center

MAX_ITER = 10  # k-means rounds before stopping unconverged


@dataclass
class ClusteringResult:
    centers: list[DataflowDAG]
    assignments: list[int]
    inertia: float  # total GED to assigned centers


def _assign_local(
    graphs: list[DataflowDAG],
    centers: list[DataflowDAG],
    cache: GEDCache,
    counts: list[int] | None = None,
) -> tuple[list[int], float]:
    """Nearest center of each graph, and the inertia with graph i counted
    ``counts[i]`` times (once each by default)."""
    assignments: list[int] = []
    inertia = 0.0
    for i, g in enumerate(graphs):
        dists = [cache(g, c) for c in centers]
        k = int(np.argmin(dists))
        assignments.append(k)
        inertia += dists[k] * (1 if counts is None else counts[i])
    return assignments, inertia


def assign_with_spark(
    spark,
    graphs: list[DataflowDAG],
    centers: list[DataflowDAG],
    *,
    counts: list[int] | None = None,
    memo: GEDCache | None = None,
) -> tuple[list[int], float]:
    """Distributed assignment step: the (structure, center) GEDs the memo
    lacks are computed in parallel over an RDD of pair indices, the pairs
    pickled with the worker function, and stored in the memo; the
    assignment is then read from the memo exactly as
    :func:`_assign_local` does."""
    memo = GEDCache() if memo is None else memo
    todo = memo.missing(graphs, centers)
    if todo:
        sc = spark.sparkContext
        ids = sc.parallelize(range(len(todo)), sc.defaultParallelism)
        for pair, d in zip(todo, ids.map(lambda i: ged(*todo[i])).collect()):
            memo.put(*pair, d)
    return _assign_local(graphs, centers, memo, counts)


def kmeans_ged(
    graphs: list[DataflowDAG],
    k: int,
    *,
    tau: float = 5.0,
    seed: int = 0,
    spark=None,
    memo: GEDCache | None = None,
) -> ClusteringResult:
    """K-means with GED distances and similarity-center centroids.

    ``memo`` shares GEDs with other calls; it changes no result."""
    if k < 1 or k > len(graphs):
        raise ValueError(f"k={k} out of range for {len(graphs)} graphs")
    rng = np.random.default_rng(seed)
    memo = GEDCache() if memo is None else memo
    first, counts, of = dedupe(graphs)
    reps = [graphs[i] for i in first]
    # Initialise on distinct structures when possible, so two centroids do
    # not start (and stay) identical.
    pool = first if len(first) >= k else list(range(len(graphs)))
    picks = rng.choice(len(pool), size=k, replace=False)
    centers = [graphs[pool[int(j)]] for j in picks]
    assign: list[int] = []  # cluster of each distinct structure
    inertia = 0.0
    for _ in range(MAX_ITER):
        if spark is not None:
            new_assign, inertia = assign_with_spark(
                spark, reps, centers, counts=counts, memo=memo
            )
        else:
            new_assign, inertia = _assign_local(reps, centers, memo, counts)
        if new_assign == assign:
            break
        assign = new_assign
        new_centers: list[DataflowDAG] = []
        for c in range(k):
            members = [g for g, j in zip(graphs, of) if assign[j] == c]
            if members:
                new_centers.append(similarity_center(members, tau, memo=memo))
            else:  # empty cluster: reseed on the farthest graph
                far = max(
                    range(len(reps)),
                    key=lambda r: memo(reps[r], centers[assign[r]]),
                )
                new_centers.append(reps[far])
        if all(
            a.canonical_key() == b.canonical_key()
            for a, b in zip(centers, new_centers)
        ):
            break
        centers = new_centers
    return ClusteringResult(centers, [assign[j] for j in of], float(inertia))


def elbow_k(
    graphs: list[DataflowDAG],
    *,
    k_max: int = 6,
    tau: float = 5.0,
    seed: int = 0,
    memo: GEDCache | None = None,
) -> int:
    """Elbow method: k with the largest curvature (second difference) of
    the inertia curve; falls back to the largest useful k on degenerate
    curves. Every k-means run shares ``memo`` (a fresh one by default)."""
    memo = GEDCache() if memo is None else memo
    n_uniq = len({g.canonical_key() for g in graphs})
    k_hi = min(k_max, n_uniq, len(graphs))
    inertias = [
        kmeans_ged(graphs, k, tau=tau, seed=seed, memo=memo).inertia
        for k in range(1, k_hi + 1)
    ]
    if len(inertias) < 3:
        return len(inertias)
    curv = np.diff(inertias, 2)  # curvature at k = 2..k_hi-1
    return int(np.argmax(curv)) + 2


def nearest_center(g: DataflowDAG, centers: list[DataflowDAG]) -> int:
    """Cluster id of the nearest centroid (Algorithm 2, line 1)."""
    return int(np.argmin([ged(g, c) for c in centers]))
