"""Graph similarity search and similarity centers (Defs. 1 & 2).

``similarity_search`` finds all DAGs within GED ``tau`` of a query; the
``similarity_center`` of a cluster is the DAG appearing most often across
the similarity-search results of every member — the paper's approximate
median graph used as the k-means centroid.

Two execution modes reproduce the Fig. 11b ablation:
  * ``method="astar_lsa"`` — threshold-pruned GED verification
    (:func:`repro.graphs.ged.ged_within`), the fast path;
  * ``method="direct"`` — full exact GED for every pair, then compare to
    ``tau``, the slow baseline.

Both deduplicate structurally identical DAGs via canonical keys, and the
counting is group-aware so duplicated templates (ubiquitous in execution
histories) do not inflate the pairwise work. Every GED goes through a
:class:`repro.graphs.ged.GEDCache` memo: inside k-means the caller's,
which answers the pairs whose GED is already known and runs the pruned
search on the rest; otherwise a fresh one, which asks about each pair of
distinct structures once and so runs exactly the searches of its mode.
"""
from __future__ import annotations

from collections import Counter

from .dag import DataflowDAG
from .ged import GEDCache, ged, ged_within


def dedupe(graphs: list[DataflowDAG]) -> tuple[list[int], list[int], list[int]]:
    """Group structurally identical DAGs (same canonical key): the index of
    each distinct structure's first appearance, its multiplicity, and each
    graph's position in that list."""
    first: list[int] = []
    counts: list[int] = []
    of: list[int] = []
    pos: dict[str, int] = {}
    for i, g in enumerate(graphs):
        j = pos.setdefault(g.canonical_key(), len(first))
        if j == len(first):
            first.append(i)
            counts.append(0)
        counts[j] += 1
        of.append(j)
    return first, counts, of


def pairwise_ged_within(
    graphs: list[DataflowDAG],
    tau: float,
    method: str = "astar_lsa",
    memo: GEDCache | None = None,
) -> dict[tuple[int, int], int]:
    """GED for every unordered pair of *unique* structures where it is
    ≤ tau. ``direct`` computes the full GED first (no pruning). A shared
    ``memo`` answers the pairs it already knows and keeps the rest."""
    if method not in ("astar_lsa", "direct"):
        raise ValueError(f"unknown method {method!r}")
    memo = GEDCache() if memo is None else memo
    out: dict[tuple[int, int], int] = {}
    for i in range(len(graphs)):
        out[(i, i)] = 0
        for j in range(i + 1, len(graphs)):
            if method == "direct":
                d: int | None = memo(graphs[i], graphs[j])
                if d > tau:
                    d = None
            else:
                d = memo.within(graphs[i], graphs[j], tau)
            if d is not None:
                out[(i, j)] = d
    return out


def similarity_search(
    graphs: list[DataflowDAG],
    query: DataflowDAG,
    tau: float,
    method: str = "astar_lsa",
) -> list[int]:
    """Indices of ``graphs`` whose GED to ``query`` is ≤ tau (Def. 1)."""
    hits: list[int] = []
    cache: dict[str, bool] = {}
    for i, g in enumerate(graphs):
        k = g.canonical_key()
        if k not in cache:
            if method == "direct":
                cache[k] = ged(query, g) <= tau
            else:
                cache[k] = ged_within(query, g, tau) is not None
        if cache[k]:
            hits.append(i)
    return hits


def similarity_center(
    graphs: list[DataflowDAG],
    tau: float,
    method: str = "astar_lsa",
    memo: GEDCache | None = None,
) -> DataflowDAG:
    """The cluster member appearing most often across all members'
    similarity-search results (Def. 2) — the approximate median graph.
    A shared ``memo`` reuses GEDs known from earlier calls."""
    if not graphs:
        raise ValueError("empty cluster")
    first, counts, _ = dedupe(graphs)
    reps = [graphs[i] for i in first]
    within = pairwise_ged_within(reps, tau, method=method, memo=memo)
    appearance = Counter()
    for i in range(len(reps)):
        for j in range(len(reps)):
            key = (min(i, j), max(i, j))
            if key in within:
                # rep j appears in the search result of every duplicate of
                # rep i, and each of rep j's duplicates appears once.
                appearance[j] += counts[i] * counts[j]
    best = max(range(len(reps)), key=lambda j: (appearance[j], -j))
    return reps[best]
