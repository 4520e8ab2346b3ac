"""Graph Edit Distance for dataflow DAGs (paper §IV-C).

Exact GED via best-first (A*) search over partial node mappings with a
label-multiset lower bound — the same ingredients as AStar+-LSa [51]:
index-free, best-first, tight label-set lower bounds, and threshold
pruning for similarity search.

Edit operations (unit cost 1 each, per the paper):
  * node insertion / deletion
  * operator type modification (node label substitution)
  * edge insertion / deletion
  * edge direction modification (reversing an edge costs 1, not 2)

Node labels are operator types; edges are directed. Dataflow DAGs are
small (< 20 nodes), so exact search is practical — and the threshold-
pruned variant (:func:`ged_within`) is what makes similarity search fast
(reproduced in the Fig. 11b ablation).
"""
from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter

from .dag import DataflowDAG

#: Safety valve: exact GED search aborts past this many expansions. Far
#: above anything the <20-node workload DAGs need; prevents pathological
#: hand-built inputs from hanging tests.
MAX_EXPANSIONS = 2_000_000


def _as_struct(g: DataflowDAG) -> tuple[list[str], list[str], set[tuple[int, int]]]:
    """(node ids in a search-friendly order, labels, edge set over indices)."""
    order = g.topological_order()
    deg = Counter()
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    # High-degree nodes first: their edge constraints prune earliest.
    ids = sorted(order, key=lambda o: (-deg[o], order.index(o)))
    idx = {o: i for i, o in enumerate(ids)}
    labels = [g.op(o).op_type for o in ids]
    edges = {(idx[u], idx[v]) for u, v in g.edges}
    return ids, labels, edges


def _pair_cost(n1: int, same1: bool, n2: int, same2: bool) -> int:
    """Edit cost between the (≤2) directed edges joining one node pair.

    ``n1``/``n2`` are how many of {forward, backward} exist on each side;
    ``same1``/``same2`` whether the single present edge is 'forward'. A
    reversal (same count, different direction) costs 1; otherwise the
    count difference is paid in inserts/deletes.
    """
    if n1 == n2:
        if n1 == 1 and same1 != same2:
            return 1
        return 0
    return abs(n1 - n2)


def _edge_dirs(edges: set[tuple[int, int]], a: int, b: int) -> tuple[int, bool]:
    fwd = (a, b) in edges
    bwd = (b, a) in edges
    return fwd + bwd, fwd


class _Search:
    def __init__(self, g1: DataflowDAG, g2: DataflowDAG):
        self.ids1, self.lab1, self.e1 = _as_struct(g1)
        self.ids2, self.lab2, self.e2 = _as_struct(g2)
        self.n1, self.n2 = len(self.ids1), len(self.ids2)
        self.lab2_counts = Counter(self.lab2)

    def lower_bound(self, i: int, used2: frozenset[int]) -> int:
        """Label-multiset node bound + edge-count bound on the undecided
        remainder. Admissible: never exceeds the true completion cost."""
        rem1 = Counter(self.lab1[i:])
        rem2 = self.lab2_counts - Counter(self.lab2[j] for j in used2)
        inter = sum((rem1 & rem2).values())
        r1, r2 = self.n1 - i, self.n2 - len(used2)
        node_lb = max(r1, r2) - inter
        # Edges with at least one undecided endpoint.
        dec1 = set(range(i))
        e1_rem = sum(1 for u, v in self.e1 if u not in dec1 or v not in dec1)
        e2_rem = sum(1 for u, v in self.e2 if u not in used2 or v not in used2)
        return node_lb + abs(e1_rem - e2_rem)

    def extend_cost(self, mapping: tuple[int | None, ...], a: int, b: int | None) -> int:
        """Incremental cost of mapping g1 node ``a`` to g2 node ``b`` (or
        deleting it when ``b`` is None), given the processed prefix."""
        cost = 0
        if b is None:
            cost += 1
        elif self.lab1[a] != self.lab2[b]:
            cost += 1
        for c, d in enumerate(mapping):
            k1, s1 = _edge_dirs(self.e1, c, a)
            if b is None or d is None:
                cost += k1  # g1 edges at this pair are deleted
                continue
            k2, s2 = _edge_dirs(self.e2, d, b)
            cost += _pair_cost(k1, s1, k2, s2)
        return cost

    def goal_cost(self, mapping: tuple[int | None, ...]) -> int:
        """Insert cost for g2 nodes/edges not covered by the mapping."""
        used = {d for d in mapping if d is not None}
        cost = self.n2 - len(used)
        covered = sum(1 for u, v in self.e2 if u in used and v in used)
        return cost + (len(self.e2) - covered)

    def run(self, threshold: float | None) -> int | None:
        """Exact GED; ``None`` when a threshold is given and exceeded."""
        start_lb = self.lower_bound(0, frozenset())
        if threshold is not None and start_lb > threshold:
            return None
        heap: list[tuple[int, int, int, tuple[int | None, ...]]] = []
        tie = itertools.count()
        heapq.heappush(heap, (start_lb, next(tie), 0, ()))
        expansions = 0
        while heap:
            f, _, g_cost, mapping = heapq.heappop(heap)
            i = len(mapping)
            if i == self.n1:
                total = g_cost + self.goal_cost(mapping)
                if threshold is not None and total > threshold:
                    continue
                return total
            expansions += 1
            if expansions > MAX_EXPANSIONS:
                raise RuntimeError("GED search exceeded expansion budget")
            used = frozenset(d for d in mapping if d is not None)
            candidates: list[int | None] = [
                j for j in range(self.n2) if j not in used
            ]
            candidates.append(None)
            for b in candidates:
                g2_cost = g_cost + self.extend_cost(mapping, i, b)
                new_used = used | {b} if b is not None else used
                lb = self.lower_bound(i + 1, new_used)
                f2 = g2_cost + lb
                if threshold is not None and f2 > threshold:
                    continue
                heapq.heappush(heap, (f2, next(tie), g2_cost, mapping + (b,)))
        return None


def ged(g1: DataflowDAG, g2: DataflowDAG) -> int:
    """Exact graph edit distance between two dataflow DAGs."""
    out = _Search(g1, g2).run(threshold=None)
    assert out is not None
    return out


def ged_within(g1: DataflowDAG, g2: DataflowDAG, tau: float) -> int | None:
    """GED if ≤ ``tau`` else None — the pruned (AStar+-LSa-style)
    verification used by graph similarity search."""
    return _Search(g1, g2).run(threshold=tau)


class GEDCache:
    """GED memo keyed by the unordered pair of canonical structures, so the
    many structurally identical DAGs of an execution history, and every
    k-means step that meets the same pair again, cost one computation.

    It stores exact GEDs, and answers a within-τ query from an exact value
    when it holds one (the A* bound is exact at a full mapping, so
    ``ged_within(g1, g2, τ) == (d if d <= τ else None)``). Otherwise it
    runs the pruned :func:`ged_within`: a hit is the exact GED, a miss is
    remembered as "GED > τ". An exact query runs :func:`ged` at most once
    per pair. The memo never changes an answer, only how often it is
    computed; ``misses`` counts the exact searches it ran."""

    def __init__(self) -> None:
        self._exact: dict[tuple[str, str], int] = {}
        self._above: dict[tuple[str, str], float] = {}  # GED > this τ
        self.misses = 0

    @staticmethod
    def _pair(g1: DataflowDAG, g2: DataflowDAG) -> tuple[str, str] | None:
        k1, k2 = g1.canonical_key(), g2.canonical_key()
        if k1 == k2:
            return None
        return (k1, k2) if k1 < k2 else (k2, k1)

    def __call__(self, g1: DataflowDAG, g2: DataflowDAG) -> int:
        pair = self._pair(g1, g2)
        if pair is None:
            return 0
        d = self._exact.get(pair)
        if d is None:
            self.misses += 1
            d = self._exact[pair] = ged(g1, g2)
        return d

    def within(self, g1: DataflowDAG, g2: DataflowDAG, tau: float) -> int | None:
        """Same answer as ``ged_within(g1, g2, tau)``."""
        pair = self._pair(g1, g2)
        d = 0 if pair is None else self._exact.get(pair)
        if d is None:
            if self._above.get(pair, -math.inf) >= tau:
                return None
            d = ged_within(g1, g2, tau)
            if d is None:
                self._above[pair] = tau
                return None
            self._exact[pair] = d
        return d if d <= tau else None

    def missing(
        self, graphs: list[DataflowDAG], centers: list[DataflowDAG]
    ) -> list[tuple[DataflowDAG, DataflowDAG]]:
        """One ``(graph, center)`` pair for every distinct structure pair
        whose exact GED the memo lacks."""
        todo: dict[tuple[str, str], tuple[DataflowDAG, DataflowDAG]] = {}
        for g in graphs:
            for c in centers:
                pair = self._pair(g, c)
                if pair is not None and pair not in self._exact:
                    todo.setdefault(pair, (g, c))
        return list(todo.values())

    def put(self, g1: DataflowDAG, g2: DataflowDAG, d: int) -> None:
        """Record an exact GED computed elsewhere (e.g. on Spark)."""
        pair = self._pair(g1, g2)
        if pair is not None:
            self._exact[pair] = d
