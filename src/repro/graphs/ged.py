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

from .dag import CATEGORIES, DataflowDAG

#: Safety valve: exact GED search aborts past this many expansions. Far
#: above anything the <20-node workload DAGs need; prevents pathological
#: hand-built inputs from hanging tests.
MAX_EXPANSIONS = 2_000_000


def _as_struct(g: DataflowDAG) -> tuple[list[str], set[tuple[int, int]]]:
    """Labels of the nodes in a search-friendly order, and the edge set
    over their indices in that order."""
    order = g.topological_order()
    deg = Counter(o for e in g.edges for o in e)
    # High-degree nodes first: their edge constraints prune earliest.
    ids = sorted(order, key=lambda o: (-deg[o], order.index(o)))
    idx = {o: i for i, o in enumerate(ids)}
    return [g.op(o).op_type for o in ids], {(idx[u], idx[v]) for u, v in g.edges}


#: Edges joining a node pair, by the pair's edge code: 0 none, 1 forward,
#: 2 backward, 3 both.
_N_EDGES = (0, 1, 1, 2)


def _pair_cost(c1: int, c2: int) -> int:
    """Edit cost between the (≤2) directed edges joining one node pair in
    each graph, given by their edge codes. A reversal (one edge on each
    side, in different directions) costs 1; otherwise the count
    difference is paid in inserts/deletes."""
    n1, n2 = _N_EDGES[c1], _N_EDGES[c2]
    if n1 == n2 == 1 and c1 != c2:
        return 1
    return abs(n1 - n2)


_PAIR_COST = [[_pair_cost(c1, c2) for c2 in range(4)] for c1 in range(4)]


def _edge_codes(n: int, edges: set[tuple[int, int]]) -> list[list[int]]:
    """``codes[a][b]``: the edge code of node pair (a, b)."""
    return [[((a, b) in edges) + 2 * ((b, a) in edges) for b in range(n)] for a in range(n)]


#: Each structure's search set-up (see :func:`_setup`), by canonical key.
_SETUPS: dict[str, tuple] = {}


def _setup(g: DataflowDAG) -> tuple:
    """The search tables of one structure, over its nodes in ``_as_struct``
    order: label codes (indices into ``CATEGORIES["op_type"]``), the label
    counts and the number of edges with an endpoint from each depth on, and each
    node pair's edge code and edge count. They depend only on the labels
    and edges over topological positions, which the canonical key fixes,
    so each structure's tables are built once."""
    key = g.canonical_key()
    if key not in _SETUPS:
        types, edges = _as_struct(g)
        labels = [CATEGORIES["op_type"].index(t) for t in types]
        suffix = [[0] * len(CATEGORIES["op_type"])]
        for lab in reversed(labels):
            suffix.insert(0, suffix[0][:])
            suffix[0][lab] += 1
        edges_rem = [sum(1 for u, v in edges if max(u, v) >= i) for i in range(len(labels) + 1)]
        codes = _edge_codes(len(labels), edges)
        _SETUPS[key] = labels, suffix, edges_rem, codes, [[_N_EDGES[c] for c in r] for r in codes]
    return _SETUPS[key]


class _Search:
    """Best-first search over mappings of g1's nodes, in ``_as_struct``
    order, to g2's nodes or to deletion.

    A state at depth i maps g1's first i nodes. Its lower bound on the
    completion cost is the label-multiset bound on the undecided nodes of
    both graphs, plus the difference between the two graphs' counts of
    edges with an undecided endpoint; both are admissible. The two
    structures' :func:`_setup` tables make a child's bound an update of
    its parent's: one label count less, and the g2 edges from the new node
    into the used set."""

    def __init__(self, g1: DataflowDAG, g2: DataflowDAG):
        lab1, suffix1, self.edges1_rem, self.codes1, _ = _setup(g1)
        lab2, suffix2, edges2_rem, self.codes2, self.nbrs2 = _setup(g2)
        # Label counts over the pair's own labels only: the bound sums
        # over them once per popped state.
        cols = sorted(set(lab1) | set(lab2))
        pos = {c: j for j, c in enumerate(cols)}
        self.lab1, self.lab2 = [pos[c] for c in lab1], [pos[c] for c in lab2]
        self.suffix1 = [[row[c] for c in cols] for row in suffix1]
        self.totals2, self.n_edges2 = [suffix2[0][c] for c in cols], edges2_rem[0]
        self.n1, self.n2 = len(lab1), len(lab2)
        #: States popped and expanded by :meth:`run`.
        self.expansions = 0

    def run(self, threshold: float | None) -> int | None:
        """Exact GED; ``None`` when a threshold is given and exceeded."""
        n1, n2, lab1, lab2, nbrs2 = self.n1, self.n2, self.lab1, self.lab2, self.nbrs2
        n_edges2 = self.n_edges2
        no_edges = [0] * n2  # the codes of a deleted node's pairs
        inter = sum(map(min, self.suffix1[0], self.totals2))
        start_lb = max(n1, n2) - inter + abs(self.edges1_rem[0] - n_edges2)
        if threshold is not None and start_lb > threshold:
            return None
        heap: list[tuple[int, int, int, tuple[int | None, ...]]] = []
        tie = itertools.count()
        heapq.heappush(heap, (start_lb, next(tie), 0, ()))
        while heap:
            f, _, g_cost, mapping = heapq.heappop(heap)
            i = len(mapping)
            used = [d for d in mapping if d is not None]
            covered = sum(nbrs2[u][v] for k, u in enumerate(used) for v in used[:k])
            if i == n1:
                total = g_cost + n2 - len(used) + n_edges2 - covered
                if threshold is not None and total > threshold:
                    continue
                return total
            self.expansions += 1
            if self.expansions > MAX_EXPANSIONS:
                raise RuntimeError("GED search exceeded expansion budget")
            rem2 = self.totals2[:]
            for d in used:
                rem2[lab2[d]] -= 1
            rem1 = self.suffix1[i + 1]
            inter = sum(map(min, rem1, rem2))
            r1, r2 = n1 - i - 1, n2 - len(used)
            edges1_rem = self.edges1_rem[i + 1]
            # (cost row of g1 pair (c, i), g2 codes of c's image) for each
            # decided c whose pair with i can cost anything.
            pairs = [
                (_PAIR_COST[self.codes1[c][i]], no_edges if d is None else self.codes2[d])
                for c, d in enumerate(mapping)
                if d is not None or self.codes1[c][i]
            ]
            used_set = set(used)
            for b in range(n2):
                if b in used_set:
                    continue
                lab = lab2[b]
                g2_cost = g_cost + (lab1[i] != lab) + sum(cost[row[b]] for cost, row in pairs)
                inter_b = inter - (rem1[lab] >= rem2[lab])  # one g2 label less
                covered_b = covered + sum(nbrs2[b][u] for u in used)
                f2 = g2_cost + max(r1, r2 - 1) - inter_b + abs(edges1_rem - (n_edges2 - covered_b))
                if threshold is not None and f2 > threshold:
                    continue
                heapq.heappush(heap, (f2, next(tie), g2_cost, mapping + (b,)))
            # Delete g1 node i: its edges to decided nodes go with it.
            g2_cost = g_cost + 1 + sum(cost[0] for cost, _ in pairs)
            f2 = g2_cost + max(r1, r2) - inter + abs(edges1_rem - (n_edges2 - covered))
            if threshold is not None and f2 > threshold:
                continue
            heapq.heappush(heap, (f2, next(tie), g2_cost, mapping + (None,)))
        return None


def _run(g1: DataflowDAG, g2: DataflowDAG, tau: float | None, tally: GEDCache | None) -> int | None:
    search = _Search(g1, g2)
    d = search.run(threshold=tau)
    if tally is not None:
        tally.expansions += search.expansions
    return d


def ged(g1: DataflowDAG, g2: DataflowDAG, *, tally: GEDCache | None = None) -> int:
    """Exact graph edit distance between two dataflow DAGs. The search's
    expansions are added to ``tally.expansions`` when a memo is given."""
    out = _run(g1, g2, None, tally)
    assert out is not None
    return out


def ged_within(
    g1: DataflowDAG, g2: DataflowDAG, tau: float, *, tally: GEDCache | None = None
) -> int | None:
    """GED if ≤ ``tau`` else None — the pruned (AStar+-LSa-style)
    verification used by graph similarity search. ``tally`` as for
    :func:`ged`."""
    return _run(g1, g2, tau, tally)


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
    computed; ``misses`` counts the exact searches it ran, and
    ``expansions`` the A* states expanded by every search it ran."""

    def __init__(self) -> None:
        self._exact: dict[tuple[str, str], int] = {}
        self._above: dict[tuple[str, str], float] = {}  # GED > this τ
        self.misses = 0
        self.expansions = 0

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
            d = self._exact[pair] = ged(g1, g2, tally=self)
        return d

    def within(self, g1: DataflowDAG, g2: DataflowDAG, tau: float) -> int | None:
        """Same answer as ``ged_within(g1, g2, tau)``."""
        pair = self._pair(g1, g2)
        d = 0 if pair is None else self._exact.get(pair)
        if d is None:
            if self._above.get(pair, -math.inf) >= tau:
                return None
            d = ged_within(g1, g2, tau, tally=self)
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
