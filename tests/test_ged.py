"""Unit tests for Graph Edit Distance: exact values on hand-built DAGs,
metric properties, threshold pruning, and the memo."""
import heapq
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.dag import DataflowDAG, Operator
from repro.graphs.ged import GEDCache, _as_struct, _Search, ged, ged_within
from repro.sim.workloads import full_catalogue


def chain(name: str, types: list[str]) -> DataflowDAG:
    ops = [Operator(f"o{i}", t) for i, t in enumerate(types)]
    edges = [(f"o{i}", f"o{i+1}") for i in range(len(types) - 1)]
    sources = {o.op_id: "s" for o in ops if o.op_type == "source"}
    return DataflowDAG(name, ops, edges, sources)


class TestExactValues:
    def test_identical_graphs(self):
        g = chain("a", ["source", "map", "sink"])
        assert ged(g, g) == 0

    def test_isomorphic_renamed(self):
        g1 = chain("a", ["source", "map", "sink"])
        ops = [Operator("x", "source"), Operator("y", "map"), Operator("z", "sink")]
        g2 = DataflowDAG("b", ops, [("x", "y"), ("y", "z")], {"x": "s"})
        assert ged(g1, g2) == 0

    def test_single_type_modification(self):
        g1 = chain("a", ["source", "map", "sink"])
        g2 = chain("b", ["source", "filter", "sink"])
        assert ged(g1, g2) == 1

    def test_node_insertion(self):
        g1 = chain("a", ["source", "map", "sink"])
        g2 = chain("b", ["source", "map", "filter", "sink"])
        # one node insert + rewire: delete (map,sink), insert (map,filter),
        # (filter,sink) minus matched — exact edit count is 3:
        # insert node, delete 1 edge, insert 2 edges → minus the reused one.
        assert ged(g1, g2) == 3

    def test_edge_direction_modification_costs_one(self):
        ops = [Operator("a", "map"), Operator("b", "filter")]
        g1 = DataflowDAG("g1", ops, [("a", "b")])
        g2 = DataflowDAG("g2", ops, [("b", "a")])
        assert ged(g1, g2) == 1

    def test_edge_deletion(self):
        ops = [Operator("a", "map"), Operator("b", "filter")]
        g1 = DataflowDAG("g1", ops, [("a", "b")])
        g2 = DataflowDAG("g2", ops, [])
        assert ged(g1, g2) == 1

    def test_empty_vs_graph(self):
        g1 = DataflowDAG("e", [Operator("a", "map")], [])
        g2 = chain("b", ["source", "map", "sink"])
        # 2 node inserts + 2 edge inserts
        assert ged(g1, g2) == 4

    def test_symmetry(self):
        g1 = chain("a", ["source", "map", "sink"])
        g2 = chain("b", ["source", "filter", "aggregate", "sink"])
        assert ged(g1, g2) == ged(g2, g1)


class TestThresholdSearch:
    def test_within_returns_exact_when_under(self):
        g1 = chain("a", ["source", "map", "sink"])
        g2 = chain("b", ["source", "filter", "sink"])
        assert ged_within(g1, g2, 5) == 1

    def test_within_none_when_over(self):
        g1 = chain("a", ["source", "map", "sink"])
        g2 = chain("b", ["source", "filter", "aggregate", "join", "sink"])
        d = ged(g1, g2)
        assert d > 1
        assert ged_within(g1, g2, d - 1) is None

    def test_within_boundary_inclusive(self):
        g1 = chain("a", ["source", "map", "sink"])
        g2 = chain("b", ["source", "filter", "sink"])
        assert ged_within(g1, g2, 1) == 1

    def test_within_zero_identical(self):
        g = chain("a", ["source", "map", "sink"])
        assert ged_within(g, g, 0) == 0


_TYPES = ["map", "filter", "join", "aggregate"]


@st.composite
def small_dag(draw, max_nodes=4):
    n = draw(st.integers(2, max_nodes))
    types = [draw(st.sampled_from(_TYPES)) for _ in range(n)]
    ops = [Operator(f"o{i}", t) for i, t in enumerate(types)]
    edges = []
    for j in range(1, n):
        i = draw(st.integers(0, j - 1))
        if draw(st.booleans()):
            edges.append((f"o{i}", f"o{j}"))
    return DataflowDAG("h", ops, list(set(edges)))


def _reference_search(g1, g2, tau):
    """The A* search recomputing every bound from scratch from label
    multisets and edge scans: (answer, states expanded)."""
    lab1, e1 = _as_struct(g1)
    lab2, e2 = _as_struct(g2)
    n1, n2 = len(lab1), len(lab2)

    def lower_bound(i, used):
        inter = sum((Counter(lab1[i:]) & (Counter(lab2) - Counter(lab2[j] for j in used))).values())
        e1_rem = sum(1 for u, v in e1 if u >= i or v >= i)
        e2_rem = sum(1 for u, v in e2 if u not in used or v not in used)
        return max(n1 - i, n2 - len(used)) - inter + abs(e1_rem - e2_rem)

    def dirs(edges, a, b):
        return ((a, b) in edges) + ((b, a) in edges), (a, b) in edges

    def extend_cost(mapping, a, b):
        cost = 1 if b is None or lab1[a] != lab2[b] else 0
        for c, d in enumerate(mapping):
            k1, s1 = dirs(e1, c, a)
            if b is None or d is None:
                cost += k1
                continue
            k2, s2 = dirs(e2, d, b)
            cost += 1 if k1 == k2 == 1 and s1 != s2 else abs(k1 - k2)
        return cost

    start = lower_bound(0, frozenset())
    if tau is not None and start > tau:
        return None, 0
    heap, tie, expansions = [(start, 0, 0, ())], itertools.count(1), 0
    while heap:
        _, _, g, mapping = heapq.heappop(heap)
        used = frozenset(d for d in mapping if d is not None)
        i = len(mapping)
        if i == n1:
            total = g + n2 - len(used) + sum(1 for u, v in e2 if u not in used or v not in used)
            if tau is None or total <= tau:
                return total, expansions
            continue
        expansions += 1
        for b in [j for j in range(n2) if j not in used] + [None]:
            g2 = g + extend_cost(mapping, i, b)
            f2 = g2 + lower_bound(i + 1, used | {b} if b is not None else used)
            if tau is None or f2 <= tau:
                heapq.heappush(heap, (f2, next(tie), g2, mapping + (b,)))
    return None, expansions


class TestReferenceSearch:
    @settings(max_examples=40, deadline=None)
    @given(small_dag(max_nodes=6), small_dag(max_nodes=6), st.sampled_from([None, 1, 3]))
    def test_same_answers_and_expansions(self, g1, g2, tau):
        """The incremental bounds prune and expand exactly like bounds
        recomputed from scratch."""
        search = _Search(g1, g2)
        assert (search.run(threshold=tau), search.expansions) == _reference_search(g1, g2, tau)


class TestMetricProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_dag(), small_dag(), small_dag())
    def test_triangle_inequality(self, g1, g2, g3):
        assert ged(g1, g3) <= ged(g1, g2) + ged(g2, g3)

    @settings(max_examples=25, deadline=None)
    @given(small_dag(), small_dag())
    def test_symmetry_and_nonnegative(self, g1, g2):
        d = ged(g1, g2)
        assert d >= 0
        assert d == ged(g2, g1)

    @settings(max_examples=15, deadline=None)
    @given(small_dag())
    def test_identity(self, g):
        assert ged(g, g) == 0


class TestCache:
    def test_cache_hits(self):
        g1 = chain("a", ["source", "map", "sink"])
        g2 = chain("b", ["source", "filter", "sink"])
        g1b = chain("c", ["source", "map", "sink"])  # same structure as g1
        cache = GEDCache()
        assert cache(g1, g2) == 1
        assert cache.misses == 1
        search = _Search(g1, g2)
        search.run(threshold=None)
        assert cache.expansions == search.expansions > 0
        assert cache(g1b, g2) == 1  # canonical-key hit
        assert cache.misses == 1
        assert cache(g1, g1b) == 0  # identical structures short-circuit
        assert cache.misses == 1
        assert cache.expansions == search.expansions

    def test_cache_correctness(self):
        g1 = chain("a", ["source", "map", "sink"])
        g2 = chain("b", ["source", "filter", "aggregate", "sink"])
        cache = GEDCache()
        assert cache(g1, g2) == ged(g1, g2)


@pytest.fixture(scope="module")
def catalogue_dags():
    """One DAG per distinct structure of the Flink catalogue."""
    seen: dict[str, DataflowDAG] = {}
    for wl in full_catalogue("flink").values():
        seen.setdefault(wl.dag.canonical_key(), wl.dag)
    return list(seen.values())


class TestMemo:
    @pytest.mark.parametrize("taus", [(0, 1, 3, 5), (5, 3, 1, 0)])
    def test_within_matches_ged_within(self, catalogue_dags, taus):
        """One memo across every τ, in rising and falling order, with the
        exact GED of every third pair known beforehand: each answer, in
        both argument orders, is the pruned search's own."""
        pairs = list(itertools.combinations(catalogue_dags, 2))
        memo = GEDCache()
        for a, b in pairs[::3]:
            memo(a, b)
        for tau in taus:
            for a, b in pairs:
                assert memo.within(a, b, tau) == ged_within(a, b, tau)
                assert memo.within(b, a, tau) == ged_within(b, a, tau)

    def test_exact_after_verdict(self, catalogue_dags):
        memo = GEDCache()
        over = 0
        for a, b in itertools.combinations(catalogue_dags, 2):
            if memo.within(a, b, 1) is None:
                over += 1
                assert memo(b, a) == ged(a, b)
        assert over > 0
        assert memo.misses == over  # hits under τ were already exact

    def test_missing_and_put(self, catalogue_dags):
        a, b, c = catalogue_dags[:3]
        memo = GEDCache()
        memo(a, b)
        assert memo.missing([a, b, a], [a, b, c]) == [(a, c), (b, c)]
        memo.put(c, a, 7)
        assert memo(a, c) == 7
        assert memo.missing([a, b], [c]) == [(b, c)]



def golden_structures() -> list[tuple[str, DataflowDAG]]:
    """One (workload name, DAG) per distinct structure of the Flink and
    Timely catalogues, first by system, then by name."""
    seen: dict[str, tuple[str, DataflowDAG]] = {}
    for system in ("flink", "timely"):
        for name, wl in sorted(full_catalogue(system).items()):
            seen.setdefault(wl.dag.canonical_key(), (name, wl.dag))
    return list(seen.values())


def golden_answers() -> dict[str, dict[str, list]]:
    """Per unordered pair of distinct structures: the exact GED and the
    within-τ answers at τ = 5 and τ = 2, each with its A* expansions."""
    out = {}
    for (n1, g1), (n2, g2) in itertools.combinations(golden_structures(), 2):
        row = {}
        for label, tau in (("ged", None), ("within_5", 5), ("within_2", 2)):
            search = _Search(g1, g2)
            row[label] = [search.run(threshold=tau), search.expansions]
        out[f"{n1}|{n2}"] = row
    return out


def test_ged_golden():
    """Every answer and every expansion count of the search, pinned: a
    faster bound must prune and expand exactly as before."""
    golden = json.loads(Path(__file__).with_name("ged_golden.json").read_text())
    n = len(golden_structures())
    assert len(golden) == n * (n - 1) // 2
    assert golden_answers() == golden
