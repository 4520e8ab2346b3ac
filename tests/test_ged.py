"""Unit tests for Graph Edit Distance: exact values on hand-built DAGs,
metric properties, threshold pruning, and the memo."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.dag import DataflowDAG, Operator
from repro.graphs.ged import GEDCache, ged, ged_within
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
def small_dag(draw):
    n = draw(st.integers(2, 4))
    types = [draw(st.sampled_from(_TYPES)) for _ in range(n)]
    ops = [Operator(f"o{i}", t) for i, t in enumerate(types)]
    edges = []
    for j in range(1, n):
        i = draw(st.integers(0, j - 1))
        if draw(st.booleans()):
            edges.append((f"o{i}", f"o{j}"))
    return DataflowDAG("h", ops, list(set(edges)))


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
        assert cache(g1b, g2) == 1  # canonical-key hit
        assert cache.misses == 1
        assert cache(g1, g1b) == 0  # identical structures short-circuit
        assert cache.misses == 1

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

