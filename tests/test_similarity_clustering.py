"""Tests for pairwise GED within tau, similarity centers (Defs. 1–2) and
GED k-means clustering (§IV-C)."""
import pytest

from repro.graphs.clustering import elbow_k, kmeans_ged, nearest_center
from repro.graphs.dag import DataflowDAG, Operator
from repro.graphs.ged import ged
from repro.graphs.similarity import pairwise_ged_within, similarity_center


def chain(name, types):
    ops = [Operator(f"o{i}", t) for i, t in enumerate(types)]
    edges = [(f"o{i}", f"o{i+1}") for i in range(len(types) - 1)]
    sources = {o.op_id: "s" for o in ops if o.op_type == "source"}
    return DataflowDAG(name, ops, edges, sources)


def _two_families(n_a=4, n_b=4):
    """Two structurally distinct families: short map chains and long
    join chains."""
    fam_a = [chain(f"a{i}", ["source", "map", "sink"]) for i in range(n_a)]
    fam_b = [
        chain(f"b{i}", ["source", "filter", "join", "aggregate", "window_agg", "sink"])
        for i in range(n_b)
    ]
    return fam_a, fam_b


class TestPairwise:
    def test_diagonal_zero(self):
        fam_a, _ = _two_families(3, 0)
        within = pairwise_ged_within(fam_a, tau=5)
        assert all(within[(i, i)] == 0 for i in range(3))

    def test_over_threshold_absent(self):
        a = chain("a", ["source", "map", "sink"])
        b = chain("b", ["source", "filter", "join", "aggregate", "window_agg", "sink"])
        within = pairwise_ged_within([a, b], tau=2)
        assert (0, 1) not in within
        assert ged(a, b) > 2

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            pairwise_ged_within([], 1, method="magic")


class TestSimilarityCenter:
    def test_majority_structure_wins(self):
        fam_a, fam_b = _two_families(5, 2)
        center = similarity_center(fam_a + fam_b, tau=2)
        assert center.canonical_key() == fam_a[0].canonical_key()

    def test_single_graph(self):
        g = chain("g", ["source", "map", "sink"])
        assert similarity_center([g], tau=1).canonical_key() == g.canonical_key()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            similarity_center([], tau=1)

    def test_methods_agree(self):
        fam_a, fam_b = _two_families(3, 2)
        c1 = similarity_center(fam_a + fam_b, tau=3, method="astar_lsa")
        c2 = similarity_center(fam_a + fam_b, tau=3, method="direct")
        assert c1.canonical_key() == c2.canonical_key()


class TestKMeans:
    def test_separates_two_families(self):
        fam_a, fam_b = _two_families(5, 5)
        res = kmeans_ged(fam_a + fam_b, k=2, seed=0)
        a_clusters = set(res.assignments[:5])
        b_clusters = set(res.assignments[5:])
        assert len(a_clusters) == 1
        assert len(b_clusters) == 1
        assert a_clusters != b_clusters
        assert res.inertia == pytest.approx(0.0)

    def test_k1_groups_everything(self):
        fam_a, fam_b = _two_families(3, 3)
        res = kmeans_ged(fam_a + fam_b, k=1, seed=0)
        assert set(res.assignments) == {0}
        assert res.inertia > 0

    def test_invalid_k(self):
        fam_a, _ = _two_families(2, 0)
        with pytest.raises(ValueError):
            kmeans_ged(fam_a, k=0)
        with pytest.raises(ValueError):
            kmeans_ged(fam_a, k=3)

    def test_deterministic(self):
        fam_a, fam_b = _two_families(4, 4)
        r1 = kmeans_ged(fam_a + fam_b, k=2, seed=5)
        r2 = kmeans_ged(fam_a + fam_b, k=2, seed=5)
        assert r1.assignments == r2.assignments

    def test_centers_are_members(self):
        fam_a, fam_b = _two_families(4, 4)
        res = kmeans_ged(fam_a + fam_b, k=2, seed=0)
        keys = {g.canonical_key() for g in fam_a + fam_b}
        assert all(c.canonical_key() in keys for c in res.centers)


class TestElbowAndRouting:
    def test_elbow_reasonable(self):
        fam_a, fam_b = _two_families(5, 5)
        k = elbow_k(fam_a + fam_b, k_max=4, seed=0)
        assert 1 <= k <= 4

    def test_nearest_center_routes_to_own_family(self):
        fam_a, fam_b = _two_families(3, 3)
        centers = [fam_a[0], fam_b[0]]
        q = chain("q", ["source", "map", "sink"])
        assert nearest_center(q, centers) == 0
        q2 = chain(
            "q2", ["source", "filter", "join", "aggregate", "window_agg", "sink"]
        )
        assert nearest_center(q2, centers) == 1
