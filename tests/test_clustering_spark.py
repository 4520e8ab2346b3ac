"""Spark-parallel k-means assignment must agree with the local path."""
import pytest

from repro.graphs.clustering import _assign_local, assign_with_spark, kmeans_ged
from repro.graphs.dag import DataflowDAG, Operator
from repro.graphs.ged import GEDCache
from repro.sim.workloads import full_catalogue


def chain(name, types):
    ops = [Operator(f"o{i}", t) for i, t in enumerate(types)]
    edges = [(f"o{i}", f"o{i+1}") for i in range(len(types) - 1)]
    sources = {o.op_id: "s" for o in ops if o.op_type == "source"}
    return DataflowDAG(name, ops, edges, sources)


class _NoSpark:
    """Stands in for a SparkSession that must not be used."""

    def __getattr__(self, name):
        raise AssertionError(f"Spark used: spark.{name}")


@pytest.fixture(scope="module")
def graphs():
    fam_a = [chain(f"a{i}", ["source", "map", "sink"]) for i in range(4)]
    fam_b = [
        chain(f"b{i}", ["source", "filter", "join", "aggregate", "sink"])
        for i in range(4)
    ]
    return fam_a + fam_b


class TestSparkAssignment:
    def test_parity_with_local(self, spark, graphs):
        centers = [graphs[0], graphs[4]]
        local_assign, local_inertia = _assign_local(graphs, centers, GEDCache())
        dist_assign, dist_inertia = assign_with_spark(spark, graphs, centers)
        assert dist_assign == local_assign
        assert dist_inertia == pytest.approx(local_inertia)

    def test_kmeans_with_spark_backend(self, spark, graphs):
        res = kmeans_ged(graphs, k=2, seed=0, spark=spark)
        assert len(set(res.assignments[:4])) == 1
        assert len(set(res.assignments[4:])) == 1
        assert res.assignments[0] != res.assignments[4]

    def test_kmeans_memo_cold_matches_local_warm_starts_no_job(self, spark):
        """Every catalogue DAG (17 structures, most several times): Spark
        k-means on a cold memo equals the local result; rerun on the now
        warm memo, it needs no distance the memo lacks and so no Spark."""
        dags = [wl.dag for wl in full_catalogue("flink").values()]
        local = kmeans_ged(dags, k=3, seed=1)
        memo = GEDCache()
        cold = kmeans_ged(dags, k=3, seed=1, spark=spark, memo=memo)
        assert cold == local
        assert memo.misses == 0  # all exact GEDs came from Spark
        assert kmeans_ged(dags, k=3, seed=1, spark=_NoSpark(), memo=memo) == local
