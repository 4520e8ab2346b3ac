"""Benchmark: reproduce Fig. 11b (as a table) — similarity-center
computation time: threshold-pruned (AStar+-LSa-style) search vs direct
full-GED computation, as the number of clustered DAGs grows.

Paper's shape: direct GED cost grows steeply with the DAG count while
the pruned search stays low (99.65 % reduction at 400 DAGs)."""
from repro.tables import fig11b_simcenter


def test_bench_fig11b(benchmark):
    df = benchmark.pedantic(
        fig11b_simcenter, kwargs=dict(sizes=(50, 100, 200, 400)), rounds=1, iterations=1
    )
    print("\nFig. 11b — similarity-center computation time:")
    print(df.to_string(index=False))
    assert (df["direct GED (s)"] >= df["AStar+-LSa (s)"]).all()
    assert (df["AStar+-LSa expansions"] < df["direct expansions"]).all()
