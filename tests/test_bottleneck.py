"""Tests for Algorithm 1 — operator-level bottleneck identification."""
import pytest

from repro.core import bottleneck
from repro.core.bottleneck import CPU_THRESHOLD, UNLABELLED, label_operators
from repro.graphs.dag import DataflowDAG, Operator
from repro.sim.engine import simulate, unit_rate


def _fig3_dag() -> DataflowDAG:
    """The paper's Fig. 3: O1 fans out to O2 (hot) and O3 (cold); O4
    downstream of O2."""
    return DataflowDAG(
        "fig3",
        [
            Operator("src", "source"),
            Operator("o1", "map"),
            Operator("o2", "window_agg", selectivity=0.5),
            Operator("o3", "filter", selectivity=0.5),
            Operator("o4", "aggregate"),
            Operator("k", "sink"),
        ],
        [("src", "o1"), ("o1", "o2"), ("o1", "o3"), ("o2", "o4"), ("o4", "k"), ("o3", "k")],
        {"src": "in"},
    )


class TestNoBackpressure:
    def test_all_labelled_zero(self):
        dag = _fig3_dag()
        res = simulate(dag, {o: 50 for o in dag.tunable_operators()}, {"in": 1000.0}, seed=0)
        assert not res.job_backpressure
        labels = label_operators(dag, res)
        assert set(labels.values()) == {0}
        assert len(labels) == len(dag.operators)


class TestFig3Scenario:
    def test_hot_downstream_labelled_bottleneck(self):
        """O2 saturated (CPU ~100 %) while O3 is nearly idle: O2 → 1,
        O3 → 0, others unlabelled (the paper's Fig. 3 outcome)."""
        dag = _fig3_dag()
        rate = unit_rate(dag.op("o2")) * 6  # o2 at p=1 drowns
        par = {"o1": 100, "o2": 1, "o3": 100, "o4": 100}
        res = simulate(dag, par, {"in": rate}, seed=1)
        assert res.job_backpressure
        assert res.metrics["o2"].is_bottleneck_cause
        labels = label_operators(dag, res)
        assert labels["o2"] == 1
        assert labels["o3"] == 0
        # o4 sits below the bottleneck: its offered rate is distorted, so
        # Algorithm 1 leaves it unlabelled.
        assert labels["o4"] == UNLABELLED

    def test_threshold_controls_labelling(self, monkeypatch):
        dag = _fig3_dag()
        rate = unit_rate(dag.op("o2")) * 6
        par = {"o1": 100, "o2": 1, "o3": 100, "o4": 100}
        res = simulate(dag, par, {"in": rate}, seed=1)
        # With an absurd threshold nothing clears the bar.
        monkeypatch.setattr(bottleneck, "CPU_THRESHOLD", 1.1)
        labels = label_operators(dag, res)
        assert labels["o2"] == 0


class TestChainCascade:
    def test_only_tail_bottleneck_downstream_labelled(self):
        """src → a → b where b is the real bottleneck: backpressure
        cascades to a and src; Algorithm 1 labels b via the most
        downstream backpressured operator (a)."""
        dag = DataflowDAG(
            "chain",
            [
                Operator("src", "source"),
                Operator("a", "map"),
                Operator("b", "window_agg"),
                Operator("k", "sink"),
            ],
            [("src", "a"), ("a", "b"), ("b", "k")],
            {"src": "in"},
        )
        rate = unit_rate(dag.op("b")) * 6
        res = simulate(dag, {"a": 100, "b": 1}, {"in": rate}, seed=1)
        assert res.metrics["b"].is_bottleneck_cause
        labels = label_operators(dag, res)
        assert labels["b"] == 1
        assert labels["a"] == UNLABELLED  # backpressured, not examined


class TestHelpers:
    def test_threshold_constant_matches_paper(self):
        assert CPU_THRESHOLD == pytest.approx(0.60)  # "CPU load exceeding 60%"
