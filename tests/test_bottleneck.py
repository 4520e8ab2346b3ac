"""Tests for Algorithm 1 — operator-level bottleneck identification."""
from dataclasses import replace

import pytest

from repro.core import bottleneck
from repro.core.bottleneck import CPU_THRESHOLD, UNLABELLED, label_operators, on_edge, saturated_ops
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


class TestTimelyDeficit:
    def test_deficit_operator_labelled_and_descendants_unlabelled(self):
        """Timely: the operator whose PA is below 85 % of its input is the
        bottleneck (1), its descendants see distorted input (−1), every
        other operator is sufficient (0); no throttle, so no augmentation."""
        dag = DataflowDAG(
            "chain",
            [
                Operator("src", "source"),
                Operator("f", "filter"),
                Operator("m", "map"),
                Operator("k", "sink"),
            ],
            [("src", "f"), ("f", "m"), ("m", "k")],
            {"src": "in"},
        )
        rate = unit_rate(dag.op("m"), "timely") * 6
        res = simulate(dag, {"f": 12, "m": 1}, {"in": rate}, system="timely", seed=0)
        assert res.job_backpressure
        assert label_operators(dag, res) == {"src": 0, "f": 0, "m": 1, "k": UNLABELLED}
        assert saturated_ops(dag, res) == set()


def _healthy(system: str, cpu: dict[str, float] | None = None):
    """A backpressure-free Fig. 3 deployment on ``system`` whose observed
    CPU is 0.5 everywhere except the given ``cpu`` overrides."""
    dag = _fig3_dag()
    res = simulate(dag, {o: 50 for o in dag.tunable_operators()}, {"in": 1000.0},
                   system=system, seed=0)
    assert not res.job_backpressure
    cpu = {o: 0.5 for o in res.metrics} | (cpu or {})
    return dag, replace(res, metrics={o: replace(m, observed_cpu=cpu[o]) for o, m in res.metrics.items()})


class TestOnEdge:
    """The detection-edge test StreamTune's guard rails share."""

    @pytest.mark.parametrize("system", ["flink", "timely"])
    def test_detected_backpressure_is_on_the_edge(self, system):
        dag, res = _healthy(system)
        assert not on_edge(dag, res)
        assert on_edge(dag, replace(res, job_backpressure=True))

    @pytest.mark.parametrize("throttle, edge", [(1.0, False), (0.96, False), (0.94, True)])
    def test_flink_reads_the_source_throttle(self, throttle, edge):
        dag, res = _healthy("flink", {"o2": 0.99})
        assert on_edge(dag, replace(res, throttle=throttle)) is edge

    @pytest.mark.parametrize("op, edge", [("o2", True), ("src", False), ("k", False)])
    def test_timely_reads_tunable_operators_cpu(self, op, edge):
        dag, res = _healthy("timely", {op: 0.98})
        assert on_edge(dag, res) is edge


class TestHelpers:
    def test_threshold_constant_matches_paper(self):
        assert CPU_THRESHOLD == pytest.approx(0.60)  # "CPU load exceeding 60%"
