"""Unit tests for the dataflow execution simulator."""
import json
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.dag import DataflowDAG, Operator
from repro.sim.engine import (
    FLINK_BP_DETECT,
    TIMELY_DEFICIT,
    epoch_latencies,
    processing_ability,
    simulate,
    unit_rate,
)
from repro.sim.workloads import full_catalogue


def _chain(sel: float = 1.0) -> DataflowDAG:
    return DataflowDAG(
        "chain",
        [
            Operator("src", "source"),
            Operator("f", "filter", selectivity=sel),
            Operator("m", "map"),
            Operator("k", "sink"),
        ],
        [("src", "f"), ("f", "m"), ("m", "k")],
        {"src": "in"},
    )


class TestProcessingAbility:
    def test_monotone_increasing_in_p(self):
        op = Operator("x", "window_agg", window_type="tumbling", window_policy="time", window_length=10)
        pas = [processing_ability(op, p) for p in range(1, 101)]
        assert all(b > a for a, b in zip(pas, pas[1:]))

    def test_sublinear_scaling(self):
        op = Operator("x", "join")
        assert processing_ability(op, 10) < 10 * processing_ability(op, 1)

    def test_p1_equals_unit_rate(self):
        op = Operator("x", "filter")
        assert processing_ability(op, 1) == pytest.approx(unit_rate(op))

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            processing_ability(Operator("x", "map"), 0)

    def test_width_slows_operator(self):
        narrow = Operator("a", "map", tuple_width_in=1.0)
        wide = Operator("b", "map", tuple_width_in=10.0)
        assert unit_rate(wide) == pytest.approx(unit_rate(narrow) / 10.0)

    def test_window_slows_operator(self):
        plain = Operator("a", "window_agg")
        windowed = Operator(
            "b", "window_agg", window_type="tumbling", window_policy="time", window_length=30
        )
        assert unit_rate(windowed) < unit_rate(plain)

    def test_sliding_overlap_extra_cost(self):
        tumble = Operator(
            "a", "window_agg", window_type="tumbling", window_policy="time", window_length=60
        )
        slide = Operator(
            "b", "window_agg", window_type="sliding", window_policy="time",
            window_length=60, sliding_length=10,
        )
        assert unit_rate(slide) < unit_rate(tumble)

    def test_timely_faster_than_flink(self):
        op = Operator("x", "filter")
        assert unit_rate(op, "timely") > unit_rate(op, "flink")

    def test_source_unbounded(self):
        assert np.isinf(unit_rate(Operator("s", "source")))


class TestSimulateFlink:
    def test_no_backpressure_when_overprovisioned(self):
        dag = _chain()
        op = dag.op("f")
        need = unit_rate(op)
        res = simulate(dag, {"f": 10, "m": 10}, {"in": need * 0.5}, seed=1)
        assert not res.job_backpressure
        assert res.throttle == 1.0
        assert not any(m.is_bottleneck_cause for m in res.metrics.values())

    def test_backpressure_when_underprovisioned(self):
        dag = _chain()
        rate = unit_rate(dag.op("f")) * 5  # needs ~5 slots, give 1
        res = simulate(dag, {"f": 1, "m": 10}, {"in": rate}, seed=1)
        assert res.job_backpressure
        assert res.metrics["f"].is_bottleneck_cause
        assert res.throttle < 1.0
        # Source (ancestor of the bottleneck) is flagged backpressured.
        assert res.metrics["src"].under_backpressure

    def test_bottleneck_itself_is_busy_not_backpressured(self):
        dag = _chain()
        rate = unit_rate(dag.op("f")) * 5
        res = simulate(dag, {"f": 1, "m": 10}, {"in": rate}, seed=1)
        m = res.metrics["f"]
        assert m.busy == pytest.approx(1.0, abs=1e-6)
        assert not m.under_backpressure

    def test_throttle_matches_binding_ratio(self):
        dag = _chain()
        rate = unit_rate(dag.op("f")) * 2
        res = simulate(dag, {"f": 1, "m": 10}, {"in": rate}, seed=1)
        # PA jitter is ±3 %, so α ≈ 0.5.
        assert res.throttle == pytest.approx(0.5, rel=0.1)

    def test_grace_region_not_detected(self):
        """Slight under-provisioning (bp fraction below 10 %) is not
        detected as backpressure — the paper's Flink rule."""
        dag = _chain()
        op = dag.op("f")
        rate = processing_ability(op, 10) * (1.0 + FLINK_BP_DETECT / 2)
        res = simulate(dag, {"f": 10, "m": 100}, {"in": rate}, seed=2)
        if res.throttle > 1.0 - FLINK_BP_DETECT:  # inside grace region
            assert not res.job_backpressure

    def test_selectivity_propagates(self):
        dag = _chain(sel=0.25)
        res = simulate(dag, {"f": 50, "m": 50}, {"in": 100_000}, seed=1)
        assert res.metrics["m"].input_rate == pytest.approx(25_000)

    def test_deterministic(self):
        dag = _chain()
        a = simulate(dag, {"f": 3, "m": 3}, {"in": 500_000}, seed=7)
        b = simulate(dag, {"f": 3, "m": 3}, {"in": 500_000}, seed=7)
        assert a.metrics["f"].observed_busy == b.metrics["f"].observed_busy
        assert a.throttle == b.throttle

    def test_seed_changes_observations(self):
        dag = _chain()
        a = simulate(dag, {"f": 3, "m": 3}, {"in": 500_000}, seed=7)
        b = simulate(dag, {"f": 3, "m": 3}, {"in": 500_000}, seed=8)
        assert a.metrics["f"].observed_busy != b.metrics["f"].observed_busy

    def test_missing_rate_rejected(self):
        with pytest.raises(ValueError, match="missing source rates"):
            simulate(_chain(), {"f": 1, "m": 1}, {"wrong": 1.0})

    def test_bad_parallelism_rejected(self):
        with pytest.raises(ValueError, match=">=1"):
            simulate(_chain(), {"f": 0, "m": 1}, {"in": 1.0})

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            simulate(_chain(), {"f": 1, "m": 1}, {"in": 1.0}, system="storm")

    def test_useful_time_bias_properties(self):
        """The systematic useful-time error is deterministic per
        (job, op), positive on average (waste) with a bounded negative
        tail (backpressure), larger for stateful operators — §V-C/E."""
        from repro.sim.engine import USEFUL_TIME_BIAS_PARAMS, useful_time_bias

        stateful = [
            useful_time_bias(f"job{i}", Operator("w", "window_join"))
            for i in range(300)
        ]
        stateless = [
            useful_time_bias(f"job{i}", Operator("f", "filter"))
            for i in range(300)
        ]
        assert np.mean(stateful) > np.mean(stateless) > 0
        lo_sf = USEFUL_TIME_BIAS_PARAMS["stateful"][2]
        assert min(stateful) >= lo_sf
        assert min(stateful) < 0  # the negative tail exists
        # deterministic per (job, op)
        op = Operator("w", "window_join")
        assert useful_time_bias("a", op) == useful_time_bias("a", op)
        assert useful_time_bias("a", op) != useful_time_bias("b", op)
        # sources/sinks unbiased
        assert useful_time_bias("a", Operator("s", "source")) == 0.0

    def test_bias_applied_to_observed_busy(self):
        dag = DataflowDAG(
            "j",
            [Operator("s", "source"), Operator("w", "window_join"), Operator("k", "sink")],
            [("s", "w"), ("w", "k")],
            {"s": "in"},
        )
        from repro.sim.engine import useful_time_bias

        bias = useful_time_bias("j", dag.op("w"))
        rate = unit_rate(dag.op("w")) * 4  # ~50 % busy at p=8
        ratios = []
        for seed in range(60):
            res = simulate(dag, {"w": 8}, {"in": rate}, seed=seed)
            m = res.metrics["w"]
            if 0 < m.busy < 1:
                ratios.append(m.observed_busy / m.busy)
        assert np.mean(ratios) == pytest.approx(1.0 + bias, abs=0.03)


@pytest.mark.parametrize("system", ["flink", "timely"])
@pytest.mark.parametrize("f_par", [1, 10])
def test_state_fractions_sum_to_one(system, f_par):
    """busy + idle + backpressured = 1 for every operator (Flink's three
    state metrics), under- and over-provisioned."""
    dag = _chain()
    rate = unit_rate(dag.op("f"), system) * 3
    res = simulate(dag, {"f": f_par, "m": 10}, {"in": rate}, system=system, seed=1)
    assert res.job_backpressure == (f_par == 1)
    for m in res.metrics.values():
        assert m.busy + m.idle + m.backpressured == pytest.approx(1.0, abs=1e-12)


class TestSimulateTimely:
    def test_no_throttling(self):
        dag = _chain()
        rate = unit_rate(dag.op("f"), "timely") * 5
        res = simulate(dag, {"f": 1, "m": 10}, {"in": rate}, system="timely", seed=1)
        assert res.throttle == 1.0
        assert res.metrics["f"].input_rate == pytest.approx(rate)

    def test_deficit_rule(self):
        """Bottleneck when PA < 85 % of offered input."""
        dag = _chain()
        rate = unit_rate(dag.op("f"), "timely") * 5
        res = simulate(dag, {"f": 1, "m": 12}, {"in": rate}, system="timely", seed=1)
        assert res.metrics["f"].under_backpressure
        assert res.job_backpressure
        assert not res.metrics["src"].under_backpressure  # sources never flagged

    def test_85pct_rule(self):
        """The flag agrees with the paper's rule: processed rate below 85 %
        of the combined output rate of the upstream operators."""
        dag = _chain()
        rate = unit_rate(dag.op("m"), "timely") * 6
        res = simulate(dag, {"f": 12, "m": 1}, {"in": rate}, system="timely", seed=0)
        upstream_out = sum(res.metrics[u].output_rate for u in dag.upstream("m"))
        assert res.metrics["m"].processed_rate < TIMELY_DEFICIT * upstream_out
        assert res.metrics["m"].under_backpressure
        assert not res.metrics["f"].under_backpressure
        assert res.job_backpressure

    def test_source_never_bottleneck(self):
        dag = _chain()
        res = simulate(dag, {"f": 1, "m": 1}, {"in": 1e9}, system="timely", seed=0)
        assert res.job_backpressure
        assert not res.metrics["src"].under_backpressure

    def test_spinning_inflates_observed_busy(self):
        dag = _chain()
        rate = unit_rate(dag.op("f"), "timely") * 0.1  # mostly idle
        res = simulate(dag, {"f": 2, "m": 2}, {"in": rate}, system="timely", seed=1)
        m = res.metrics["f"]
        assert m.observed_busy > 0.5  # spinning looks busy
        assert m.busy < 0.2

    def test_deficit_reduces_downstream_input(self):
        dag = _chain()
        rate = unit_rate(dag.op("f"), "timely") * 4
        res = simulate(dag, {"f": 1, "m": 12}, {"in": rate}, system="timely", seed=1)
        assert res.metrics["m"].input_rate < rate


class TestEpochLatencies:
    def test_healthy_job_stable_latency(self):
        dag = _chain()
        rate = unit_rate(dag.op("f"), "timely") * 0.5
        lat = epoch_latencies(dag, {"f": 2, "m": 2}, {"in": rate}, n_epochs=50, seed=0)
        assert len(lat) == 50
        assert lat.max() < 1.0
        assert abs(lat[-1] - lat[0]) < 0.2

    def test_underprovisioned_latency_grows(self):
        dag = _chain()
        rate = unit_rate(dag.op("f"), "timely") * 5
        lat = epoch_latencies(dag, {"f": 1, "m": 12}, {"in": rate}, n_epochs=50, seed=0)
        assert lat[-1] > lat[0] + 10  # backlog accumulates

    def test_latencies_match_provisioning(self):
        dag = _chain()
        rate = unit_rate(dag.op("m"), "timely") * 2
        bad = epoch_latencies(dag, {"f": 4, "m": 1}, {"in": rate}, n_epochs=60, seed=0)
        good = epoch_latencies(dag, {"f": 4, "m": 4}, {"in": rate}, n_epochs=60, seed=0)
        assert np.percentile(bad, 99) > np.percentile(good, 99)

    def test_deterministic(self):
        dag = _chain()
        rate = unit_rate(dag.op("f"), "timely")
        a = epoch_latencies(dag, {"f": 2, "m": 2}, {"in": rate}, n_epochs=10, seed=3)
        b = epoch_latencies(dag, {"f": 2, "m": 2}, {"in": rate}, n_epochs=10, seed=3)
        np.testing.assert_allclose(a, b)


_GOLDEN = json.loads((Path(__file__).with_name("engine_golden.json")).read_text())


@pytest.mark.parametrize(
    "case",
    _GOLDEN["cases"],
    ids=lambda c: f"{c['job']}-{c['system']}-x{c['rate_mult']}-p{c['parallelism']}",
)
def test_golden_deployments(case):
    """Every SimResult field of fixed catalogue deployments, pinned: the
    engine's outputs must not drift under refactoring or optimisation."""
    wl = full_catalogue(case["system"])[case["job"]]
    par = {o: case["parallelism"] for o in wl.dag.tunable_operators()}
    res = simulate(
        wl.dag, par, wl.rates(case["rate_mult"]), system=case["system"], seed=case["seed"]
    )
    assert res.job_backpressure == case["job_backpressure"]
    assert res.throttle == pytest.approx(case["throttle"], rel=1e-12)
    assert sorted(res.metrics) == sorted(case["metrics"])
    for oid, want in case["metrics"].items():
        m = res.metrics[oid]
        got = [getattr(m, f) for f in _GOLDEN["fields"]]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), oid
