"""Tests for the Nexmark/PQP workload catalogue and Table II units."""
import hashlib
import json
from pathlib import Path

import pytest

from repro.sim.engine import PROFILES, processing_ability, simulate
from repro.sim.workloads import (
    SOURCE_RATE_UNITS,
    Workload,
    full_catalogue,
    nexmark_catalogue,
    pqp_catalogue,
)

#: Table II of the paper, verbatim (records/s).
_PAPER_TABLE2 = {
    ("nexmark_q1", "flink"): {"bids": 700_000},
    ("nexmark_q2", "flink"): {"bids": 900_000},
    ("nexmark_q3", "flink"): {"auctions": 200_000, "persons": 40_000},
    ("nexmark_q5", "flink"): {"bids": 80_000},
    ("nexmark_q8", "flink"): {"auctions": 100_000, "persons": 60_000},
    ("nexmark_q1", "timely"): {"bids": 9_000_000},
    ("nexmark_q2", "timely"): {"bids": 9_000_000},
    ("nexmark_q3", "timely"): {"auctions": 5_000_000, "persons": 5_000_000},
    ("nexmark_q5", "timely"): {"bids": 10_000_000},
    ("nexmark_q8", "timely"): {"auctions": 4_000_000, "persons": 4_000_000},
    ("pqp_linear", "flink"): {"pqp": 5_000},
    ("pqp_2way", "flink"): {"pqp": 500},
    ("pqp_3way", "flink"): {"pqp": 250},
}


class TestTable2:
    def test_units_match_paper(self):
        assert SOURCE_RATE_UNITS == _PAPER_TABLE2

    def test_p_max_flink_is_100(self):
        assert PROFILES["flink"].p_max == 100  # 50 TaskManagers × 2 slots


class TestCatalogue:
    def test_nexmark_five_jobs(self):
        assert set(nexmark_catalogue("flink")) == {
            "nexmark_q1", "nexmark_q2", "nexmark_q3", "nexmark_q5", "nexmark_q8",
        }

    def test_pqp_template_counts(self):
        cat = pqp_catalogue()
        groups: dict[str, list[str]] = {}
        for name, wl in cat.items():
            groups.setdefault(wl.group, []).append(name)
        assert len(groups["Linear"]) == 8
        assert len(groups["2-way-join"]) == 16
        assert len(groups["3-way-join"]) == 32
        assert set(cat) == set(sum(groups.values(), []))
        assert groups == {
            "Linear": [f"pqp_linear_{i}" for i in range(8)],
            "2-way-join": [f"pqp_2way_{i}" for i in range(16)],
            "3-way-join": [f"pqp_3way_{i}" for i in range(32)],
        }

    def test_nexmark_group_is_its_column(self):
        for system in ("flink", "timely"):
            assert {n: wl.group for n, wl in nexmark_catalogue(system).items()} == {
                "nexmark_q1": "Q1", "nexmark_q2": "Q2", "nexmark_q3": "Q3",
                "nexmark_q5": "Q5", "nexmark_q8": "Q8",
            }

    def test_full_catalogue_sizes(self):
        assert len(full_catalogue("flink")) == 61
        assert len(full_catalogue("timely")) == 5

    def test_rates_scale_with_multiplier(self):
        wl = nexmark_catalogue("flink")["nexmark_q3"]
        r = wl.rates(10)
        assert r["auctions"] == 2_000_000
        assert r["persons"] == 400_000

    def test_q5_has_sliding_window(self):
        wl = nexmark_catalogue("flink")["nexmark_q5"]
        wagg = wl.dag.op("wagg")
        assert wagg.window_type == "sliding"
        assert wagg.sliding_length > 0

    def test_q8_tumbling_window_join(self):
        wl = nexmark_catalogue("flink")["nexmark_q8"]
        assert wl.dag.op("wjoin").op_type == "window_join"
        assert wl.dag.op("wjoin").window_type == "tumbling"

    def test_pqp_templates_structurally_distinct_groups(self):
        cat = pqp_catalogue()
        lin = cat["pqp_linear_0"].dag
        two = cat["pqp_2way_0"].dag
        three = cat["pqp_3way_0"].dag
        assert len(lin.sources) == 1
        assert len(two.sources) == 2
        assert len(three.sources) == 3

    def test_pqp_templates_vary_within_group(self):
        cat = pqp_catalogue()
        w0 = cat["pqp_2way_0"].dag.op("wjoin")
        w1 = cat["pqp_2way_1"].dag.op("wjoin")
        assert (w0.window_type, w0.window_policy, w0.tuple_width_in) != (
            w1.window_type, w1.window_policy, w1.tuple_width_in,
        )


_GOLDEN = json.loads(Path(__file__).with_name("catalogue_golden.json").read_text())


def _digest(wl: Workload) -> str:
    blob = json.dumps([wl.name, wl.system, wl.rate_units, wl.dag.to_json()], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("system", ["flink", "timely"])
def test_catalogue_matches_golden(system):
    """Every job's name, engine, Table II units and fitted DAG, pinned per
    workload (``catalogue_golden.json`` holds a sha256 of each)."""
    got = {name: _digest(wl) for name, wl in full_catalogue(system).items()}
    assert got == _GOLDEN[system]


def _max_required(wl: Workload, system: str) -> dict[str, int]:
    """Min parallelism per op to sustain 10·W_u."""
    rates = wl.rates(10)
    par = {o: wl.p_max for o in wl.dag.tunable_operators()}
    res = simulate(wl.dag, par, rates, system=system, seed=0)
    out = {}
    for oid in wl.dag.tunable_operators():
        inr = res.metrics[oid].input_rate
        p = 1
        while processing_ability(wl.dag.op(oid), p, system) < inr and p < wl.p_max:
            p += 1
        out[oid] = p
    return out


class TestConditioning:
    """Every workload must be feasible at peak load (10·W_u) within
    p_max, and at least one operator must need meaningful parallelism —
    otherwise the tuning problem is vacuous."""

    @pytest.mark.parametrize("name", sorted(full_catalogue("flink")))
    def test_flink_feasible_at_peak(self, name):
        wl = full_catalogue("flink")[name]
        need = _max_required(wl, "flink")
        assert all(1 <= p < wl.p_max for p in need.values()), need
        assert max(need.values()) >= 2

    @pytest.mark.parametrize("name", ["nexmark_q3", "nexmark_q5", "nexmark_q8"])
    def test_timely_feasible_at_peak(self, name):
        wl = full_catalogue("timely")[name]
        need = _max_required(wl, "timely")
        assert all(1 <= p < wl.p_max for p in need.values()), need

    def test_timely_q1_q2_run_at_parallelism_1(self):
        """Paper §V-F: other Nexmark jobs run effectively with p = 1."""
        for name in ["nexmark_q1", "nexmark_q2"]:
            wl = full_catalogue("timely")[name]
            need = _max_required(wl, "timely")
            assert all(p <= 2 for p in need.values()), (name, need)
