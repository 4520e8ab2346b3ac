"""Tests for the evaluation-table extractors (pure logic, no tuning —
the expensive sweeps are exercised by the benchmarks)."""
import pandas as pd
import pytest

from repro.core.pretrain import pretrain_global
from repro.core.tuner import PatternRunStats
from repro.history import generate_history_local
from repro.sim.workloads import nexmark_catalogue
from repro.tables import (
    QUERY_COLUMNS,
    EvalConfig,
    EvalRun,
    fig6_parallelism,
    fig7_reconfigurations,
    fig11b_simcenter,
    table2_source_rates,
    table3_backpressure,
)


def _stats(job, method, bp, reconf_total, n, p10):
    s = PatternRunStats(job=job, method=method)
    s.n_processes = n
    s.total_backpressure = bp
    s.total_reconfigs = reconf_total
    s.parallelism_at = {10: {"op": p10}}
    return s


@pytest.fixture(scope="module")
def fake_run():
    cat = nexmark_catalogue("flink")
    hist = generate_history_local([cat["nexmark_q1"]], n_per_workload=10, seed=1)
    bundle = pretrain_global(hist, epochs=2, seed=0)
    run = EvalRun(config=EvalConfig(), bundle=bundle, history=hist)
    run.group_sizes = {c: 1 for c in QUERY_COLUMNS} | {"Linear": 8}
    run.jobs_per_column = {c: 1 for c in QUERY_COLUMNS} | {"Linear": 2}
    run.stats = {
        "DS2": {"Q1": [_stats("nexmark_q1", "DS2", 3, 40, 20, 25)],
                "Linear": [_stats("pqp_linear_0", "DS2", 1, 30, 20, 30),
                           _stats("pqp_linear_1", "DS2", 2, 50, 20, 34)]},
        "ContTune": {"Q1": [_stats("nexmark_q1", "ContTune", 0, 22, 20, 23)]},
        "ZeroTune": {"Q1": []},
        "StreamTune": {"Q1": [_stats("nexmark_q1", "StreamTune", 0, 28, 20, 21)]},
    }
    return run


class TestTable2:
    def test_shape_and_content(self):
        df = table2_source_rates()
        assert set(df.columns) == {"job", "system", "source", "W_u (records/s)"}
        q1 = df[(df.job == "nexmark_q1") & (df.system == "flink")]
        assert q1["W_u (records/s)"].iloc[0] == 700_000
        assert len(df) == 17  # 13 (job, system) combos, multi-source counted


class TestTable3:
    def test_counts_and_scaling(self, fake_run):
        df = table3_backpressure(fake_run)
        ds2 = df[df.Method == "DS2"].iloc[0]
        assert ds2["Q1"] == 3
        # Linear: (1+2) scaled from 2 evaluated queries to the 8-query group
        assert ds2["Linear"] == 12
        st = df[df.Method == "StreamTune"].iloc[0]
        assert st["Q1"] == 0

    def test_missing_method_slash(self, fake_run):
        df = table3_backpressure(fake_run)
        zt = df[df.Method == "ZeroTune"].iloc[0]
        assert zt["Q1"] == "/"


class TestFig6And7:
    def test_parallelism_table(self, fake_run):
        df = fig6_parallelism(fake_run)
        ds2 = df[df.Method == "DS2"].iloc[0]
        assert ds2["Q1"] == 25
        assert ds2["Linear"] == 32.0  # mean of 30, 34

    def test_reconfig_table(self, fake_run):
        df = fig7_reconfigurations(fake_run)
        assert "ZeroTune" not in set(df.Method)
        ds2 = df[df.Method == "DS2"].iloc[0]
        assert ds2["Q1"] == 2.0  # 40 / 20


class TestFig11b:
    def test_simcenter_timing_table(self):
        df = fig11b_simcenter(sizes=(20, 40), tau=5.0)
        assert list(df["#DAGs"]) == [20, 40]
        assert (df["AStar+-LSa (s)"] > 0).all()
        assert (df["direct GED (s)"] >= df["AStar+-LSa (s)"] * 0.5).all()
