"""Tests for execution-history generation, incl. Spark/local parity."""
import pytest

from repro.history import (
    HistoryRecord,
    generate_history,
    generate_history_local,
    job_latency_proxy,
)
from repro.sim.engine import simulate, unit_rate
from repro.sim.workloads import nexmark_catalogue


@pytest.fixture(scope="module")
def workloads():
    cat = nexmark_catalogue("flink")
    return [cat["nexmark_q3"], cat["nexmark_q5"]]


class TestLocalGeneration:
    def test_counts(self, workloads):
        recs = generate_history_local(workloads, n_per_workload=15, seed=1)
        assert len(recs) == 30
        assert {r.job for r in recs} == {"nexmark_q3", "nexmark_q5"}

    def test_labels_present_and_valid(self, workloads):
        recs = generate_history_local(workloads, n_per_workload=30, seed=1)
        vals = {v for r in recs for v in r.labels.values()}
        assert vals <= {-1, 0, 1}
        assert 1 in vals  # some deployments must bottleneck
        assert 0 in vals

    def test_parallelism_in_paper_range(self, workloads):
        recs = generate_history_local(workloads, n_per_workload=20, seed=1)
        ps = [p for r in recs for p in r.parallelism.values()]
        assert min(ps) >= 1
        assert max(ps) <= 60  # paper: random values from [1, 60]

    def test_rates_disjoint_from_tuning(self, workloads):
        recs = generate_history_local(workloads, n_per_workload=20, seed=1)
        for r in recs:
            for name, rate in r.rates.items():
                wu = [w for w in workloads if w.name == r.job][0].rate_units[name]
                mult = rate / wu
                assert abs(mult - round(mult)) > 0.01

    def test_deterministic(self, workloads):
        a = generate_history_local(workloads, n_per_workload=5, seed=2)
        b = generate_history_local(workloads, n_per_workload=5, seed=2)
        assert [r.to_row() for r in a] == [r.to_row() for r in b]

    def test_row_roundtrip(self, workloads):
        rec = generate_history_local(workloads, n_per_workload=2, seed=3)[0]
        back = HistoryRecord.from_row(rec.to_row())
        assert back == rec


class TestSparkGeneration:
    def test_parity_with_local(self, spark, workloads):
        """The distributed mapInPandas sweep must produce exactly the
        same records as the local generator, in the same order
        (pre-training depends on record order)."""
        local = generate_history_local(workloads, n_per_workload=8, seed=4)
        dist = generate_history(spark, workloads, n_per_workload=8, seed=4)
        assert [r.to_row() for r in dist] == [r.to_row() for r in local]


class TestLatencyProxy:
    def test_increases_past_saturation(self, workloads):
        wl = workloads[0]
        rates = wl.rates(10)
        lo = simulate(wl.dag, {o: wl.p_max for o in wl.dag.tunable_operators()}, rates, seed=0)
        hi = simulate(wl.dag, {o: 1 for o in wl.dag.tunable_operators()}, rates, seed=0)
        assert job_latency_proxy(hi) > job_latency_proxy(lo)
