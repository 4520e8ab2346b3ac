"""Tests for execution-history generation, incl. Spark/local parity."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.history import (
    generate_history,
    generate_history_local,
    job_latency_proxy,
)
from repro.sim.engine import simulate, unit_rate
from repro.sim.workloads import full_catalogue, nexmark_catalogue


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

    def test_records_carry_the_workloads_dag(self, workloads):
        recs = generate_history_local(workloads, n_per_workload=3, seed=3)
        by_name = {wl.name: wl for wl in workloads}
        assert all(rec.dag is by_name[rec.job].dag for rec in recs)


class TestSparkGeneration:
    @pytest.mark.parametrize("system", ["flink", "timely"])
    def test_parity_with_local(self, spark, system):
        """The distributed sweep, an RDD of config indices, must produce
        exactly the same records as the local generator, in the same
        order (pre-training depends on record order), each holding its
        workload's own DAG, on either engine."""
        cat = nexmark_catalogue(system)
        wls = [cat["nexmark_q3"], cat["nexmark_q5"]]
        local = generate_history_local(wls, n_per_workload=8, seed=4)
        dist = generate_history(spark, wls, n_per_workload=8, seed=4)
        assert [r.to_row() for r in dist] == [r.to_row() for r in local]
        assert dist == local
        by_name = {wl.name: wl for wl in wls}
        assert all(r.dag is by_name[r.job].dag for r in dist)

    def test_parity_over_the_catalogue(self, spark):
        """All 61 Flink jobs, 2 configs each: on 4 cores the 122 indices
        split 30/31/30/31 over the partitions, and the records still come
        back in config order."""
        wls = list(full_catalogue("flink").values())
        assert len(wls) == 61
        local = generate_history_local(wls, n_per_workload=2, seed=5)
        dist = generate_history(spark, wls, n_per_workload=2, seed=5)
        assert [r.to_row() for r in dist] == [r.to_row() for r in local]
        assert dist == local


def test_fan_out_modules_load_no_pandas():
    """A Spark worker that unpickles a fan-out's function imports its
    module; neither module may pull in pandas or Arrow, whose start-up
    the RDD fan-outs avoid."""
    code = (
        "import sys, repro.history, repro.graphs.clustering; "
        "print(sorted({'pandas', 'pyarrow'} & set(sys.modules)))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


class TestLatencyProxy:
    def test_increases_past_saturation(self, workloads):
        wl = workloads[0]
        rates = wl.rates(10)
        lo = simulate(wl.dag, {o: wl.p_max for o in wl.dag.tunable_operators()}, rates, seed=0)
        hi = simulate(wl.dag, {o: 1 for o in wl.dag.tunable_operators()}, rates, seed=0)
        assert job_latency_proxy(hi) > job_latency_proxy(lo)
