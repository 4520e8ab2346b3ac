"""Tests for the pre-training pipeline (clustering + per-cluster GNN)."""
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.graphs.ged as ged_mod

from repro.core.pretrain import (
    PretrainedBundle,
    op_vectors,
    pretrain,
    record_to_sample,
)
from repro.history import generate_history_local
from repro.sim.workloads import full_catalogue


@pytest.fixture(scope="module")
def history():
    cat = full_catalogue("flink")
    wls = [cat["nexmark_q1"], cat["nexmark_q3"], cat["nexmark_q5"]]
    return generate_history_local(wls, n_per_workload=40, seed=5)


@pytest.fixture(scope="module")
def bundle(history):
    return pretrain(history, k=1, epochs=25, seed=0)


class TestRecordToSample:
    def test_shapes(self, history, bundle):
        rec = history[0]
        s = record_to_sample(rec, bundle.feature_encoder)
        n = len(s.p)
        assert s.x.shape[0] == n
        assert s.a_in.shape == (n, n)
        assert s.y_node.shape == (n,)
        assert np.all((s.p >= 0) & (s.p <= 1))


class TestPretrainGlobal:
    def test_single_cluster(self, bundle, history):
        assert len(bundle.encoders) == 1
        assert len(bundle.cluster_records[0]) == len(history)

    def test_training_accuracy_reasonable(self, bundle):
        assert bundle.train_acc[0] > 0.75

    def test_cluster_routing(self, bundle):
        cat = full_catalogue("flink")
        assert bundle.cluster_for(cat["nexmark_q1"].dag) == 0

    def test_one_cluster_runs_no_ged(self, history, monkeypatch):
        """With one cluster there is nothing to cluster or route: neither
        pre-training nor a tuner's cluster lookup runs a GED search."""
        from repro.core.tuner import StreamTune

        runs = []
        search = ged_mod._Search.run
        monkeypatch.setattr(ged_mod._Search, "run", lambda s, t: runs.append(t) or search(s, t))
        b = pretrain(history, k=1, epochs=1, seed=0)
        cat = full_catalogue("flink")
        st = StreamTune(b, 1)
        tuners = [st.tuner(cat[n], "xgboost") for n in ("nexmark_q1", "nexmark_q5")]
        assert len(b.centers) == 1 and [t.cluster for t in tuners] == [0, 0]
        assert runs == []


class TestPretrainClustered:
    def test_k2_partitions_structures(self, history):
        b = pretrain(history, k=2, epochs=10, seed=0)
        assert len(b.encoders) == 2
        assert all(len(r) > 0 for r in b.cluster_records)
        # q1 (3-op chain) and q5 (5-op diamond) should not share a cluster
        cat = full_catalogue("flink")
        assert b.cluster_for(cat["nexmark_q1"].dag) != b.cluster_for(cat["nexmark_q5"].dag)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            pretrain([], k=1)

    def test_mixed_engine_history_rejected(self, history):
        timely = full_catalogue("timely")["nexmark_q1"]
        mixed = history + generate_history_local([timely], n_per_workload=2, seed=5)
        with pytest.raises(ValueError, match="mixes engines"):
            pretrain(mixed, k=1)

    def test_parallelism_scale_from_engine(self, bundle):
        assert bundle.feature_encoder.p_max == 100
        timely = full_catalogue("timely")["nexmark_q1"]
        hist = generate_history_local([timely], n_per_workload=4, seed=5)
        assert pretrain(hist, k=1, epochs=1).feature_encoder.p_max == 12


def _bundle_bits(b: PretrainedBundle) -> dict:
    """A bundle's every bit: encoder parameters as bytes, accuracies by
    repr, centers by canonical key, each cluster's records."""
    return {
        "params": [{n: v.tobytes() for n, v in enc.params.items()} for enc in b.encoders],
        "train_acc": repr(b.train_acc),
        "centers": [c.canonical_key() for c in b.centers],
        "records": b.cluster_records,
    }


class TestSparkTraining:
    @staticmethod
    def _pretrain_in_group(spark, group, history, **kw):
        """``pretrain`` under job group ``group``, and the Spark jobs it
        started."""
        sc = spark.sparkContext
        sc.setJobGroup(group, "pretrain")
        try:
            b = pretrain(history, epochs=3, seed=0, spark=spark, **kw)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        return b, sc.statusTracker().getJobIdsForGroup(group)

    def test_clusters_train_in_one_job_bit_for_bit(self, spark, history):
        """With k > 1 the encoders train in exactly one Spark job (the
        elbow's k-means already knows every GED the final one needs, so
        the assignment starts none), and the bundle equals the driver's."""
        b, jobs = self._pretrain_in_group(spark, "pretrain-k-elbow", history, k=None)
        assert len(b.encoders) == 2
        assert len(jobs) == 1
        assert _bundle_bits(b) == _bundle_bits(pretrain(history, k=None, epochs=3, seed=0))

    def test_one_cluster_starts_no_job(self, spark, history):
        b, jobs = self._pretrain_in_group(spark, "pretrain-k1", history, k=1)
        assert jobs == []
        assert _bundle_bits(b) == _bundle_bits(pretrain(history, k=1, epochs=3, seed=0))


class TestWarmup:
    def test_warmup_dataset(self, bundle):
        h, p, y = bundle.warmup_dataset(0, max_points=120, seed=0)
        assert len(h) == len(p) == len(y) <= 120
        assert set(np.unique(y)) <= {0, 1}
        assert 1 in y  # bottleneck examples present

    def test_warmup_deterministic(self, bundle):
        a = bundle.warmup_dataset(0, max_points=50, seed=1)
        b = bundle.warmup_dataset(0, max_points=50, seed=1)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[2], b[2])


class TestOpVectors:
    def test_skip_connection_dims(self, bundle):
        cat = full_catalogue("flink")
        wl = cat["nexmark_q3"]
        order, vecs = op_vectors(
            bundle.encoders[0], bundle.feature_encoder, wl.dag, wl.rates(5)
        )
        assert len(order) == len(wl.dag.operators)
        assert vecs.shape[1] == bundle.encoders[0].dim + bundle.feature_encoder.dim

    def test_vectors_vary_with_rate(self, bundle):
        cat = full_catalogue("flink")
        wl = cat["nexmark_q5"]
        _, v1 = op_vectors(bundle.encoders[0], bundle.feature_encoder, wl.dag, wl.rates(2))
        _, v2 = op_vectors(bundle.encoders[0], bundle.feature_encoder, wl.dag, wl.rates(9))
        assert not np.allclose(v1, v2)


#: A small fixed history: 9 distinct structures, 2 of them under two names.
_GOLDEN_JOBS = [
    "nexmark_q1", "nexmark_q2", "nexmark_q3", "nexmark_q5", "nexmark_q8",
    "pqp_linear_0", "pqp_linear_1", "pqp_linear_4", "pqp_2way_0", "pqp_2way_1",
    "pqp_2way_4", "pqp_3way_0", "pqp_3way_2",
]


@pytest.fixture(scope="module")
def golden_history():
    cat = full_catalogue("flink")
    return generate_history_local([cat[n] for n in _GOLDEN_JOBS], n_per_workload=3, seed=5)


def _bundle_summary(records) -> dict:
    """What clustering decides and training reaches for ``pretrain(k=None)``."""
    b = pretrain(records, k=None, epochs=3, seed=0)
    cluster = {id(r): c for c, recs in enumerate(b.cluster_records) for r in recs}
    return {
        "k": len(b.centers),
        "centers": [c.canonical_key() for c in b.centers],
        "clusters": [cluster[id(r)] for r in records],
        "train_acc": b.train_acc,
    }


_PRETRAIN_GOLDEN = json.loads(Path(__file__).with_name("pretrain_golden.json").read_text())


class TestPretrainGolden:
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_bundle_matches_golden(self, golden_history, order):
        """Elbow k, similarity centers, every record's cluster and the
        training accuracy, pinned: sharing GED work must not change them."""
        records = golden_history if order == "forward" else golden_history[::-1]
        assert _bundle_summary(records) == _PRETRAIN_GOLDEN[order]

    def test_each_ged_computed_once(self, golden_history, monkeypatch):
        """One pretrain() runs at most one exact GED per distinct pair of
        structures, and no pruned search on a pair whose GED it knows."""
        exact: Counter = Counter()
        known: set = set()
        repeats: list = []
        ged, ged_within = ged_mod.ged, ged_mod.ged_within

        def pair(a, b):
            return frozenset((a.canonical_key(), b.canonical_key()))

        def counting_ged(a, b, **kw):
            exact[pair(a, b)] += 1
            known.add(pair(a, b))
            return ged(a, b, **kw)

        def counting_within(a, b, tau, **kw):
            if pair(a, b) in known:
                repeats.append(pair(a, b))
            d = ged_within(a, b, tau, **kw)
            if d is not None:
                known.add(pair(a, b))
            return d

        monkeypatch.setattr(ged_mod, "ged", counting_ged)
        monkeypatch.setattr(ged_mod, "ged_within", counting_within)
        pretrain(golden_history, k=None, epochs=1, seed=0)
        assert exact and max(exact.values()) == 1
        assert repeats == []
