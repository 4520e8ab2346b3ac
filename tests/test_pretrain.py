"""Tests for the pre-training pipeline (clustering + per-cluster GNN)."""
import numpy as np
import pytest

from repro.core.pretrain import (
    PretrainedBundle,
    op_vectors,
    pretrain,
    pretrain_global,
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
    return pretrain_global(history, epochs=25, seed=0)


class TestRecordToSample:
    def test_shapes(self, history, bundle):
        s = record_to_sample(history[0], bundle.feature_encoder)
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
        assert pretrain_global(hist, epochs=1).feature_encoder.p_max == 12


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
