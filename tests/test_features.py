"""Tests for Table I feature encoding and the feature encoder."""
import numpy as np
import pytest

from repro.core.features import (
    STATIC_FEATURES,
    FeatureEncoder,
    adjacency,
    upstream_rates,
)
from repro.graphs.dag import CATEGORIES, DataflowDAG, Operator

#: Table I of the paper: name → kind.
_PAPER_TABLE1 = [
    ("operator_type", "categorical"),
    ("window_type", "categorical"),
    ("window_policy", "categorical"),
    ("window_length", "numeric"),
    ("sliding_length", "numeric"),
    ("join_key_class", "categorical"),
    ("aggregate_class", "categorical"),
    ("aggregate_key_class", "categorical"),
    ("aggregate_function", "categorical"),
    ("tuple_width_in", "numeric"),
    ("tuple_width_out", "numeric"),
    ("tuple_data_type", "categorical"),
]


def _dag():
    return DataflowDAG(
        "d",
        [
            Operator("s", "source"),
            Operator("f", "filter", selectivity=0.5, tuple_width_in=4),
            Operator(
                "w", "window_agg", window_type="sliding", window_policy="time",
                window_length=60, sliding_length=10, aggregate_function="avg",
                selectivity=0.1, tuple_width_in=8,
            ),
            Operator("k", "sink"),
        ],
        [("s", "f"), ("f", "w"), ("w", "k")],
        {"s": "in"},
    )


class TestSchema:
    def test_static_features_match_table1(self):
        assert list(STATIC_FEATURES) == _PAPER_TABLE1

    def test_operator_checks_every_encoded_category(self):
        # One table: the categories ``Operator`` accepts are the ones the
        # encoder one-hot encodes, for every categorical Table I feature.
        from repro.core.features import _ATTR

        encoded = {_ATTR[n] for n, kind in STATIC_FEATURES if kind == "categorical"}
        assert encoded == set(CATEGORIES)

    def test_dim_consistent(self):
        fe = FeatureEncoder().fit([(_dag(), {"in": 1000.0})])
        _, x = fe.encode_dag(_dag(), {"in": 1000.0})
        assert x.shape[1] == fe.dim


class TestEncoding:
    def test_one_hot_exclusive(self):
        from repro.core.features import _ATTR

        fe = FeatureEncoder().fit([(_dag(), {"in": 1000.0})])
        order, x = fe.encode_dag(_dag(), {"in": 1000.0})
        v_filter, v_window = x[order.index("f")], x[order.index("w")]
        assert not np.allclose(v_filter, v_window)
        # walk the layout: every categorical block is exactly one-hot
        pos = 0
        for name, kind in STATIC_FEATURES:
            if kind == "categorical":
                width = len(CATEGORIES[_ATTR[name]])
                block = v_filter[pos : pos + width]
                assert block.sum() == pytest.approx(1.0), name
                assert set(np.unique(block)) <= {0.0, 1.0}, name
                pos += width
            else:
                pos += 1

    def test_numeric_minmax_in_unit_range(self):
        fe = FeatureEncoder().fit([(_dag(), {"in": 1000.0})])
        _, x = fe.encode_dag(_dag(), {"in": 1000.0})
        assert float(x.min()) >= 0.0
        assert float(x.max()) <= 1.5

    def test_source_rate_only_on_sources(self):
        fe = FeatureEncoder().fit([(_dag(), {"in": 1000.0})])
        order, x = fe.encode_dag(_dag(), {"in": 1000.0})
        rate_col = x[:, -2]  # [..., source_rate, upstream_rate]
        i = {o: j for j, o in enumerate(order)}
        assert rate_col[i["s"]] > 0
        assert rate_col[i["f"]] == 0.0
        assert rate_col[i["w"]] == 0.0

    def test_rate_encoding_monotone_in_rate(self):
        fe = FeatureEncoder().fit([(_dag(), {"in": 10_000.0})])
        lo = fe._scale_rate(100.0)
        hi = fe._scale_rate(9_000.0)
        assert hi > lo

    def test_parallelism_scaling(self):
        fe = FeatureEncoder().fit([(_dag(), {"in": 1.0})], p_max=100)
        assert fe.scale_parallelism(50) == pytest.approx(0.5)
        np.testing.assert_allclose(fe.scale_parallelism([1, 100]), [0.01, 1.0])

    def test_encoding_deterministic(self):
        fe = FeatureEncoder().fit([(_dag(), {"in": 1000.0})])
        _, a = fe.encode_dag(_dag(), {"in": 500.0})
        _, b = fe.encode_dag(_dag(), {"in": 500.0})
        np.testing.assert_array_equal(a, b)


class TestUpstreamRates:
    def test_propagation_with_selectivity(self):
        up = upstream_rates(_dag(), {"in": 1000.0})
        assert up["s"] == 0.0
        assert up["f"] == pytest.approx(1000.0)
        assert up["w"] == pytest.approx(500.0)  # filter sel 0.5
        assert up["k"] == pytest.approx(50.0)  # window agg sel 0.1

    def test_fanin_sums(self):
        dag = DataflowDAG(
            "fan",
            [
                Operator("s1", "source"),
                Operator("s2", "source"),
                Operator("j", "join"),
                Operator("k", "sink"),
            ],
            [("s1", "j"), ("s2", "j"), ("j", "k")],
            {"s1": "a", "s2": "b"},
        )
        up = upstream_rates(dag, {"a": 100.0, "b": 50.0})
        assert up["j"] == pytest.approx(150.0)


class TestAdjacency:
    def test_row_normalised(self):
        dag = _dag()
        order = dag.topological_order()
        a_in, a_out = adjacency(dag, order)
        i = {o: j for j, o in enumerate(order)}
        assert a_in[i["f"], i["s"]] == pytest.approx(1.0)
        assert a_out[i["f"], i["w"]] == pytest.approx(1.0)
        # rows with no neighbours are all-zero, others sum to 1
        for r in range(len(order)):
            s = a_in[r].sum()
            assert s == pytest.approx(0.0) or s == pytest.approx(1.0)

    def test_fanin_mean(self):
        dag = DataflowDAG(
            "fan",
            [Operator("a", "map"), Operator("b", "map"), Operator("c", "join")],
            [("a", "c"), ("b", "c")],
        )
        order = dag.topological_order()
        a_in, _ = adjacency(dag, order)
        i = {o: j for j, o in enumerate(order)}
        assert a_in[i["c"], i["a"]] == pytest.approx(0.5)
        assert a_in[i["c"], i["b"]] == pytest.approx(0.5)
