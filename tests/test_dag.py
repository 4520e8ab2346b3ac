"""Unit tests for the logical dataflow DAG model."""
import pytest

from repro.graphs.dag import DataflowDAG, Operator


def _diamond() -> DataflowDAG:
    return DataflowDAG(
        "diamond",
        [
            Operator("s", "source"),
            Operator("a", "filter", selectivity=0.5),
            Operator("b", "map"),
            Operator("c", "join"),
            Operator("k", "sink"),
        ],
        [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"), ("c", "k")],
        {"s": "src"},
    )


class TestOperator:
    def test_valid_construction(self):
        op = Operator("x", "filter")
        assert op.op_type == "filter"
        assert op.window_type == "none"

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown op type"):
            Operator("x", "reduce")

    def test_unknown_window_type_rejected(self):
        with pytest.raises(ValueError, match="unknown window type"):
            Operator("x", "window_agg", window_type="hopping")

    def test_unknown_window_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown window policy"):
            Operator("x", "window_agg", window_policy="session")

    def test_unknown_agg_function_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregate function"):
            Operator("x", "aggregate", aggregate_function="median")

    @pytest.mark.parametrize(
        "field",
        ["op_type", "window_type", "window_policy", "join_key_class", "aggregate_class",
         "aggregate_key_class", "aggregate_function", "tuple_data_type"],
    )
    def test_every_categorical_field_checked(self, field):
        # Table I's categorical features: a value outside the encoder's
        # one-hot vocabulary fails when the operator is built.
        with pytest.raises(ValueError, match=f"unknown {field.replace('_', ' ')} 'uuid'"):
            Operator(**{"op_id": "m", "op_type": "map", field: "uuid"})

    def test_frozen(self):
        op = Operator("x", "map")
        with pytest.raises(AttributeError):
            op.op_type = "filter"


class TestDataflowDAG:
    def test_topological_order_valid(self):
        dag = _diamond()
        order = dag.topological_order()
        pos = {o: i for i, o in enumerate(order)}
        for u, v in dag.edges:
            assert pos[u] < pos[v]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            DataflowDAG(
                "cyc",
                [Operator("a", "map"), Operator("b", "map")],
                [("a", "b"), ("b", "a")],
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DataflowDAG("dup", [Operator("a", "map"), Operator("a", "map")], [])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown operator"):
            DataflowDAG("bad", [Operator("a", "map")], [("a", "z")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            DataflowDAG("loop", [Operator("a", "map")], [("a", "a")])

    def test_source_registration_enforced(self):
        with pytest.raises(ValueError, match="sources"):
            DataflowDAG("s", [Operator("a", "source")], [], sources={})

    def test_source_id_must_exist(self):
        with pytest.raises(ValueError):
            DataflowDAG("s", [Operator("a", "map")], [], sources={"z": "x"})

    def test_upstream_downstream(self):
        dag = _diamond()
        assert set(dag.upstream("c")) == {"a", "b"}
        assert dag.downstream("s") == ["a", "b"]
        assert dag.downstream("k") == []

    def test_returned_lists_are_copies(self):
        """The structure is derived once; a caller that changes a returned
        list changes neither the DAG nor the next call's answer."""
        dag = _diamond()
        for get, arg in ((dag.topological_order, ()), (dag.upstream, ("c",)), (dag.downstream, ("s",))):
            first = get(*arg)
            want = list(first)
            first.append("x")
            first.reverse()
            assert get(*arg) == want
        assert dag == _diamond() and dag.canonical_key() == _diamond().canonical_key()

    def test_ancestors_descendants(self):
        dag = _diamond()
        assert dag.ancestors("c") == {"s", "a", "b"}
        assert dag.descendants("s") == {"a", "b", "c", "k"}
        assert dag.ancestors("s") == set()

    def test_tunable_excludes_source_and_sink(self):
        dag = _diamond()
        assert set(dag.tunable_operators()) == {"a", "b", "c"}

    def test_op_lookup(self):
        dag = _diamond()
        assert dag.op("a").selectivity == 0.5
        with pytest.raises(KeyError):
            dag.op("nope")

    def test_canonical_key_ignores_ids(self):
        dag = _diamond()
        renamed = DataflowDAG(
            "other",
            [
                Operator("s2", "source"),
                Operator("a2", "filter", selectivity=0.5),
                Operator("b2", "map"),
                Operator("c2", "join"),
                Operator("k2", "sink"),
            ],
            [("s2", "a2"), ("s2", "b2"), ("a2", "c2"), ("b2", "c2"), ("c2", "k2")],
            {"s2": "src"},
        )
        assert dag.canonical_key() == renamed.canonical_key()

    def test_canonical_key_sensitive_to_structure(self):
        dag = _diamond()
        chain = DataflowDAG(
            "chain",
            [
                Operator("s", "source"),
                Operator("a", "filter", selectivity=0.5),
                Operator("b", "map"),
                Operator("c", "join"),
                Operator("k", "sink"),
            ],
            [("s", "a"), ("a", "b"), ("b", "c"), ("c", "k")],
            {"s": "src"},
        )
        assert dag.canonical_key() != chain.canonical_key()
