"""Logical dataflow DAG model.

A :class:`DataflowDAG` is the *logical* plan of a streaming job (paper
§II-A): nodes are operators (type + static features, Table I), directed
edges are data dependencies. Parallelism degrees and source rates are
*dynamic* and live outside the static structure — they are attached per
execution by the simulator / tuner. :meth:`DataflowDAG.propagate` is the
one rate rule that the simulator, the feature encoder, the workload
catalogue and DS2 share.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Allowed values of each categorical ``Operator`` field (Table I's
#: categorical features, ``op_type`` being its operator type): ``Operator``
#: rejects any other value and ``core.features`` one-hot encodes over
#: these tuples. The operator types are closed (paper §VII notes one-hot
#: typed operators require retraining for genuinely new types — same here).
_KEY_CLASSES = ("none", "int", "long", "string")
CATEGORIES: dict[str, tuple[str, ...]] = {
    "op_type": (
        "source",
        "map",
        "filter",
        "flatmap",
        "join",
        "window_join",
        "window_agg",
        "aggregate",
        "sink",
    ),
    "window_type": ("none", "tumbling", "sliding"),
    "window_policy": ("none", "count", "time"),
    "join_key_class": _KEY_CLASSES,
    "aggregate_class": _KEY_CLASSES,
    "aggregate_key_class": _KEY_CLASSES,
    "aggregate_function": ("none", "min", "max", "avg", "sum", "count"),
    "tuple_data_type": ("row", "kv", "scalar"),
}


@dataclass(frozen=True)
class Operator:
    """One logical dataflow operator with its static features (Table I)."""

    op_id: str
    op_type: str
    window_type: str = "none"
    window_policy: str = "none"
    window_length: float = 0.0
    sliding_length: float = 0.0
    join_key_class: str = "none"
    aggregate_class: str = "none"
    aggregate_key_class: str = "none"
    aggregate_function: str = "none"
    tuple_width_in: float = 1.0
    tuple_width_out: float = 1.0
    tuple_data_type: str = "row"
    #: Data selectivity: output rate = processed input rate * selectivity.
    selectivity: float = 1.0

    def __post_init__(self) -> None:
        for name, allowed in CATEGORIES.items():
            if (value := getattr(self, name)) not in allowed:
                raise ValueError(f"unknown {name.replace('_', ' ')} {value!r}")


@dataclass
class DataflowDAG:
    """A logical dataflow DAG: operators + directed edges.

    ``sources`` maps source operator ids to a *source name* (e.g. "bids"),
    used to attach per-source rates at execution time.

    A DAG is not changed after construction: its structure — operator by
    id, upstream and downstream lists, topological order, canonical key —
    is derived once and kept in ``_memo``.
    """

    name: str
    operators: list[Operator]
    edges: list[tuple[str, str]]
    sources: dict[str, str] = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        ids = [o.op_id for o in self.operators]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate operator ids in {self.name}")
        idset = set(ids)
        for u, v in self.edges:
            if u not in idset or v not in idset:
                raise ValueError(f"edge ({u},{v}) references unknown operator")
            if u == v:
                raise ValueError(f"self-loop on {u}")
        for s in self.sources:
            if s not in idset:
                raise ValueError(f"source id {s} not an operator")
        # Every source-typed operator must be registered, and vice versa.
        src_ops = {o.op_id for o in self.operators if o.op_type == "source"}
        if src_ops != set(self.sources):
            raise ValueError(
                f"{self.name}: sources {sorted(self.sources)} != "
                f"source-typed operators {sorted(src_ops)}"
            )
        up: dict[str, list[str]] = {i: [] for i in ids}
        down: dict[str, list[str]] = {i: [] for i in ids}
        for u, v in self.edges:  # edge order
            up[v].append(u)
            down[u].append(v)
        # Kahn topological sort; deterministic (insertion order ties)
        indeg = {i: len(up[i]) for i in ids}
        queue = [i for i, d in indeg.items() if d == 0]
        order: list[str] = []
        while queue:
            u = queue.pop(0)
            order.append(u)
            for v in down[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != len(ids):
            raise ValueError(f"{self.name}: cycle detected")
        self._memo.update(op=dict(zip(ids, self.operators)), up=up, down=down, order=order)

    # -- structure accessors -------------------------------------------------
    def op(self, op_id: str) -> Operator:
        return self._memo["op"][op_id]

    def upstream(self, op_id: str) -> list[str]:
        return list(self._memo["up"].get(op_id, ()))

    def downstream(self, op_id: str) -> list[str]:
        return list(self._memo["down"].get(op_id, ()))

    def topological_order(self) -> list[str]:
        """Kahn topological sort; deterministic (insertion order ties)."""
        return list(self._memo["order"])

    def ancestors(self, op_id: str) -> set[str]:
        return self._reach(op_id, "up")

    def descendants(self, op_id: str) -> set[str]:
        return self._reach(op_id, "down")

    def _reach(self, op_id: str, way: str) -> set[str]:
        """Operators reachable from ``op_id`` along the ``way`` adjacency."""
        adj = self._memo[way]
        seen: set[str] = set()
        stack = list(adj.get(op_id, ()))
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(adj[u])
        return seen

    def propagate(
        self, source_rates: dict[str, float], cap: dict[str, float] | None = None,
    ) -> tuple[dict[str, float], dict[str, float]]:
        """Push source rates through the DAG in topological order.

        A source emits its rate. Every other operator takes the sum of its
        upstreams' outputs, processes at most ``cap[op]`` of it, and emits
        processed × its selectivity. Returns (input rate, processed rate)
        per operator."""
        inp: dict[str, float] = {}
        processed: dict[str, float] = {}
        out: dict[str, float] = {}
        for oid in self.topological_order():
            if oid in self.sources:
                inp[oid] = processed[oid] = out[oid] = source_rates[self.sources[oid]]
                continue
            r = inp[oid] = sum(out[u] for u in self.upstream(oid))
            processed[oid] = r if cap is None else min(r, cap[oid])
            out[oid] = processed[oid] * self.op(oid).selectivity
        return inp, processed

    #: Operators whose parallelism is tunable (sources/sinks are not —
    #: sources are external and sinks are trivially cheap in the paper's
    #: workloads).
    def tunable_operators(self) -> list[str]:
        return [
            o.op_id
            for o in self.operators
            if o.op_type not in ("source", "sink")
        ]

    # -- serialisation (the ``dag_json`` key of ``HistoryRecord.to_row``) -----
    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "operators": [vars(o) | {} for o in self.operators],
                "edges": self.edges,
                "sources": self.sources,
            }
        )

    def canonical_key(self) -> str:
        """Structure+label hash key: identical DAGs (up to op-id renaming in
        topological order) share a key. Used to deduplicate GED work."""
        if "key" in self._memo:
            return self._memo["key"]
        order = {oid: i for i, oid in enumerate(self._memo["order"])}
        ops = sorted(
            (
                order[o.op_id],
                o.op_type,
                o.window_type,
                o.window_policy,
                round(o.window_length, 6),
                round(o.sliding_length, 6),
                o.aggregate_function,
            )
            for o in self.operators
        )
        edges = sorted((order[u], order[v]) for u, v in self.edges)
        key = self._memo["key"] = json.dumps([ops, edges])
        return key
