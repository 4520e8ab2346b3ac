"""Operator feature encoding (paper Table I + §IV-A).

Static features (Table I) are one-hot encoded (categoricals) or min–max
scaled to [0, 1] (numerics). The initial node feature vector h_v^(0)
concatenates all static features with one dynamic feature — the source
rate (non-zero only for source operators; first-level downstream
operators receive it through message passing). The other dynamic
feature, **parallelism**, is deliberately excluded here: it is fused
into the embedding later (Eq. 3) so the encoder yields
parallelism-agnostic embeddings for the fine-tuning phase.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.dag import CATEGORIES, DataflowDAG

#: Table I — the static feature schema (name, kind). Kept as data so the
#: tests can assert the reproduced schema matches the paper's table.
STATIC_FEATURES: tuple[tuple[str, str], ...] = (
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
)

_NUMERICS = tuple(n for n, k in STATIC_FEATURES if k == "numeric")
#: Operator attribute of each feature: its own name, except Table I's
#: ``operator_type``, which is ``Operator.op_type``.
_ATTR = {n: "op_type" if n == "operator_type" else n for n, _ in STATIC_FEATURES}


@dataclass
class FeatureEncoder:
    """Min–max + one-hot encoder for initial node feature vectors.

    Fit on the pre-training corpus so numeric ranges (and the source-rate
    range) are corpus-wide constants; encoding is then deterministic and
    identical across pre-training and online tuning.
    """

    numeric_lo: dict[str, float] = field(default_factory=dict)
    numeric_hi: dict[str, float] = field(default_factory=dict)
    rate_lo: float = 0.0
    rate_hi: float = 1.0
    p_max: int = 100

    @property
    def dim(self) -> int:
        cat = sum(len(CATEGORIES[_ATTR[n]]) for n, k in STATIC_FEATURES if k == "categorical")
        # + selectivity + source rate + upstream data rate (see encode_dag)
        return cat + len(_NUMERICS) + 3

    def fit(
        self,
        corpus: list[tuple[DataflowDAG, dict[str, float]]],
        *,
        p_max: int = 100,
    ) -> "FeatureEncoder":
        """Learn numeric min/max over all operators in ``corpus`` (pairs
        of DAG and source-rate mapping)."""
        vals: dict[str, list[float]] = {n: [] for n in _NUMERICS}
        rates: list[float] = [1.0]
        for dag, source_rates in corpus:
            for op in dag.operators:
                for n in _NUMERICS:
                    vals[n].append(float(getattr(op, _ATTR[n])))
            rates.extend(float(v) for v in source_rates.values())
            rates.extend(upstream_rates(dag, source_rates).values())
        for n in _NUMERICS:
            lo, hi = (min(vals[n]), max(vals[n])) if vals[n] else (0.0, 1.0)
            self.numeric_lo[n] = lo
            self.numeric_hi[n] = hi if hi > lo else lo + 1.0
        # Rates span orders of magnitude across jobs (Table II: 250 to
        # 9e6 records/s), so min–max scaling happens in log space.
        logs = [np.log1p(max(0.0, r)) for r in rates]
        self.rate_lo = float(min(logs))
        self.rate_hi = float(max(logs))
        if self.rate_hi <= self.rate_lo:
            self.rate_hi = self.rate_lo + 1.0
        self.p_max = p_max
        return self

    def _scale(self, name: str, v: np.ndarray) -> np.ndarray:
        lo = self.numeric_lo.get(name, 0.0)
        hi = self.numeric_hi.get(name, 1.0)
        return np.clip((v - lo) / (hi - lo), 0.0, 1.0)

    def _scale_rate(self, rate: float | np.ndarray) -> np.ndarray:
        z = (np.log1p(np.maximum(0.0, rate)) - self.rate_lo) / (self.rate_hi - self.rate_lo)
        return np.clip(z, 0.0, 1.5)

    def encode_dag(
        self, dag: DataflowDAG, source_rates: dict[str, float]
    ) -> tuple[list[str], np.ndarray]:
        """Node features h_v^(0) for a whole DAG, rows in topological
        order, built one feature column at a time.

        The source rate is non-zero only for source operators (the
        paper's dynamic feature). The upstream rate is the operator's
        offered upstream data rate (§II-A): derivable from the source
        rates and static selectivities alone — no runtime observation —
        so it is legitimately available at recommendation time.
        """
        order = dag.topological_order()
        ops = [dag.op(oid) for oid in order]
        up = upstream_rates(dag, source_rates)
        cols: list[np.ndarray] = []
        for name, kind in STATIC_FEATURES:
            vals = [getattr(op, _ATTR[name]) for op in ops]
            if kind == "categorical":
                cats = CATEGORIES[_ATTR[name]]
                cols.append(np.eye(len(cats))[[cats.index(v) for v in vals]])
            else:
                cols.append(self._scale(name, np.array(vals, dtype=float))[:, None])
        sel = np.array([op.selectivity for op in ops], dtype=float)
        rate = [source_rates[dag.sources[oid]] if oid in dag.sources else 0.0 for oid in order]
        cols.append(np.clip(sel, 0.0, 2.0)[:, None] / 2.0)
        cols.append(self._scale_rate(np.array(rate))[:, None])
        cols.append(self._scale_rate(np.array([up[oid] for oid in order]))[:, None])
        return order, np.hstack(cols)

    def scale_parallelism(self, p) -> np.ndarray:
        """Parallelism → [0, 1]; monotone, so constraint semantics carry
        over to the scaled space."""
        return np.asarray(p, dtype=float) / float(self.p_max)


def upstream_rates(
    dag: DataflowDAG, source_rates: dict[str, float]
) -> dict[str, float]:
    """Offered upstream data rate per operator (§II-A): source rates
    propagated through static selectivities with no capacity caps (this
    is the *offered* load an operator must sustain); 0 for sources."""
    inp, _ = dag.propagate(source_rates)
    return {oid: 0.0 if oid in dag.sources else float(r) for oid, r in inp.items()}


def adjacency(dag: DataflowDAG, order: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalised in-neighbour and out-neighbour adjacency matrices
    (A_in[v,u]=1/|N_in(v)| when u→v) for directed message passing."""
    n = len(order)
    idx = {o: i for i, o in enumerate(order)}
    a_in = np.zeros((n, n))
    a_out = np.zeros((n, n))
    for u, v in dag.edges:
        a_in[idx[v], idx[u]] = 1.0
        a_out[idx[u], idx[v]] = 1.0
    for a in (a_in, a_out):
        s = a.sum(axis=1, keepdims=True)
        np.divide(a, s, out=a, where=s > 0)
    return a_in, a_out
