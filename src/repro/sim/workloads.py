"""Workload catalogue: Nexmark Q1/Q2/Q3/Q5/Q8 and PQP query templates
(Linear ×8, 2-way-join ×16, 3-way-join ×32), with the paper's Table II
source-rate units.

Each workload is a logical :class:`DataflowDAG` plus its per-source rate
unit ``W_u``. Operator *tuple widths* are fitted so that, at source rate
``10·W_u`` on the target engine, each operator's offered-input /
unit-rate ratio hits a designed target — i.e. the workloads are
well-conditioned: required parallelisms land in the same regime as the
paper's testbed (single digits for cheap operators, tens for hot ones,
small values on the 40× faster Timely engine). This mirrors what the
paper's physical testbeds achieve with real record sizes and hardware;
see DESIGN.md §1.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.graphs.dag import DataflowDAG, Operator
from repro.sim import engine

#: Table II — source-rate units W_u (records/s) per job and system.
SOURCE_RATE_UNITS: dict[tuple[str, str], dict[str, float]] = {
    ("nexmark_q1", "flink"): {"bids": 700_000},
    ("nexmark_q1", "timely"): {"bids": 9_000_000},
    ("nexmark_q2", "flink"): {"bids": 900_000},
    ("nexmark_q2", "timely"): {"bids": 9_000_000},
    ("nexmark_q3", "flink"): {"auctions": 200_000, "persons": 40_000},
    ("nexmark_q3", "timely"): {"auctions": 5_000_000, "persons": 5_000_000},
    ("nexmark_q5", "flink"): {"bids": 80_000},
    ("nexmark_q5", "timely"): {"bids": 10_000_000},
    ("nexmark_q8", "flink"): {"auctions": 100_000, "persons": 60_000},
    ("nexmark_q8", "timely"): {"auctions": 4_000_000, "persons": 4_000_000},
    ("pqp_linear", "flink"): {"pqp": 5_000},
    ("pqp_2way", "flink"): {"pqp": 500},
    ("pqp_3way", "flink"): {"pqp": 250},
}


@dataclass
class Workload:
    """A tunable streaming job: logical DAG + source-rate units."""

    name: str
    dag: DataflowDAG
    system: str
    rate_units: dict[str, float]
    group: str  # "nexmark", "pqp_linear", "pqp_2way", "pqp_3way"

    def rates(self, multiplier: float) -> dict[str, float]:
        """Source rates at ``multiplier × W_u``."""
        return {k: v * multiplier for k, v in self.rate_units.items()}

    @property
    def p_max(self) -> int:
        return engine.PROFILES[self.system].p_max


def _fit_widths(
    dag: DataflowDAG,
    rate_units: dict[str, float],
    ratios: dict[str, float],
    system: str,
) -> DataflowDAG:
    """Set each operator's tuple width so its input/unit-rate ratio at
    10·W_u equals the designed target. Rates propagate independently of
    widths (selectivity only), so one pass suffices."""
    inp, _ = dag.propagate({k: 10.0 * v for k, v in rate_units.items()})
    new_ops = []
    for op in dag.operators:
        if op.op_id not in ratios or inp[op.op_id] <= 0:
            new_ops.append(op)
            continue
        u1 = engine.unit_rate(replace(op, tuple_width_in=1.0), system)
        width = max(0.001, u1 * ratios[op.op_id] / inp[op.op_id])
        new_ops.append(
            replace(
                op,
                tuple_width_in=round(width, 6),
                tuple_width_out=round(max(0.001, width * op.selectivity), 6),
            )
        )
    return DataflowDAG(dag.name, new_ops, list(dag.edges), dict(dag.sources))


def _mk(name, ops, edges, sources, ratios, system, units_key, group) -> Workload:
    units = SOURCE_RATE_UNITS[(units_key, system)]
    dag = DataflowDAG(name, ops, edges, sources)
    dag = _fit_widths(dag, units, ratios, system)
    return Workload(name=name, dag=dag, system=system, rate_units=units, group=group)


# --------------------------------------------------------------------------
# Nexmark — operator/input ratios at 10·W_u per system. Flink targets put
# hot operators in the tens (matching 100-slot headroom); Timely targets
# sit near 1–3 so the true need is a few native workers (Q1/Q2 "run
# effectively with a parallelism of 1", paper §V-F).
# --------------------------------------------------------------------------
_NEXMARK_RATIOS = {
    "flink": {
        "nexmark_q1": {"map": 17.5},
        "nexmark_q2": {"filter": 15.0},
        "nexmark_q3": {"filter_a": 3.3, "filter_p": 0.8, "join": 8.0},
        "nexmark_q5": {"wagg": 10.0, "agg": 2.0, "join": 5.0},
        "nexmark_q8": {"wagg_p": 6.0, "wagg_a": 11.0, "wjoin": 9.0},
    },
    "timely": {
        "nexmark_q1": {"map": 0.8},
        "nexmark_q2": {"filter": 0.7},
        "nexmark_q3": {"filter_a": 1.2, "filter_p": 0.6, "join": 2.2},
        "nexmark_q5": {"wagg": 2.8, "agg": 0.5, "join": 1.4},
        "nexmark_q8": {"wagg_p": 1.6, "wagg_a": 1.2, "wjoin": 2.0},
    },
}


def nexmark_catalogue(system: str = "flink") -> dict[str, Workload]:
    """The five Nexmark jobs of §V-A as logical DAGs."""
    r = _NEXMARK_RATIOS[system]
    cat: dict[str, Workload] = {}
    # Q1 — currency conversion (stateless map).
    cat["nexmark_q1"] = _mk(
        "nexmark_q1",
        [
            Operator("src_bids", "source"),
            Operator("map", "map", tuple_data_type="row"),
            Operator("sink", "sink"),
        ],
        [("src_bids", "map"), ("map", "sink")],
        {"src_bids": "bids"},
        r["nexmark_q1"],
        system,
        "nexmark_q1",
        "nexmark",
    )
    # Q2 — selection (stateless filter).
    cat["nexmark_q2"] = _mk(
        "nexmark_q2",
        [
            Operator("src_bids", "source"),
            Operator("filter", "filter", selectivity=0.2),
            Operator("sink", "sink"),
        ],
        [("src_bids", "filter"), ("filter", "sink")],
        {"src_bids": "bids"},
        r["nexmark_q2"],
        system,
        "nexmark_q2",
        "nexmark",
    )
    # Q3 — incremental (record-at-a-time) two-input join.
    cat["nexmark_q3"] = _mk(
        "nexmark_q3",
        [
            Operator("src_auctions", "source"),
            Operator("src_persons", "source"),
            Operator("filter_a", "filter", selectivity=0.5),
            Operator("filter_p", "filter", selectivity=0.5),
            Operator("join", "join", join_key_class="long", selectivity=0.8),
            Operator("sink", "sink"),
        ],
        [
            ("src_auctions", "filter_a"),
            ("src_persons", "filter_p"),
            ("filter_a", "join"),
            ("filter_p", "join"),
            ("join", "sink"),
        ],
        {"src_auctions": "auctions", "src_persons": "persons"},
        r["nexmark_q3"],
        system,
        "nexmark_q3",
        "nexmark",
    )
    # Q5 — hot items: sliding-window count per auction, then max-join.
    cat["nexmark_q5"] = _mk(
        "nexmark_q5",
        [
            Operator("src_bids", "source"),
            Operator(
                "wagg",
                "window_agg",
                window_type="sliding",
                window_policy="time",
                window_length=60.0,
                sliding_length=10.0,
                aggregate_function="count",
                aggregate_key_class="long",
                selectivity=0.1,
            ),
            Operator("agg", "aggregate", aggregate_function="max", selectivity=0.1),
            Operator("join", "join", join_key_class="long", selectivity=0.5),
            Operator("sink", "sink"),
        ],
        [
            ("src_bids", "wagg"),
            ("wagg", "agg"),
            ("wagg", "join"),
            ("agg", "join"),
            ("join", "sink"),
        ],
        {"src_bids": "bids"},
        r["nexmark_q5"],
        system,
        "nexmark_q5",
        "nexmark",
    )
    # Q8 — tumbling-window join of new persons with their auctions.
    cat["nexmark_q8"] = _mk(
        "nexmark_q8",
        [
            Operator("src_persons", "source"),
            Operator("src_auctions", "source"),
            Operator(
                "wagg_p",
                "window_agg",
                window_type="tumbling",
                window_policy="time",
                window_length=10.0,
                aggregate_function="count",
                selectivity=0.9,
            ),
            Operator(
                "wagg_a",
                "window_agg",
                window_type="tumbling",
                window_policy="time",
                window_length=10.0,
                aggregate_function="count",
                selectivity=0.9,
            ),
            Operator(
                "wjoin",
                "window_join",
                window_type="tumbling",
                window_policy="time",
                window_length=10.0,
                join_key_class="long",
                selectivity=0.4,
            ),
            Operator("sink", "sink"),
        ],
        [
            ("src_persons", "wagg_p"),
            ("src_auctions", "wagg_a"),
            ("wagg_p", "wjoin"),
            ("wagg_a", "wjoin"),
            ("wjoin", "sink"),
        ],
        {"src_persons": "persons", "src_auctions": "auctions"},
        r["nexmark_q8"],
        system,
        "nexmark_q8",
        "nexmark",
    )
    return cat


# --------------------------------------------------------------------------
# PQP templates (ZeroTune's synthetic query generator): Linear ×8,
# 2-way-join ×16, 3-way-join ×32, varying window type/policy/length and
# aggregation function. Per-operator target ratios jitter ±30 % around
# group means with a seeded RNG so templates differ.
# --------------------------------------------------------------------------
_WINDOWS = [("tumbling", "time", 30.0, 0.0), ("sliding", "time", 60.0, 20.0),
            ("tumbling", "count", 1000.0, 0.0), ("sliding", "count", 2000.0, 500.0)]
_AGG_FNS = ["sum", "avg", "min", "max"]


def _jit(rng: np.random.Generator, x: float) -> float:
    return float(x * rng.uniform(0.7, 1.3))


def pqp_catalogue() -> dict[str, Workload]:
    """The 56 PQP query templates of §V-A (Flink-only in the paper)."""
    cat: dict[str, Workload] = {}
    for i in range(8):  # Linear
        rng = np.random.default_rng(1000 + i)
        wt, wp, wl, sl = _WINDOWS[i % 4]
        name = f"pqp_linear_{i}"
        ops = [
            Operator("src", "source"),
            Operator("filter1", "filter", selectivity=0.6),
            Operator("filter2", "filter", selectivity=0.7),
            Operator(
                "wagg", "window_agg", window_type=wt, window_policy=wp,
                window_length=wl, sliding_length=sl,
                aggregate_function=_AGG_FNS[i % 4], aggregate_class="long",
                selectivity=0.1,
            ),
            Operator("sink", "sink"),
        ]
        edges = [("src", "filter1"), ("filter1", "filter2"), ("filter2", "wagg"), ("wagg", "sink")]
        ratios = {
            "filter1": _jit(rng, 8.0),
            "filter2": _jit(rng, 5.0),
            "wagg": _jit(rng, 10.0),
        }
        cat[name] = _mk(name, ops, edges, {"src": "pqp"}, ratios, "flink", "pqp_linear", "pqp_linear")
    for i in range(16):  # 2-way joins
        rng = np.random.default_rng(2000 + i)
        wt, wp, wl, sl = _WINDOWS[i % 4]
        name = f"pqp_2way_{i}"
        ops = [
            Operator("src1", "source"),
            Operator("src2", "source"),
            Operator("filter1", "filter", selectivity=0.6),
            Operator("filter2", "filter", selectivity=0.5),
            Operator(
                "wjoin", "window_join", window_type=wt, window_policy=wp,
                window_length=wl, sliding_length=sl, join_key_class="long",
                selectivity=0.7,
            ),
            Operator(
                "agg", "window_agg", window_type=wt, window_policy=wp,
                window_length=wl, sliding_length=sl,
                aggregate_function=_AGG_FNS[(i + 1) % 4], selectivity=0.1,
            ),
            Operator("sink", "sink"),
        ]
        edges = [
            ("src1", "filter1"), ("src2", "filter2"),
            ("filter1", "wjoin"), ("filter2", "wjoin"),
            ("wjoin", "agg"), ("agg", "sink"),
        ]
        ratios = {
            "filter1": _jit(rng, 6.0),
            "filter2": _jit(rng, 6.0),
            "wjoin": _jit(rng, 8.0),
            "agg": _jit(rng, 7.0),
        }
        cat[name] = _mk(name, ops, edges, {"src1": "pqp", "src2": "pqp"}, ratios, "flink", "pqp_2way", "pqp_2way")
    for i in range(32):  # 3-way joins
        rng = np.random.default_rng(3000 + i)
        wt, wp, wl, sl = _WINDOWS[i % 4]
        name = f"pqp_3way_{i}"
        ops = [
            Operator("src1", "source"),
            Operator("src2", "source"),
            Operator("src3", "source"),
            Operator("filter1", "filter", selectivity=0.6),
            Operator("filter2", "filter", selectivity=0.5),
            Operator("filter3", "filter", selectivity=0.7),
            Operator(
                "wjoin1", "window_join", window_type=wt, window_policy=wp,
                window_length=wl, sliding_length=sl, join_key_class="long",
                selectivity=0.7,
            ),
            Operator(
                "wjoin2", "window_join", window_type=wt, window_policy=wp,
                window_length=wl, sliding_length=sl, join_key_class="long",
                selectivity=0.6,
            ),
            Operator(
                "agg", "window_agg", window_type=wt, window_policy=wp,
                window_length=wl, sliding_length=sl,
                aggregate_function=_AGG_FNS[i % 4], selectivity=0.1,
            ),
            Operator("sink", "sink"),
        ]
        edges = [
            ("src1", "filter1"), ("src2", "filter2"), ("src3", "filter3"),
            ("filter1", "wjoin1"), ("filter2", "wjoin1"),
            ("wjoin1", "wjoin2"), ("filter3", "wjoin2"),
            ("wjoin2", "agg"), ("agg", "sink"),
        ]
        ratios = {
            "filter1": _jit(rng, 5.0),
            "filter2": _jit(rng, 6.0),
            "filter3": _jit(rng, 4.0),
            "wjoin1": _jit(rng, 7.0),
            "wjoin2": _jit(rng, 9.0),
            "agg": _jit(rng, 8.0),
        }
        cat[name] = _mk(
            name, ops, edges,
            {"src1": "pqp", "src2": "pqp", "src3": "pqp"},
            ratios, "flink", "pqp_3way", "pqp_3way",
        )
    return cat


def full_catalogue(system: str = "flink") -> dict[str, Workload]:
    cat = nexmark_catalogue(system)
    if ("pqp_linear", system) in SOURCE_RATE_UNITS:  # Table II: PQP on Flink only
        cat |= pqp_catalogue()
    return cat


def pqp_groups() -> dict[str, list[str]]:
    return {
        "pqp_linear": [f"pqp_linear_{i}" for i in range(8)],
        "pqp_2way": [f"pqp_2way_{i}" for i in range(16)],
        "pqp_3way": [f"pqp_3way_{i}" for i in range(32)],
    }
