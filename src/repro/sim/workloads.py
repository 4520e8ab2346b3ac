"""Workload catalogue: Nexmark Q1/Q2/Q3/Q5/Q8 and ZeroTune's PQP query
templates, with the paper's Table II source-rate units. It states §V's
evaluation layout once: ``Workload.group`` is the column that reports a
job, ``PQP_TEMPLATES`` each PQP group's Table II key and template count;
the harness, ZeroTune's job set and the ablations filter the catalogue.

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

#: PQP group (its reported column) → (Table II key, template count);
#: template ``i`` of a group is the job ``f"{key}_{i}"``.
PQP_TEMPLATES: dict[str, tuple[str, int]] = {
    "Linear": ("pqp_linear", 8),
    "2-way-join": ("pqp_2way", 16),
    "3-way-join": ("pqp_3way", 32),
}


@dataclass
class Workload:
    """A tunable streaming job: logical DAG + source-rate units."""

    name: str
    dag: DataflowDAG
    system: str
    rate_units: dict[str, float]
    #: Reported column: "Q1" … "Q8" for Nexmark, a ``PQP_TEMPLATES`` key
    #: ("Linear", "2-way-join", "3-way-join") for PQP.
    group: str

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


def _mk(name, group, system, ops, edges, sources, ratios) -> Workload:
    """Job ``name`` of column ``group``, with its PQP group's Table II units
    or else its own."""
    key = PQP_TEMPLATES[group][0] if group in PQP_TEMPLATES else name
    units = SOURCE_RATE_UNITS[(key, system)]
    dag = _fit_widths(DataflowDAG(name, ops, edges, sources), units, ratios, system)
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
    """The five Nexmark jobs of §V-A as logical DAGs, each its own column."""
    cat: dict[str, Workload] = {}

    def query(col: str, ops, edges, sources) -> None:
        name = f"nexmark_{col.lower()}"
        cat[name] = _mk(name, col, system, ops, edges, sources, _NEXMARK_RATIOS[system][name])

    # Q1 — currency conversion (stateless map).
    query(
        "Q1",
        [
            Operator("src_bids", "source"),
            Operator("map", "map", tuple_data_type="row"),
            Operator("sink", "sink"),
        ],
        [("src_bids", "map"), ("map", "sink")],
        {"src_bids": "bids"},
    )
    # Q2 — selection (stateless filter).
    query(
        "Q2",
        [
            Operator("src_bids", "source"),
            Operator("filter", "filter", selectivity=0.2),
            Operator("sink", "sink"),
        ],
        [("src_bids", "filter"), ("filter", "sink")],
        {"src_bids": "bids"},
    )
    # Q3 — incremental (record-at-a-time) two-input join.
    query(
        "Q3",
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
    )
    # Q5 — hot items: sliding-window count per auction, then max-join.
    query(
        "Q5",
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
    )
    # Q8 — tumbling-window join of new persons with their auctions.
    query(
        "Q8",
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
    )
    return cat


# --------------------------------------------------------------------------
# PQP templates (ZeroTune's synthetic query generator), as many per group
# as ``PQP_TEMPLATES`` says, varying window type/policy/length and
# aggregation function. Per-operator target ratios jitter ±30 % around
# group means with a seeded RNG so templates differ.
# --------------------------------------------------------------------------
_WINDOWS = [("tumbling", "time", 30.0, 0.0), ("sliding", "time", 60.0, 20.0),
            ("tumbling", "count", 1000.0, 0.0), ("sliding", "count", 2000.0, 500.0)]
_AGG_FNS = ["sum", "avg", "min", "max"]


def _jit(rng: np.random.Generator, x: float) -> float:
    return float(x * rng.uniform(0.7, 1.3))


def _templates(col: str, system: str) -> list[str]:
    """Job names of PQP group ``col`` on ``system``: none where Table II
    gives the group no units."""
    key, n = PQP_TEMPLATES[col]
    return [f"{key}_{i}" for i in range(n)] if (key, system) in SOURCE_RATE_UNITS else []


def pqp_catalogue(system: str = "flink") -> dict[str, Workload]:
    """The PQP templates of §V-A in each group Table II gives ``system``
    units for: every group on Flink, none on Timely, as in the paper."""
    cat: dict[str, Workload] = {}
    for i, name in enumerate(_templates("Linear", system)):
        rng = np.random.default_rng(1000 + i)
        wt, wp, wl, sl = _WINDOWS[i % 4]
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
        cat[name] = _mk(name, "Linear", system, ops, edges, {"src": "pqp"}, ratios)
    for i, name in enumerate(_templates("2-way-join", system)):
        rng = np.random.default_rng(2000 + i)
        wt, wp, wl, sl = _WINDOWS[i % 4]
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
        cat[name] = _mk(name, "2-way-join", system, ops, edges, {"src1": "pqp", "src2": "pqp"}, ratios)
    for i, name in enumerate(_templates("3-way-join", system)):
        rng = np.random.default_rng(3000 + i)
        wt, wp, wl, sl = _WINDOWS[i % 4]
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
            name, "3-way-join", system, ops, edges, {"src1": "pqp", "src2": "pqp", "src3": "pqp"}, ratios
        )
    return cat


def full_catalogue(system: str = "flink") -> dict[str, Workload]:
    """Every job Table II gives ``system`` units for."""
    return nexmark_catalogue(system) | pqp_catalogue(system)
