"""Operator-level bottleneck identification — Algorithm 1.

Labels each operator of a deployed dataflow from *observed* metrics:

* no job-level backpressure → every operator labelled 0;
* otherwise, find operators under backpressure with no backpressured
  downstream operator; for each, label its downstream operators 1 when
  their resource utilisation exceeds the threshold T (CPU > 60 %), else
  0. All other operators stay unlabelled (−1) — job-level backpressure
  has altered their upstream rates, so their sufficiency is inconclusive.

The same routine serves pre-training label generation (over historical
deployments) and online feedback collection (Algorithm 2, line 10).
"""
from __future__ import annotations

from repro.graphs.dag import DataflowDAG
from repro.sim.engine import SimResult

#: Resource-utilisation threshold T (paper: "CPU load exceeding 60%").
CPU_THRESHOLD = 0.60

UNLABELLED = -1


def label_operators(dag: DataflowDAG, result: SimResult) -> dict[str, int]:
    """Algorithm 1. Returns ``{op_id: -1|0|1}`` for every operator, from
    the noisy CPU measurement a real system exposes."""
    labels = {o.op_id: UNLABELLED for o in dag.operators}  # line 1
    if not result.job_backpressure:  # lines 2–6
        return {o: 0 for o in labels}
    if result.system == "timely":
        # Timely identifies bottlenecks directly (§V-B): an operator whose
        # processed rate falls below 85 % of its upstreams' output IS the
        # bottleneck — there is no backpressure cascade to walk. Operators
        # downstream of a bottleneck see distorted input rates and stay
        # unlabelled, exactly as in the Flink branch.
        deficit = {o for o, m in result.metrics.items() if m.under_backpressure}
        distorted: set[str] = set()
        for o in deficit:
            distorted |= dag.descendants(o)
        for o in labels:
            if o in deficit:
                labels[o] = 1
            elif o not in distorted:
                labels[o] = 0
        return labels
    bp = {o for o, m in result.metrics.items() if m.under_backpressure}
    # Line 7: backpressured operators with no backpressured downstream.
    o_b = [o for o in bp if not (dag.descendants(o) & bp)]
    for o in o_b:  # lines 8–16
        for d in dag.downstream(o):
            labels[d] = 1 if result.metrics[d].observed_cpu > CPU_THRESHOLD else 0
    return labels


def saturated_ops(dag: DataflowDAG, result: SimResult) -> set[str]:
    """Label augmentation (DESIGN.md §4): tunable operators observed at
    CPU saturation while the sources are throttled. Such an operator is
    an incipient bottleneck even when backpressure sits below the
    detection threshold. Timely never throttles, so there Algorithm 1's
    labels stand alone. Offline labels (``history``) and online feedback
    (``core.tuner``) both apply this one rule."""
    if result.throttle >= 0.995:
        return set()
    return {
        o for o in dag.tunable_operators() if result.metrics[o].observed_cpu > 0.98
    }
