"""Golden parity for GNN training and inference, pinned bit for bit.

One small local history with mixed node counts (3, 5, 6, 7 and 10
operators, two 5-operator DAGs of different shape) feeds both GNN heads:

- the StreamTune encoder (node head with FUSE) from ``pretrain_global``,
  its training accuracy and one warm-up dataset drawn from it;
- ZeroTune's cost model (graph head), and the costs of the 65 candidates
  one ``ZeroTuneTuner.tune`` scores.

Each value is a sha256 over the exact float64 values, so any change in
summation order or rounding fails.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.baselines.zerotune as zerotune
from repro.baselines.zerotune import N_SAMPLES, ZeroTuneCostModel, ZeroTuneTuner
from repro.core.pretrain import pretrain_global
from repro.history import generate_history_local
from repro.sim.workloads import full_catalogue

JOBS = ("nexmark_q1", "nexmark_q5", "pqp_linear_0", "nexmark_q3", "pqp_2way_0", "pqp_3way_0")
EPOCHS = 3

_GOLDEN = json.loads(Path(__file__).with_name("gnn_golden.json").read_text())


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def _params(gnn) -> dict[str, str]:
    return {k: _sha(v) for k, v in sorted(gnn.params.items())}


def digests(monkeypatch) -> dict:
    cat = full_catalogue("flink")
    hist = generate_history_local([cat[n] for n in JOBS], n_per_workload=12, seed=4)
    bundle = pretrain_global(hist, epochs=EPOCHS, seed=0)
    h, p, y = bundle.warmup_dataset(0, max_points=60, seed=2)
    model = ZeroTuneCostModel(bundle.feature_encoder, seed=0).fit(hist, epochs=EPOCHS, seed=0)

    # The tuner deploys the argmin of its candidates' costs: record them.
    scored: list[np.ndarray] = []
    argmin = np.argmin

    def spy(a, *args, **kwargs):
        scored.append(np.asarray(a, dtype=np.float64))
        return argmin(a, *args, **kwargs)

    monkeypatch.setattr(zerotune.np, "argmin", spy)
    wl = cat["pqp_3way_0"]
    out = ZeroTuneTuner(wl, model, seed=1).tune(
        {o: 1 for o in wl.dag.tunable_operators()}, wl.rates(8)
    )
    monkeypatch.undo()
    assert [len(c) for c in scored] == [N_SAMPLES + 1]
    return {
        "encoder": _params(bundle.encoders[0]),
        "train_acc": repr(bundle.train_acc[0]),
        "warmup": {"h": _sha(h), "p": _sha(p), "y": _sha(y)},
        "cost_model": _params(model.gnn),
        "candidate_costs": _sha(scored[0]),
        "zerotune_final": dict(sorted(out.final_parallelism.items())),
    }


def test_gnn_training_and_scoring_match_golden(monkeypatch):
    assert digests(monkeypatch) == _GOLDEN


if __name__ == "__main__":
    # Regenerate the golden file (only when a change is meant to move it).
    with pytest.MonkeyPatch.context() as mp:
        Path(__file__).with_name("gnn_golden.json").write_text(
            json.dumps(digests(mp), indent=1, sort_keys=True) + "\n"
        )
