"""Golden parity for GNN training and inference, pinned bit for bit.

One small local history with mixed node counts (3, 5, 6, 7 and 10
operators, two 5-operator DAGs of different shape) feeds both GNN heads:

- the StreamTune encoder (node head with FUSE) from ``pretrain(k=1)``,
  its training accuracy and one warm-up dataset drawn from it;
- ZeroTune's cost model (graph head), and the costs of the 65 candidates
  one ``ZeroTuneTuner.tune`` scores.

Each value is a sha256 over the exact float64 values, so any change in
summation order or rounding fails.

Bit-level pins of BLAS output hold only for one kernel: numpy's bundled
OpenBLAS is built with ``DYNAMIC_ARCH=1`` and picks its dgemm kernel from
the CPU when it loads, and the kernels sum in different orders. The
reference backend is OpenBLAS's ``Prescott`` kernel, one thread, with
numpy's own SIMD dispatch left native. ``OPENBLAS_CORETYPE`` is read only
when the library loads, so the digests are computed in a child interpreter
started with the kernel pinned, and the test checks that the child's
OpenBLAS reports that kernel. It is skipped where numpy's BLAS is not an
x86_64 OpenBLAS with ``DYNAMIC_ARCH=1``, since the kernel does not exist
there.

``PYTHONPATH=src python tests/test_gnn_golden.py`` regenerates the golden
file through the same pinned child (only when a change is meant to move it).
"""
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.baselines.zerotune as zerotune
from repro.baselines.zerotune import N_SAMPLES, ZeroTuneCostModel, ZeroTuneTuner
from repro.core.pretrain import pretrain
from repro.history import generate_history_local
from repro.sim.workloads import full_catalogue

JOBS = ("nexmark_q1", "nexmark_q5", "pqp_linear_0", "nexmark_q3", "pqp_2way_0", "pqp_3way_0")
EPOCHS = 3

_GOLDEN = json.loads(Path(__file__).with_name("gnn_golden.json").read_text())

# The BLAS backend the golden was recorded on; OPENBLAS_VERBOSE=2 makes
# OpenBLAS name its kernel on stderr ("Core: Prescott") when it loads.
KERNEL = "Prescott"
_PIN = {"OPENBLAS_CORETYPE": KERNEL, "OPENBLAS_NUM_THREADS": "1", "OPENBLAS_VERBOSE": "2"}


def _kernel_exists() -> bool:
    """Whether numpy's BLAS is an x86_64 OpenBLAS that can run ``KERNEL``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return (
        platform.machine() == "x86_64"
        and "openblas" in blas.get("name", "")
        and "DYNAMIC_ARCH=1" in blas.get("openblas configuration", "").split()
    )


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def _params(gnn) -> dict[str, str]:
    return {k: _sha(v) for k, v in sorted(gnn.params.items())}


def digests(monkeypatch) -> dict:
    cat = full_catalogue("flink")
    hist = generate_history_local([cat[n] for n in JOBS], n_per_workload=12, seed=4)
    bundle = pretrain(hist, k=1, epochs=EPOCHS, seed=0)
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


def pinned_digests() -> dict:
    """``digests`` computed in a child interpreter on the ``KERNEL`` kernel."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, __file__, "--print"],
        env={**os.environ, **_PIN, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    # A host that ignored the pin would compare another kernel's bits.
    assert f"Core: {KERNEL}" in child.stderr.splitlines(), child.stderr
    return json.loads(child.stdout)


@pytest.mark.skipif(
    not _kernel_exists(),
    reason=f"numpy's BLAS is not an x86_64 OpenBLAS with DYNAMIC_ARCH=1: no {KERNEL} kernel",
)
def test_gnn_training_and_scoring_match_golden():
    assert pinned_digests() == _GOLDEN


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        with pytest.MonkeyPatch.context() as mp:
            print(json.dumps(digests(mp)))
    else:
        # Regenerate the golden file (only when a change is meant to move it).
        Path(__file__).with_name("gnn_golden.json").write_text(
            json.dumps(pinned_digests(), indent=1, sort_keys=True) + "\n"
        )
