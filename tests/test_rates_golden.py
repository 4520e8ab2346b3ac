"""Golden parity for every consumer of dataflow rate propagation, pinned
bit for bit: the catalogue's fitted tuple widths, the offered upstream
rates (which are also DS2's and ContTune's target rates) and the encoded
node features. Each value is a sha256 over the exact float64 values, so
any change in summation order or rounding fails."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.features import FeatureEncoder, upstream_rates
from repro.sim.engine import PROFILES
from repro.sim.workloads import full_catalogue

SYSTEMS = ("flink", "timely")
MULTIPLIERS = (1, 10)

_GOLDEN = json.loads(Path(__file__).with_name("rates_golden.json").read_text())


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def digests(system: str) -> dict[str, dict[str, str]]:
    """Per workload of ``system``'s catalogue: one digest per consumer.

    The encoder is fitted on the whole catalogue at multipliers 1–10."""
    cat = full_catalogue(system)
    enc = FeatureEncoder().fit(
        [(wl.dag, wl.rates(m)) for wl in cat.values() for m in range(1, 11)],
        p_max=PROFILES[system].p_max,
    )
    out: dict[str, dict[str, str]] = {}
    for name, wl in cat.items():
        dag = wl.dag
        order = dag.topological_order()
        rec = {
            "widths": _sha(
                [w for o in dag.operators for w in (o.tuple_width_in, o.tuple_width_out)]
            )
        }
        for m in MULTIPLIERS:
            up = upstream_rates(dag, wl.rates(m))
            rec[f"upstream_x{m}"] = _sha([up[o] for o in order])
            rec[f"encode_x{m}"] = _sha(enc.encode_dag(dag, wl.rates(m))[1])
        out[name] = rec
    return out


def test_golden_covers_every_workload():
    for system in SYSTEMS:
        assert sorted(_GOLDEN[system]) == sorted(full_catalogue(system))


@pytest.mark.parametrize("system", SYSTEMS)
def test_rate_consumers_match_golden(system):
    assert digests(system) == _GOLDEN[system]
