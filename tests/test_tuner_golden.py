"""Golden parity for the four tuners: every tuning process of a fixed
rate pattern, pinned. The tuning layer must not drift under refactoring."""
import json
from pathlib import Path

import pytest

from repro.baselines.conttune import ContTuneTuner
from repro.baselines.ds2 import DS2Tuner
from repro.baselines.zerotune import ZeroTuneCostModel, ZeroTuneTuner
from repro.core.pretrain import pretrain_global
from repro.core.tuner import StreamTuneTuner
from repro.history import generate_history_local
from repro.sim.workloads import full_catalogue

#: Ten rate changes that revisit 3, 7 and 10, so memoised redeploys,
#: trims and trim cooldowns run as well as first visits.
PATTERN = [3, 7, 10, 3, 7, 1, 10, 3, 5, 7]
SEED = 3
JOBS = {"flink": ["nexmark_q5", "pqp_3way_0"], "timely": ["nexmark_q5"]}
#: ``engine-job-method``; ZeroTune runs on PQP jobs only, as in the tables.
CASES = [
    f"{system}-{job}-{method}"
    for system, jobs in JOBS.items()
    for job in jobs
    for method in ("DS2", "ContTune", "ZeroTune", "StreamTune")
    if method != "ZeroTune" or job.startswith("pqp")
]

_GOLDEN = json.loads(Path(__file__).with_name("tuner_golden.json").read_text())


@pytest.fixture(scope="module")
def models():
    """Per engine: the catalogue, a global StreamTune bundle and (Flink)
    a ZeroTune cost model, all from one small local history."""
    out = {}
    for system, names in JOBS.items():
        cat = full_catalogue(system)
        hist = generate_history_local([cat[n] for n in names], n_per_workload=200, seed=11)
        bundle = pretrain_global(hist, epochs=10, seed=0)
        pqp = [r for r in hist if r.job.startswith("pqp")]
        zt = ZeroTuneCostModel(bundle.feature_encoder, seed=0).fit(pqp, epochs=10, seed=0) if pqp else None
        out[system] = (cat, bundle, zt)
    return out


def _tuner(method, wl, bundle, zt):
    if method == "DS2":
        return DS2Tuner(wl, seed=SEED)
    if method == "ContTune":
        return ContTuneTuner(wl, seed=SEED)
    if method == "ZeroTune":
        return ZeroTuneTuner(wl, zt, seed=SEED)
    return StreamTuneTuner(bundle, wl, model_kind="xgboost", seed=SEED)


def _processes(tuner, wl) -> list[dict]:
    """Every tuning process of the pattern, carrying the deployed
    parallelism across changes as ``run_pattern`` does."""
    par = {o: 1 for o in wl.dag.tunable_operators()}
    out = []
    for mult in PATTERN:
        r = tuner.tune(par, wl.rates(mult))
        par = dict(r.final_parallelism)
        out.append({
            "final_parallelism": par,
            "n_reconfigs": r.n_reconfigs,
            "backpressure_events": r.backpressure_events,
            "converged": r.converged,
        })
    return out


def test_golden_covers_every_case():
    assert sorted(_GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_tuning_processes_match_golden(models, case):
    system, job, method = case.split("-")
    cat, bundle, zt = models[system]
    wl = cat[job]
    assert _processes(_tuner(method, wl, bundle, zt), wl) == _GOLDEN[case]
