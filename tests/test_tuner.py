"""Tests for the StreamTune online tuner (Algorithm 2)."""
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.conttune import ContTuneTuner
from repro.baselines.ds2 import DS2Tuner
from repro.baselines.zerotune import ZeroTuneCostModel, ZeroTuneTuner
from repro.core import tuner as tuner_mod
from repro.core.pretrain import pretrain
from repro.core.tuner import (
    FEEDBACK_WEIGHT,
    Deployer,
    StreamTune,
    TuningProcess,
    run_pattern,
)
from repro.history import _deploy_and_label, generate_history_local
from repro.sim.engine import processing_ability, simulate
from repro.sim.source_rates import periodic_pattern
from repro.sim.workloads import nexmark_catalogue, pqp_catalogue


@pytest.fixture(scope="module")
def setup():
    cat = nexmark_catalogue("flink")
    wls = [cat["nexmark_q3"], cat["nexmark_q5"], cat["nexmark_q8"]]
    hist = generate_history_local(wls, n_per_workload=150, seed=11)
    bundle = pretrain(hist, k=1, epochs=35, seed=0)
    return cat, bundle


def _true_need_total(wl, mult):
    rates = wl.rates(mult)
    res = simulate(wl.dag, {o: wl.p_max for o in wl.dag.tunable_operators()}, rates, seed=0)
    total = 0
    for oid in wl.dag.tunable_operators():
        inr = res.metrics[oid].input_rate
        p = 1
        while processing_ability(wl.dag.op(oid), p, wl.system) < inr and p < wl.p_max:
            p += 1
        total += p
    return total


class TestConstruction:
    def test_routes_to_cluster_and_builds_warmup(self, setup):
        cat, bundle = setup
        t = StreamTune(bundle, 1).tuner(cat["nexmark_q5"], "xgboost")
        assert t.cluster == 0
        assert len(t._warm[2]) > 50
        assert t._fb == []

    def test_model_fit_cached(self, setup):
        cat, bundle = setup
        t = StreamTune(bundle, 1).tuner(cat["nexmark_q5"], "xgboost")
        m1 = t._fit_model()
        m2 = t._fit_model()
        assert m1 is m2  # no new feedback → cached


class TestSingleProcess:
    def test_resolves_backpressure(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTune(bundle, 1).tuner(wl, "xgboost")
        out = t.tune({o: 1 for o in wl.dag.tunable_operators()}, wl.rates(10))
        res = simulate(wl.dag, out.final_parallelism, wl.rates(10), seed=77)
        assert not res.job_backpressure
        assert out.converged

    def test_parallelism_in_sane_range(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTune(bundle, 1).tuner(wl, "xgboost")
        out = t.tune({o: 1 for o in wl.dag.tunable_operators()}, wl.rates(10))
        need = _true_need_total(wl, 10)
        assert need <= sum(out.final_parallelism.values()) <= int(2.0 * need)

    def test_memoised_rate_redeploys_fast(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTune(bundle, 1).tuner(wl, "xgboost")
        start = {o: 1 for o in wl.dag.tunable_operators()}
        first = t.tune(start, wl.rates(8))
        t.tune(first.final_parallelism, wl.rates(3))
        again = t.tune(t._rates[t._rate_key(wl.rates(3))].safe, wl.rates(8))
        assert again.n_reconfigs <= 2
        assert again.backpressure_events == 0

    def test_scale_down_on_lower_rate(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTune(bundle, 1).tuner(wl, "xgboost")
        hi = t.tune({o: 1 for o in wl.dag.tunable_operators()}, wl.rates(10))
        lo = t.tune(hi.final_parallelism, wl.rates(2))
        assert sum(lo.final_parallelism.values()) < sum(hi.final_parallelism.values())


class TestCrossRateTransfer:
    def test_floor_transfer_monotone(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTune(bundle, 1).tuner(wl, "xgboost")
        k_lo = t._rate_key(wl.rates(2))
        k_hi = t._rate_key(wl.rates(9))
        t._rates[k_lo] = tuner_mod._AtRate(floor={"wagg": 5})
        assert t._transferred(k_hi)[0]["wagg"] == 5  # unsafe at 2 → unsafe at 9
        assert "wagg" not in t._transferred(t._rate_key(wl.rates(1)))[0]

    def test_cap_transfer_monotone(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTune(bundle, 1).tuner(wl, "xgboost")
        k_hi = t._rate_key(wl.rates(9))
        t._rates[k_hi] = tuner_mod._AtRate(safe={"wagg": 20, "agg": 4, "join": 6})
        caps = t._transferred(t._rate_key(wl.rates(3)))[1]
        assert caps["wagg"] == 20  # safe at 9 → cap at 3
        assert t._transferred(t._rate_key(wl.rates(10)))[1] == {}


class TestFeedback:
    def test_feedback_grows_dataset(self, setup, monkeypatch):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTune(bundle, 1).tuner(wl, "xgboost")
        warm = [a.copy() for a in t._warm]
        t.tune({o: 1 for o in wl.dag.tunable_operators()}, wl.rates(7))
        assert t._fb
        assert all(0.0 < p <= 1.0 and y in (0, 1) for _, p, y in t._fb)
        for a, b in zip(t._warm, warm):  # ΔT is the tuner's, the warm-up set stays
            np.testing.assert_array_equal(a, b)
        seen = []
        monkeypatch.setattr(tuner_mod, "_fit", lambda *args: seen.append(args[-1]))
        t._model = None
        t._fit_model()
        assert list(seen[0]) == [1.0] * len(warm[2]) + [FEEDBACK_WEIGHT] * len(t._fb)

    def test_timely_saturation_labelled_as_in_history(self):
        """A Timely operator at ~1.05× its processing ability is CPU
        saturated but above the 85 % rule: the online feedback labels it
        exactly as the offline history does."""
        wl = nexmark_catalogue("timely")["nexmark_q5"]
        hist = generate_history_local([wl], n_per_workload=10, seed=11)
        t = StreamTune(pretrain(hist, k=1, epochs=2, seed=0), 1).tuner(wl, "xgboost")
        par = {o: 4 for o in wl.dag.tunable_operators()}
        probe = simulate(wl.dag, par, wl.rates(1), system="timely", seed=0).metrics["wagg"]
        rates = wl.rates(1.05 * probe.pa / probe.input_rate)
        res = simulate(wl.dag, par, rates, system="timely", seed=3)
        assert res.metrics["wagg"].observed_cpu > 0.98
        assert not res.job_backpressure
        rec = _deploy_and_label(wl.name, wl.dag, "timely", rates, par, 3)
        emb = t._embeddings(rates)
        t._collect_feedback(res, emb, {})
        ops = [o for o in rec.labels if o in emb]
        assert dict(zip(ops, (y for _, _, y in t._fb))) == {o: rec.labels[o] for o in ops}


def _fake_deploy(backpressure: bool):
    """A ``deploy`` callable that records each deployed vector."""
    calls = []

    def deploy(par, rates):
        calls.append(dict(par))
        return SimpleNamespace(job_backpressure=backpressure)

    return deploy, calls


class TestTuningProcess:
    """The one rule that counts Table III and Fig. 7a for every method."""

    def test_changed_target_counts_one_reconfiguration(self):
        deploy, calls = _fake_deploy(False)
        proc = TuningProcess(deploy, {"a": 2, "b": 3}, {"src": 1.0})
        proc.to({"a": 4, "b": 3})
        assert (proc.n_reconfigs, proc.backpressure_events) == (1, 0)
        assert calls == [{"a": 4, "b": 3}]

    def test_missing_degree_counts_as_one(self):
        deploy, calls = _fake_deploy(False)
        proc = TuningProcess(deploy, {"a": 2}, {"src": 1.0})
        proc.to({"b": 1})
        assert proc.n_reconfigs == 0
        proc.to({"b": 2})
        assert proc.n_reconfigs == 1
        assert calls == [{"a": 2, "b": 1}, {"a": 2, "b": 2}]

    def test_unchanged_redeploy_counts_backpressure_only(self):
        deploy, calls = _fake_deploy(True)
        proc = TuningProcess(deploy, {"a": 2}, {"src": 1.0})
        proc.to({"a": 2})
        assert (proc.n_reconfigs, proc.backpressure_events) == (0, 1)
        assert calls == [{"a": 2}]

    def test_result_keeps_only_given_operators(self):
        deploy, _ = _fake_deploy(False)
        proc = TuningProcess(deploy, {"src": 1, "a": 2}, {"src": 1.0})
        proc.to({"b": 5})
        out = proc.finish(["a", "b"], converged=False)
        assert out is proc
        assert out.final_parallelism == {"a": 2, "b": 5}
        assert (out.n_reconfigs, out.backpressure_events, out.converged) == (1, 0, False)

    def test_deployer_nth_call_uses_seed_plus_stride_times_n(self, monkeypatch):
        seen = []

        def fake_simulate(dag, par, rates, *, system, seed):
            seen.append((dag, system, seed))

        monkeypatch.setattr(tuner_mod, "simulate", fake_simulate)
        wl = nexmark_catalogue("timely")["nexmark_q5"]
        deploy = Deployer(wl, 5, 7919)
        for _ in range(3):
            deploy({}, {})
        assert seen == [(wl.dag, "timely", 5 + 7919 * n) for n in (1, 2, 3)]
        assert deploy.n == 3


@pytest.fixture(scope="module")
def pqp_tuners():
    """A StreamTune bundle and a ZeroTune cost model from one small PQP
    history, for the tuner-agnostic tests."""
    wl = pqp_catalogue()["pqp_linear_0"]
    hist = generate_history_local([wl], n_per_workload=20, seed=11)
    bundle = pretrain(hist, k=1, epochs=2, seed=0)
    model = ZeroTuneCostModel(bundle.feature_encoder, seed=0).fit(hist, epochs=2, seed=0)
    return {
        "DS2": lambda: DS2Tuner(wl, seed=1),
        "ContTune": lambda: ContTuneTuner(wl, seed=1),
        "ZeroTune": lambda: ZeroTuneTuner(wl, model, seed=1),
        "StreamTune": lambda: StreamTune(bundle, 1).tuner(wl, "xgboost"),
    }, wl


@pytest.mark.parametrize("method", ["DS2", "ContTune", "ZeroTune", "StreamTune"])
def test_tune_returns_its_process(pqp_tuners, method):
    """Every method's outcome is the process it deployed through, fixed
    over the tunable operators."""
    makers, wl = pqp_tuners
    ops = wl.dag.tunable_operators()
    out = makers[method]().tune({o: 1 for o in ops}, wl.rates(5))
    assert isinstance(out, TuningProcess)
    assert list(out.final_parallelism) == ops

class TestPattern:
    def test_pattern_run_statistics(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q3"]
        t = StreamTune(bundle, 1).tuner(wl, "xgboost")
        pattern = [3, 7, 10, 1, 5]
        st = run_pattern(t, wl, pattern, method_name="st")
        assert st.n_processes == 5
        assert st.total_reconfigs >= 1
        assert set(st.final_parallelism_at) <= set(pattern)
        assert st.final_parallelism_at == {
            m: sum(v.values()) for m, v in st.parallelism_at.items()
        }
        assert st.total_reconfigs == sum(st.reconfigs)
        assert st.tuning_minutes == [n * tuner_mod.STABILISATION_MINUTES for n in st.reconfigs]

    def test_backpressure_rare_across_pattern(self, setup):
        """The headline property: (near-)zero backpressure occurrences."""
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTune(bundle, 1).tuner(wl, "xgboost")
        pattern = [3, 7, 4, 2, 1, 10, 8, 5, 6, 9]
        st = run_pattern(t, wl, pattern, method_name="st")
        assert st.total_backpressure <= 1


def _bundle_digest(bundle) -> str:
    """sha256 over everything a bundle hands the tuners: encoder
    parameters, feature-encoder fields, centers and every record."""
    h = hashlib.sha256()
    for enc in bundle.encoders:
        for name, v in sorted(enc.params.items()):
            h.update(name.encode() + np.ascontiguousarray(v).tobytes())
    h.update(repr(vars(bundle.feature_encoder)).encode())
    for dag in bundle.centers:
        h.update(dag.to_json().encode())
    for recs in bundle.cluster_records:
        for rec in recs:
            h.update(json.dumps(rec.to_row()).encode())  # its DAG's JSON included
    return h.hexdigest()


def test_tuning_leaves_the_bundle_alone():
    """History records share their DAG objects with the workloads the
    tuners drive, so a tuner that changed a DAG, an encoder or a record
    would corrupt the history every later tuner learns from."""
    wl = pqp_catalogue()["pqp_linear_0"]
    hist = generate_history_local([wl], n_per_workload=20, seed=11)
    bundle = pretrain(hist, k=1, epochs=2, seed=0)
    model = ZeroTuneCostModel(bundle.feature_encoder, seed=0).fit(hist, epochs=2, seed=0)
    before = _bundle_digest(bundle)
    pattern = periodic_pattern(n_permutations=1, seed=7)
    run_pattern(StreamTune(bundle, 1).tuner(wl, "xgboost"), wl, pattern, method_name="StreamTune")
    run_pattern(ZeroTuneTuner(wl, model, seed=1), wl, pattern, method_name="ZeroTune")
    assert _bundle_digest(bundle) == before
