"""Tests for the StreamTune online tuner (Algorithm 2)."""
import numpy as np
import pytest

from repro.core.pretrain import pretrain_global
from repro.core.tuner import FEEDBACK_WEIGHT, StreamTuneTuner, run_pattern
from repro.history import _deploy_and_label, generate_history_local
from repro.sim.engine import processing_ability, simulate
from repro.sim.workloads import nexmark_catalogue


@pytest.fixture(scope="module")
def setup():
    cat = nexmark_catalogue("flink")
    wls = [cat["nexmark_q3"], cat["nexmark_q5"], cat["nexmark_q8"]]
    hist = generate_history_local(wls, n_per_workload=150, seed=11)
    bundle = pretrain_global(hist, epochs=35, seed=0)
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
        t = StreamTuneTuner(bundle, cat["nexmark_q5"], seed=1)
        assert t.cluster == 0
        assert len(t._y) > 50

    def test_model_fit_cached(self, setup):
        cat, bundle = setup
        t = StreamTuneTuner(bundle, cat["nexmark_q5"], model_kind="xgboost", seed=1)
        m1 = t._fit_model()
        m2 = t._fit_model()
        assert m1 is m2  # no new feedback → cached


class TestSingleProcess:
    def test_resolves_backpressure(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTuneTuner(bundle, wl, model_kind="xgboost", seed=1)
        out = t.tune({o: 1 for o in wl.dag.tunable_operators()}, wl.rates(10))
        res = simulate(wl.dag, out.final_parallelism, wl.rates(10), seed=77)
        assert not res.job_backpressure
        assert out.converged

    def test_parallelism_in_sane_range(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTuneTuner(bundle, wl, model_kind="xgboost", seed=1)
        out = t.tune({o: 1 for o in wl.dag.tunable_operators()}, wl.rates(10))
        need = _true_need_total(wl, 10)
        assert need <= out.total_parallelism <= int(2.0 * need)

    def test_memoised_rate_redeploys_fast(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTuneTuner(bundle, wl, model_kind="xgboost", seed=1)
        start = {o: 1 for o in wl.dag.tunable_operators()}
        first = t.tune(start, wl.rates(8))
        t.tune(first.final_parallelism, wl.rates(3))
        again = t.tune(t._memo[t._rate_key(wl.rates(3))], wl.rates(8))
        assert again.n_reconfigs <= 2
        assert again.backpressure_events == 0

    def test_scale_down_on_lower_rate(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTuneTuner(bundle, wl, model_kind="xgboost", seed=1)
        hi = t.tune({o: 1 for o in wl.dag.tunable_operators()}, wl.rates(10))
        lo = t.tune(hi.final_parallelism, wl.rates(2))
        assert lo.total_parallelism < hi.total_parallelism


class TestCrossRateTransfer:
    def test_floor_transfer_monotone(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTuneTuner(bundle, wl, seed=1)
        k_lo = t._rate_key(wl.rates(2))
        k_hi = t._rate_key(wl.rates(9))
        t._unsafe_floor[k_lo] = {"wagg": 5}
        assert t._transferred_floor(k_hi)["wagg"] == 5  # unsafe at 2 → unsafe at 9
        assert "wagg" not in t._transferred_floor(t._rate_key(wl.rates(1)))

    def test_cap_transfer_monotone(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTuneTuner(bundle, wl, seed=1)
        k_hi = t._rate_key(wl.rates(9))
        t._memo[k_hi] = {"wagg": 20, "agg": 4, "join": 6}
        caps = t._transferred_cap(t._rate_key(wl.rates(3)))
        assert caps["wagg"] == 20  # safe at 9 → cap at 3
        assert t._transferred_cap(t._rate_key(wl.rates(10))) == {}


class TestFeedback:
    def test_feedback_grows_dataset(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTuneTuner(bundle, wl, model_kind="xgboost", seed=1)
        n0 = len(t._y)
        t.tune({o: 1 for o in wl.dag.tunable_operators()}, wl.rates(7))
        assert len(t._y) > n0
        assert all(w >= 1.0 for w in t._w)
        assert max(t._w) == FEEDBACK_WEIGHT

    def test_timely_saturation_labelled_as_in_history(self):
        """A Timely operator at ~1.05× its processing ability is CPU
        saturated but above the 85 % rule: the online feedback labels it
        exactly as the offline history does."""
        wl = nexmark_catalogue("timely")["nexmark_q5"]
        hist = generate_history_local([wl], n_per_workload=10, seed=11)
        t = StreamTuneTuner(pretrain_global(hist, epochs=2, seed=0), wl, seed=1)
        par = {o: 4 for o in wl.dag.tunable_operators()}
        probe = simulate(wl.dag, par, wl.rates(1), system="timely", seed=0).metrics["wagg"]
        rates = wl.rates(1.05 * probe.pa / probe.input_rate)
        res = simulate(wl.dag, par, rates, system="timely", seed=3)
        assert res.metrics["wagg"].observed_cpu > 0.98
        assert not res.job_backpressure
        rec = _deploy_and_label(wl.name, wl.dag.to_json(), "timely", rates, par, 3)
        emb = t._embeddings(rates)
        n0 = len(t._y)
        t._collect_feedback(rates, res, emb)
        ops = [o for o in rec.labels if o in emb]
        assert dict(zip(ops, t._y[n0:])) == {o: rec.labels[o] for o in ops}


class TestPattern:
    def test_pattern_run_statistics(self, setup):
        cat, bundle = setup
        wl = cat["nexmark_q3"]
        t = StreamTuneTuner(bundle, wl, model_kind="xgboost", seed=1)
        pattern = [3, 7, 10, 1, 5]
        st = run_pattern(t, wl, pattern, method_name="st")
        assert st.n_processes == 5
        assert st.total_reconfigs >= 1
        assert set(st.final_parallelism_at) <= set(pattern)
        assert st.final_parallelism_at == {
            m: sum(v.values()) for m, v in st.parallelism_at.items()
        }
        assert len(st.tuning_minutes) == 5

    def test_backpressure_rare_across_pattern(self, setup):
        """The headline property: (near-)zero backpressure occurrences."""
        cat, bundle = setup
        wl = cat["nexmark_q5"]
        t = StreamTuneTuner(bundle, wl, model_kind="xgboost", seed=1)
        pattern = [3, 7, 4, 2, 1, 10, 8, 5, 6, 9]
        st = run_pattern(t, wl, pattern, method_name="st")
        assert st.total_backpressure <= 1
