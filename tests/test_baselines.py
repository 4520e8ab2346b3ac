"""Tests for the DS2 / ContTune baseline tuners."""
import numpy as np
import pytest

from repro.baselines.conttune import ContTuneTuner, GaussianProcess1D
from repro.baselines.ds2 import DS2Tuner, estimate_true_rate, reactive_tune
from repro.sim.engine import processing_ability, simulate
from repro.sim.workloads import nexmark_catalogue


@pytest.fixture(scope="module")
def q5():
    return nexmark_catalogue("flink")["nexmark_q5"]


def _true_need(wl, mult):
    rates = wl.rates(mult)
    res = simulate(wl.dag, {o: wl.p_max for o in wl.dag.tunable_operators()}, rates, seed=0)
    need = {}
    for oid in wl.dag.tunable_operators():
        inr = res.metrics[oid].input_rate
        p = 1
        while processing_ability(wl.dag.op(oid), p, wl.system) < inr and p < wl.p_max:
            p += 1
        need[oid] = p
    return need


class TestDS2:
    def test_converges_near_true_need(self, q5):
        start = {o: 1 for o in q5.dag.tunable_operators()}
        out = DS2Tuner(q5, seed=1).tune(start, q5.rates(10))
        need = _true_need(q5, 10)
        for o, p in out.final_parallelism.items():
            assert abs(p - need[o]) <= max(2, int(0.35 * need[o])), (o, p, need[o])

    def test_scales_down(self, q5):
        t = DS2Tuner(q5, seed=1)
        hi = t.tune({o: 1 for o in q5.dag.tunable_operators()}, q5.rates(10))
        lo = t.tune(hi.final_parallelism, q5.rates(2))
        assert sum(lo.final_parallelism.values()) < sum(hi.final_parallelism.values())

    def test_needs_multiple_reconfigs_from_cold(self, q5):
        out = DS2Tuner(q5, seed=1).tune(
            {o: 1 for o in q5.dag.tunable_operators()}, q5.rates(10)
        )
        assert out.n_reconfigs >= 2  # sub-linear PA breaks one-shot linearity

    def test_fixpoint_no_change(self, q5):
        t = DS2Tuner(q5, seed=1)
        a = t.tune({o: 1 for o in q5.dag.tunable_operators()}, q5.rates(5))
        b = t.tune(a.final_parallelism, q5.rates(5))
        assert b.n_reconfigs <= 1  # already converged, minor noise only

    def test_target_rates_use_full_source_rates(self, q5):
        rates = q5.rates(10)
        seen, throttles = [], []

        def recommend(par, obs, tgt):
            seen.append(tgt)
            return par  # a fixpoint: the process stops after one call

        for p in (1, q5.p_max):
            par = {o: p for o in q5.dag.tunable_operators()}
            obs = simulate(q5.dag, par, rates, seed=0)
            throttles.append(obs.throttle)
            reactive_tune(DS2Tuner(q5, seed=0), par, rates, obs, recommend)
        assert throttles[0] < 1.0 == throttles[1]
        # throttled or not, the targets are the same, and the first
        # operator's is the full source rate
        assert seen[0] == seen[1]
        assert seen[0]["wagg"] == rates["bids"]

    def test_estimate_inherits_bias(self, q5):
        """rate/observed_busy is a *biased* PA estimate — the paper's
        useful-time critique."""
        rates = q5.rates(4)
        need = _true_need(q5, 4)
        par = {o: need[o] + 3 for o in q5.dag.tunable_operators()}
        ests, trues = [], []
        for seed in range(30):
            res = simulate(q5.dag, par, rates, seed=seed)
            m = res.metrics["wagg"]
            ests.append(estimate_true_rate(m))
            trues.append(m.pa)
        # systematic deviation, not mean-zero noise
        assert abs(np.mean(ests) / np.mean(trues) - 1.0) > 0.01


class TestGaussianProcess:
    def test_interpolates(self):
        gp = GaussianProcess1D(length_scale=2.0)
        x = np.array([1.0, 3.0, 5.0, 7.0])
        y = 10 * x
        gp.fit(x, y)
        mu, sd = gp.predict(np.array([4.0]))
        assert mu[0] == pytest.approx(40.0, rel=0.15)

    def test_uncertainty_grows_off_data(self):
        gp = GaussianProcess1D(length_scale=1.0)
        gp.fit(np.array([1.0, 2.0, 3.0]), np.array([5.0, 6.0, 7.0]))
        _, sd_near = gp.predict(np.array([2.0]))
        _, sd_far = gp.predict(np.array([15.0]))
        assert sd_far[0] > sd_near[0]

    def test_exact_at_training_points_low_noise(self):
        gp = GaussianProcess1D(length_scale=1.0, noise=1e-3)
        x = np.array([1.0, 4.0, 8.0])
        y = np.array([2.0, 9.0, 3.0])
        gp.fit(x, y)
        mu, _ = gp.predict(x)
        np.testing.assert_allclose(mu, y, rtol=0.05)

    def test_matches_closed_form_posterior_on_repeated_x(self):
        """ContTune's history repeats a degree many times; the solved
        posterior equals the textbook one written with K⁻¹."""
        rng = np.random.default_rng(0)
        x = rng.integers(1, 6, size=48).astype(float)  # 5 degrees, ~10 times each
        y = 40.0 * x**0.8 + rng.normal(0, 3.0, size=len(x))
        xs = np.arange(1.0, 13.0)
        gp = GaussianProcess1D(length_scale=4.0).fit(x, y)
        mu, sd = gp.predict(xs)

        def rbf(a, b):
            return np.exp(-0.5 * ((a[:, None] - b[None, :]) / 4.0) ** 2)

        k_inv = np.linalg.inv(rbf(x, x) + 0.05**2 * np.eye(len(x)))
        ks = rbf(xs, x)
        yn = (y - y.mean()) / y.std()
        want_mu = ks @ k_inv @ yn * y.std() + y.mean()
        want_var = 1.0 - np.diag(ks @ k_inv @ ks.T)
        want_sd = np.sqrt(np.maximum(want_var, 1e-12)) * y.std()
        np.testing.assert_allclose(mu, want_mu, rtol=1e-9)
        np.testing.assert_allclose(sd, want_sd, rtol=1e-6)
        assert sd[:5].max() < sd[-1]  # tight at the repeated degrees, wide beyond


class TestContTune:
    def test_no_backpressure_after_convergence(self, q5):
        t = ContTuneTuner(q5, seed=1)
        par = {o: 1 for o in q5.dag.tunable_operators()}
        out = t.tune(par, q5.rates(10))
        res = simulate(q5.dag, out.final_parallelism, q5.rates(10), seed=99)
        assert not res.job_backpressure

    def test_conservative_vs_need(self, q5):
        """α=3 conservatism keeps ContTune at or above the true need."""
        t = ContTuneTuner(q5, seed=1)
        par = {o: 1 for o in q5.dag.tunable_operators()}
        for mult in (4, 10, 4, 10):  # warm the GP
            par = t.tune(par, q5.rates(mult)).final_parallelism
        need = _true_need(q5, 10)
        out = t.tune(par, q5.rates(10))
        assert sum(out.final_parallelism.values()) >= sum(need.values()) - 2

    def test_history_accumulates(self, q5):
        t = ContTuneTuner(q5, seed=1)
        par = {o: 1 for o in q5.dag.tunable_operators()}
        t.tune(par, q5.rates(3))
        n1 = sum(len(v) for v in t.obs.values())
        t.tune(par, q5.rates(7))
        n2 = sum(len(v) for v in t.obs.values())
        assert n2 > n1

    def test_fewer_reconfigs_when_warm(self, q5):
        t = ContTuneTuner(q5, seed=1)
        par = {o: 1 for o in q5.dag.tunable_operators()}
        first = t.tune(par, q5.rates(8))
        par = first.final_parallelism
        t.tune(par, q5.rates(2))
        again = t.tune(t.tune(par, q5.rates(2)).final_parallelism, q5.rates(8))
        assert again.n_reconfigs <= first.n_reconfigs
