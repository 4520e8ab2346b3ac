"""Tests for the ZeroTune baseline (job-level cost model + sampling)."""
import numpy as np
import pytest

from repro.baselines.zerotune import ZeroTuneCostModel, ZeroTuneTuner
from repro.core.pretrain import pretrain
from repro.history import generate_history_local
from repro.sim.engine import simulate
from repro.sim.workloads import pqp_catalogue


@pytest.fixture(scope="module")
def setup():
    cat = pqp_catalogue()
    wls = [cat["pqp_linear_0"], cat["pqp_2way_0"]]
    hist = generate_history_local(wls, n_per_workload=120, seed=9)
    bundle = pretrain(hist, k=1, epochs=20, seed=0)
    model = ZeroTuneCostModel(bundle.feature_encoder, seed=0).fit(hist, epochs=40, seed=0)
    return cat, hist, model


class TestCostModel:
    def test_predicts_higher_cost_for_underprovisioning(self, setup):
        cat, hist, model = setup
        wl = cat["pqp_linear_0"]
        rates = wl.rates(8)
        low = {o: 1 for o in wl.dag.tunable_operators()}
        high = {o: 40 for o in wl.dag.tunable_operators()}
        cost_low, cost_high = model.costs(wl.dag, rates, [low, high])
        assert cost_low > cost_high

    def test_deterministic(self, setup):
        cat, hist, model = setup
        wl = cat["pqp_linear_0"]
        par = {o: 10 for o in wl.dag.tunable_operators()}
        np.testing.assert_array_equal(
            model.costs(wl.dag, wl.rates(5), [par]), model.costs(wl.dag, wl.rates(5), [par])
        )


class TestTuner:
    def test_single_reconfiguration(self, setup):
        cat, hist, model = setup
        wl = cat["pqp_linear_0"]
        t = ZeroTuneTuner(wl, model, seed=1)
        out = t.tune({o: 1 for o in wl.dag.tunable_operators()}, wl.rates(8))
        assert out.n_reconfigs <= 1

    def test_overprovisions_relative_to_need(self, setup):
        """ZeroTune optimises performance only → systematically high
        parallelism (the paper's Fig. 6 observation)."""
        cat, hist, model = setup
        wl = cat["pqp_linear_0"]
        t = ZeroTuneTuner(wl, model, seed=1)
        out = t.tune({o: 1 for o in wl.dag.tunable_operators()}, wl.rates(8))
        res = simulate(wl.dag, out.final_parallelism, wl.rates(8), seed=55)
        assert not res.job_backpressure
        # well above any minimal configuration
        assert sum(out.final_parallelism.values()) > 2 * len(wl.dag.tunable_operators())
