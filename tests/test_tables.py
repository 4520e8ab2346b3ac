"""Tests for the evaluation-table extractors (pure logic, no tuning),
and for the evaluation harness on both engines at tiny knobs (the
full-scale sweeps are exercised by the benchmarks)."""
import functools

import numpy as np
import pandas as pd
import pytest

from repro import tables
from repro.core.monotonic import MonotoneGBDT
from repro.core.pretrain import PretrainedBundle, pretrain
from repro.core.tuner import FEEDBACK_WEIGHT, REFIT_MIN_NEW, PatternRunStats, StreamTune, run_pattern
from repro.history import generate_history_local
from repro.sim.workloads import nexmark_catalogue
from repro.tables import (
    EvalConfig,
    EvalRun,
    fig6_parallelism,
    fig7_reconfigurations,
    fig7b_tuning_minutes,
    fig8_timely,
    fig11a_models,
    fig11b_simcenter,
    run_evaluation,
    run_patterns,
    table2_source_rates,
    table3_backpressure,
)


def _stats(job, method, bp, reconf_total, n, p10):
    """``n`` processes whose reconfigurations sum to ``reconf_total``."""
    s = PatternRunStats(job=job, method=method)
    s.reconfigs = [reconf_total // n + (i < reconf_total % n) for i in range(n)]
    s.total_backpressure = bp
    s.parallelism_at = {10: {"op": p10}}
    assert (s.n_processes, s.total_reconfigs) == (n, reconf_total)
    return s


@pytest.fixture(scope="module")
def fake_run():
    cat = nexmark_catalogue("flink")
    hist = generate_history_local([cat["nexmark_q1"]], n_per_workload=10, seed=1)
    bundle = pretrain(hist, k=1, epochs=2, seed=0)
    run = EvalRun(config=EvalConfig(), jobs={}, streamtune=StreamTune(bundle, 3))
    run.stats = {
        "DS2": {"Q1": [_stats("nexmark_q1", "DS2", 3, 40, 20, 25)],
                "Linear": [_stats("pqp_linear_0", "DS2", 1, 30, 20, 30),
                           _stats("pqp_linear_1", "DS2", 2, 50, 20, 34)]},
        "ContTune": {"Q1": [_stats("nexmark_q1", "ContTune", 0, 22, 20, 23)]},
        "ZeroTune": {"Q1": []},
        "StreamTune": {"Q1": [_stats("nexmark_q1", "StreamTune", 0, 28, 20, 21)]},
    }
    return run


class TestTable2:
    def test_shape_and_content(self):
        df = table2_source_rates()
        assert set(df.columns) == {"job", "system", "source", "W_u (records/s)"}
        q1 = df[(df.job == "nexmark_q1") & (df.system == "flink")]
        assert q1["W_u (records/s)"].iloc[0] == 700_000
        assert len(df) == 17  # 13 (job, system) combos, multi-source counted


class TestTable3:
    def test_counts_and_scaling(self, fake_run):
        df = table3_backpressure(fake_run)
        ds2 = df[df.Method == "DS2"].iloc[0]
        assert ds2["Q1"] == 3
        # Linear: (1+2) scaled from 2 evaluated queries to the 8-query group
        assert ds2["Linear"] == 12
        st = df[df.Method == "StreamTune"].iloc[0]
        assert st["Q1"] == 0

    def test_missing_method_slash(self, fake_run):
        df = table3_backpressure(fake_run)
        zt = df[df.Method == "ZeroTune"].iloc[0]
        assert zt["Q1"] == "/"


class TestFig6And7:
    def test_parallelism_table(self, fake_run):
        df = fig6_parallelism(fake_run)
        ds2 = df[df.Method == "DS2"].iloc[0]
        assert ds2["Q1"] == 25
        assert ds2["Linear"] == 32.0  # mean of 30, 34

    def test_reconfig_table(self, fake_run):
        df = fig7_reconfigurations(fake_run)
        assert "ZeroTune" not in set(df.Method)
        ds2 = df[df.Method == "DS2"].iloc[0]
        assert ds2["Q1"] == 2.0  # 40 / 20


class TestFig11b:
    def test_simcenter_timing_table(self):
        df = fig11b_simcenter(sizes=(20, 40), tau=5.0)
        assert list(df["#DAGs"]) == [20, 40]
        assert (df["AStar+-LSa (s)"] > 0).all()
        assert (df["direct GED (s)"] >= df["AStar+-LSa (s)"] * 0.5).all()
        assert (df["AStar+-LSa expansions"] < df["direct expansions"]).all()


_METHODS = ["DS2", "ContTune", "ZeroTune", "StreamTune"]
#: What the Flink and Timely sweeps printed at ``TestHarness``'s knobs
#: before they became one harness.
_RECORDED = {
    "flink": {
        table3_backpressure: pd.DataFrame(
            {"Method": _METHODS, "Q5": [0, 0, "/", 2], "Linear": [0, 0, 104, 24]}
        ),
        fig6_parallelism: pd.DataFrame(
            {"Method": _METHODS, "Q5": [23.0, 25.0, "/", 25.0], "Linear": [28.0, 29.0, 106.0, 40.0]}
        ),
        fig7_reconfigurations: pd.DataFrame(
            {"Method": ["DS2", "ContTune", "StreamTune"], "Q5": [2.1, 1.4, 1.35], "Linear": [2.0, 1.3, 1.85]}
        ),
        fig7b_tuning_minutes: pd.DataFrame(
            {"Query": ["Q5", "Linear"], "min (min)": [0.0, 10.0],
             "mean (min)": [13.5, 18.5], "max (min)": [40.0, 40.0]}
        ),
    },
    "timely": {
        fig8_timely: pd.DataFrame(
            {
                "Query": ["Q3"] * 3 + ["Q5"] * 3 + ["Q8"] * 3,
                "Method": ["DS2", "ContTune", "StreamTune"] * 3,
                "total parallelism @10Wu": [15, 17, 9, 15, 21, 12, 15, 23, 9],
                "bottleneck events": [0] * 9,
                "latency p50 (s)": [0.181, 0.166, 0.217, 0.214, 0.153, 0.216, 0.171, 0.148, 0.242],
                "latency p99 (s)": [0.212, 0.201, 0.253, 0.249, 0.185, 0.252, 0.215, 0.183, 0.290],
            }
        ),
    },
}


#: Columns of each engine's tiny sweep.
_TINY_COLUMNS = {"flink": ("Q5", "Linear"), "timely": ("Q3", "Q5", "Q8")}


@functools.cache
def _tiny_run(system: str) -> EvalRun:
    """A sweep at tiny knobs, on ``_TINY_COLUMNS[system]``: narrowed the
    way perfbench narrows its Flink sweep, by replacing
    ``tables._eval_jobs`` with a one-argument filter."""
    full = tables._eval_jobs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tables, "_eval_jobs",
                   lambda cfg: {c: n for c, n in full(cfg).items() if c in _TINY_COLUMNS[system]})
        return run_evaluation(EvalConfig(system=system, pattern_perms=1, pqp_per_group=1,
                                         history_per_workload=20, pretrain_epochs=2, seed=3))


#: ``_eval_jobs`` as recorded before the catalogue carried its columns.
_NEXMARK = {"Q1": ["nexmark_q1"], "Q2": ["nexmark_q2"], "Q3": ["nexmark_q3"],
            "Q5": ["nexmark_q5"], "Q8": ["nexmark_q8"]}
_PQP = {"Linear": ["pqp_linear_0", "pqp_linear_1"], "2-way-join": ["pqp_2way_0", "pqp_2way_1"],
        "3-way-join": ["pqp_3way_0", "pqp_3way_1"]}
_TIMELY = {q: _NEXMARK[q] for q in ("Q3", "Q5", "Q8")}


class TestEvalJobs:
    """The jobs each reported column evaluates, columns and jobs in order."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_flink(self, k):
        got = tables._eval_jobs(EvalConfig(system="flink", pqp_per_group=k))
        want = _NEXMARK | {col: names[:k] for col, names in _PQP.items()}
        assert [(col, [wl.name for wl in wls]) for col, wls in got.items()] == list(want.items())

    @pytest.mark.parametrize("k", [1, 2])
    def test_timely(self, k):
        got = tables._eval_jobs(EvalConfig(system="timely", pqp_per_group=k))
        assert [(col, [wl.name for wl in wls]) for col, wls in got.items()] == list(_TIMELY.items())


class TestEvalConfig:
    @pytest.mark.parametrize(
        "bad",
        [{"pattern_perms": 0}, {"pattern_perms": -1}, {"pqp_per_group": 0}, {"system": "storm"},
         {"model_kind": "xgb"}, {"history_per_workload": 0}, {"pretrain_epochs": -1}],
        ids=["perms0", "perms-1", "pqp0", "system", "model", "history0", "epochs-1"],
    )
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            EvalConfig(**bad)

    def test_zero_epochs_allowed(self):
        # The untrained-encoder ablation runs with no pre-training epochs.
        assert EvalConfig(pretrain_epochs=0).pretrain_epochs == 0


class TestHarness:
    def test_zerotune_trains_on_the_jobs_it_tunes(self, monkeypatch):
        """One rule picks ZeroTune's jobs: the history its cost model is
        fitted on covers exactly the jobs it then tunes."""
        trained, tuned = set(), set()

        def fit(model, records, **kw):
            trained.update(r.job for r in records)
            return model

        def fake_run_pattern(tuner, wl, pattern, method_name):
            if method_name == "ZeroTune":
                tuned.add(wl.name)

        monkeypatch.setattr(tables.ZeroTuneCostModel, "fit", fit)
        monkeypatch.setattr(tables, "run_pattern", fake_run_pattern)
        run_evaluation(EvalConfig(pattern_perms=1, pqp_per_group=1, history_per_workload=2,
                                  pretrain_epochs=1))
        assert trained == tuned == {"pqp_linear_0", "pqp_2way_0", "pqp_3way_0"}

    def test_streamtune_tuners_share_one_warm_start(self, monkeypatch):
        """Every StreamTune tuner of a sweep starts from its cluster's one
        warm start: one warm-up set and one fit of M_f⁰ for three jobs,
        and the same pattern runs as tuners that each build their own."""
        builds, fits = [], []
        warmup, fit = PretrainedBundle.warmup_dataset, MonotoneGBDT.fit
        monkeypatch.setattr(PretrainedBundle, "warmup_dataset",
                            lambda b, *a, **kw: builds.append(1) or warmup(b, *a, **kw))
        monkeypatch.setattr(MonotoneGBDT, "fit",
                            lambda m, h, p, y, **kw: fits.append(len(y)) or fit(m, h, p, y, **kw))
        cfg = EvalConfig(system="timely", pattern_perms=1, history_per_workload=20,
                         pretrain_epochs=2, seed=3)
        run = run_evaluation(cfg)
        n_warm = len(run.streamtune.warm_start(0)[2])
        assert (len(builds), fits.count(n_warm)) == (1, 1)

        shared = run.stats["StreamTune"]
        alone = {
            col: [
                run_pattern(StreamTune(run.streamtune.bundle, cfg.seed).tuner(wl, cfg.model_kind),
                            wl, run.pattern, method_name="StreamTune")
                for wl in wls
            ]
            for col, wls in run.jobs.items()
        }
        assert [s.job for col in alone.values() for s in col] == ["nexmark_q3", "nexmark_q5", "nexmark_q8"]
        assert alone == shared
        assert (len(builds), fits.count(n_warm)) == (4, 4)

        # Two tuners of one StreamTune read the same warm-up arrays, not
        # copies, and the first refit is fit to them plus ΔT, weighted 1
        # and FEEDBACK_WEIGHT.
        (a,), (b,) = run.jobs["Q3"], run.jobs["Q5"]
        ta, tb = (run.streamtune.tuner(wl, cfg.model_kind) for wl in (a, b))
        assert all(x is y for x, y in zip(ta._warm, tb._warm))
        seen = []
        monkeypatch.setattr(
            MonotoneGBDT, "fit",
            lambda m, h, p, y, **kw: seen.append((h, p, y, kw["sample_weight"], list(ta._fb)))
            or fit(m, h, p, y, **kw),
        )
        par = {o: 1 for o in a.dag.tunable_operators()}
        for mult in run.pattern:
            par = ta.tune(par, a.rates(mult)).final_parallelism
            if seen:
                break
        h, p, y, w, fb = seen[0]
        (wh, wp, wy), (fh, fp, fy) = ta._warm, zip(*fb)
        assert len(fb) >= REFIT_MIN_NEW
        np.testing.assert_array_equal(h, np.vstack([wh, *fh]))
        np.testing.assert_array_equal(p, np.concatenate([wp, fp]))
        np.testing.assert_array_equal(y, np.concatenate([wy, fy]))
        assert list(w) == [1.0] * n_warm + [FEEDBACK_WEIGHT] * len(fb)

    @pytest.mark.parametrize("system", ["flink", "timely"])
    def test_tables_match_recorded(self, system):
        run = _tiny_run(system)
        assert all(list(per_col) == list(_TINY_COLUMNS[system]) for per_col in run.stats.values())
        for extract, want in _RECORDED[system].items():
            got = extract(run)
            pd.testing.assert_frame_equal(got[list(want.columns)], want, check_exact=True)

    @pytest.mark.parametrize("system", ["flink", "timely"])
    def test_patterns_rerun_on_an_assembled_run(self, system):
        """``run_patterns`` reads only the run's own stages: a run assembled
        from a cold sweep's jobs, pattern and ZeroTune model and a fresh
        StreamTune on its bundle gives the cold sweep's stats."""
        cold = _tiny_run(system)
        assert set(cold.timings) == {"history", "pretrain", "zerotune", *_METHODS}
        assert all(t >= 0 for t in cold.timings.values())
        cfg = cold.config
        run = EvalRun(config=cfg, jobs=cold.jobs, streamtune=StreamTune(cold.streamtune.bundle, cfg.seed),
                      zerotune=cold.zerotune, pattern=cold.pattern)
        assert run_patterns(run).stats == cold.stats
        assert set(run.timings) == set(_METHODS)
        if system == "flink":
            assert [s.job for s in run.stats["ZeroTune"]["Linear"]] == ["pqp_linear_0"]


#: ``fig11a_models`` of the tiny Timely sweep, as recorded when it re-ran
#: the sweep's own XGBOOST rows.
_FIG11A_TIMELY = pd.DataFrame(
    {
        "Query": ["Q3"] * 3 + ["Q5"] * 3 + ["Q8"] * 3,
        "Model": ["SVM", "XGBOOST", "NN"] * 3,
        "monotonic": [True, True, False] * 3,
        "backpressure occurrences": [0] * 9,
        "total parallelism @10Wu": [7, 9, 10, 10, 12, 15, 9, 9, 9],
        "avg reconfigs": [0.7, 0.85, 1.2, 1.15, 1.15, 1.4, 0.7, 1.1, 1.05],
    }
)


def test_fig11a_reads_the_sweeps_rows(monkeypatch):
    """Fig. 11a takes the configured kind's rows from the sweep and runs
    only the other two kinds: 6 pattern runs, the recorded frame."""
    run = _tiny_run("timely")
    calls = []
    monkeypatch.setattr(tables, "run_pattern", lambda *a, **kw: calls.append(kw) or run_pattern(*a, **kw))
    got = fig11a_models(run)
    assert len(calls) == 6
    assert got.equals(_FIG11A_TIMELY)
