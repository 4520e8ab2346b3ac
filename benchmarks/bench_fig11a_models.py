"""Benchmark: reproduce Fig. 11a (as a table) — fine-tuning model
ablation on Nexmark Q3/Q5/Q8: monotone SVM and XGBoost vs the
unconstrained NN.

Paper's shape: SVM and XGBoost comparable; the NN — lacking the
monotonic constraint — incurs more backpressure despite sometimes
recommending lower parallelism."""
from repro.tables import fig11a_models


def test_bench_fig11a(benchmark, eval_run):
    df = benchmark.pedantic(
        fig11a_models, args=(eval_run,), rounds=1, iterations=1,
    )
    print("\nFig. 11a — fine-tuning model ablation:")
    print(df.to_string(index=False))
    # The monotone models must stay safe; XGBoost is the better-calibrated
    # of the two (our from-scratch SVM over-provisions — EXPERIMENTS.md).
    # The paper's NN backpressure blow-up is masked by the tuning loop's
    # guard rails here and is demonstrated at the model level instead
    # (tests/test_monotonic.py::test_linear_scan_for_nonmonotone).
    tot = df.groupby("Model")["total parallelism @10Wu"].sum()
    bp = df.groupby("Model")["backpressure occurrences"].sum()
    assert bp["XGBOOST"] <= 6 and bp["SVM"] <= 6
    assert tot["XGBOOST"] <= tot["SVM"]
