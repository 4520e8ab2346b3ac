"""Shared helpers for spark-submit entrypoints."""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from repro.core.monotonic import MODELS


def get_spark(app: str) -> SparkSession:
    """A classic (not Spark Connect) session: the fan-outs are RDDs."""
    return SparkSession.builder.appName(app).getOrCreate()


def eval_args(description: str) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument(
        "--perms",
        type=int,
        default=6,
        help="permutations of the 20-rate cycle (6 = the paper's 120 changes)",
    )
    ap.add_argument(
        "--pqp-per-group", type=int, default=2,
        help="PQP queries evaluated per template group (counts are scaled)",
    )
    ap.add_argument("--history", type=int, default=250, help="deployments per workload in the pre-training history")
    ap.add_argument("--model", default="xgboost", choices=list(MODELS), help="StreamTune fine-tune layer")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--local", action="store_true", help="skip Spark (pure-local history generation)")
    return ap.parse_args()


def make_run(args, system: str = "flink"):
    from repro.tables import EvalConfig, run_evaluation

    spark = None if args.local else get_spark("repro-eval")
    cfg = EvalConfig(
        system=system,
        pattern_perms=args.perms,
        pqp_per_group=args.pqp_per_group,
        history_per_workload=args.history,
        model_kind=args.model,
        seed=args.seed,
    )
    run = run_evaluation(cfg, spark=spark)
    # One line per (method, job) pattern run, then the seconds per stage.
    for method, per_col in run.stats.items():
        for stats in per_col.values():
            for st in stats:
                print(f"[{method}] {st.job}: bp={st.total_backpressure} "
                      f"reconf={st.avg_reconfigs:.2f} p@10={st.final_parallelism_at.get(10)}")
    print("stage timings (s): " + ", ".join(f"{stage} {secs:.2f}" for stage, secs in run.timings.items()))
    return run
