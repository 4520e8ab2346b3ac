"""Shared fixtures for the table-reproduction benchmarks.

The full Flink sweep (pre-train + 4 methods × all jobs × the periodic
pattern) is computed once per session and shared by the Table III /
Fig. 6 / Fig. 7 benchmarks; each benchmark times its own end-to-end
regeneration path where that is affordable and prints the reproduced
table rows into the benchmark log.

Scale knobs (environment):
  REPRO_PERMS          permutations of the 20-rate cycle (default 2;
                       6 = the paper's 120 changes per query)
  REPRO_PQP_PER_GROUP  PQP queries per template group (default 2)
  REPRO_HISTORY        deployments per workload in the history (default 250)
"""
import os

import pytest

PERMS = int(os.environ.get("REPRO_PERMS", "2"))
PQP_PER_GROUP = int(os.environ.get("REPRO_PQP_PER_GROUP", "2"))
HISTORY = int(os.environ.get("REPRO_HISTORY", "250"))


@pytest.fixture(scope="session")
def eval_run():
    from repro.tables import EvalConfig, run_evaluation

    cfg = EvalConfig(
        pattern_perms=PERMS,
        pqp_per_group=PQP_PER_GROUP,
        history_per_workload=HISTORY,
        model_kind="xgboost",
    )
    return run_evaluation(cfg)
