"""Reproduce the Flink tables from one evaluation sweep: Table III
(backpressure occurrences per method during tuning over the periodic
source-rate pattern), Fig. 6 (final total parallelism at 10·W_u) and
Fig. 7a/7b (reconfigurations per tuning process, StreamTune tuning time),
each as a table.

Usage: spark-submit jobs/flink_tables.py [--perms 6] [--local]
"""
import sys

sys.path.insert(0, "jobs")
from _common import eval_args, make_run  # noqa: E402

from repro.tables import (  # noqa: E402
    fig6_parallelism,
    fig7_reconfigurations,
    fig7b_tuning_minutes,
    table3_backpressure,
)

if __name__ == "__main__":
    args = eval_args(__doc__)
    run = make_run(args)
    print("\nTable III — backpressure occurrences "
          f"({20 * args.perms} rate changes/query; PQP scaled to full groups):")
    print(table3_backpressure(run).to_string(index=False))
    print("\nFig. 6 — total parallelism @10·W_u:")
    print(fig6_parallelism(run).to_string(index=False))
    print("\nFig. 7a — average reconfigurations per tuning process:")
    print(fig7_reconfigurations(run).to_string(index=False))
    print("\nFig. 7b — StreamTune tuning time (virtual minutes):")
    print(fig7b_tuning_minutes(run).to_string(index=False))
