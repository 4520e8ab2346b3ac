"""Reproduce Fig. 8 (as a table) — Timely Dataflow generality evaluation:
total parallelism at 10·W_u and per-epoch latency percentiles for
Nexmark Q3/Q5/Q8.

Usage: spark-submit jobs/fig8_timely.py [--perms 6] [--local]
"""
import sys

sys.path.insert(0, "jobs")
from _common import eval_args, make_run  # noqa: E402

from repro.tables import fig8_timely  # noqa: E402

if __name__ == "__main__":
    args = eval_args(__doc__)
    df = fig8_timely(make_run(args, system="timely"))
    print("\nFig. 8 — Timely Dataflow evaluation:")
    print(df.to_string(index=False))
