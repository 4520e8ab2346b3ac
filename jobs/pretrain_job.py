"""Offline pre-training as a Spark job: generate the execution history
with a distributed sweep (an RDD of config indices), cluster the
dataflow DAGs by GED on the driver, and pre-train one GNN encoder per
cluster, the clusters in one Spark job (an RDD of cluster indices) on the
workers the history sweep has just warmed. The session also reaches the
k-means assignment step, but that step starts no Spark job: the final
k-means repeats a run the elbow already made, so every distance it needs
is in the shared GED memo. Prints cluster composition and training
accuracy, then the seconds spent on history and on pre-training.

Usage: spark-submit jobs/pretrain_job.py [--history 250]
"""
import sys
import time

sys.path.insert(0, "jobs")
from _common import eval_args, get_spark  # noqa: E402

from repro.core.pretrain import pretrain  # noqa: E402
from repro.history import generate_history  # noqa: E402
from repro.sim.workloads import full_catalogue  # noqa: E402

if __name__ == "__main__":
    args = eval_args(__doc__)
    spark = get_spark("repro-pretrain")
    workloads = list(full_catalogue("flink").values())
    t0 = time.perf_counter()
    history = generate_history(spark, workloads, n_per_workload=max(10, args.history // 10), seed=11)
    t1 = time.perf_counter()
    print(f"history: {len(history)} deployments over {len(workloads)} jobs")
    bundle = pretrain(history, k=None, epochs=30, seed=0, spark=spark)
    t2 = time.perf_counter()
    for c, recs in enumerate(bundle.cluster_records):
        jobs = sorted({r.job for r in recs})
        print(f"cluster {c}: {len(recs)} records, acc={bundle.train_acc[c]:.3f}, jobs={jobs[:6]}{'...' if len(jobs) > 6 else ''}")
    print(f"stage timings (s): history {t1 - t0:.2f}, pretrain {t2 - t1:.2f}")
