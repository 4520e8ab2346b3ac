"""Offline pre-training as a Spark job: generate the execution history
with a distributed sweep (an RDD of config indices), cluster the
dataflow DAGs by GED on the driver, and pre-train one GNN encoder per
cluster. The session also reaches the k-means assignment step, but that
step starts no Spark job: the final k-means repeats a run the elbow
already made, so every distance it needs is in the shared GED memo. Prints cluster composition and training
accuracy.

Usage: spark-submit jobs/pretrain_job.py [--history 250]
"""
import sys

sys.path.insert(0, "jobs")
from _common import eval_args, get_spark  # noqa: E402

from repro.core.pretrain import pretrain  # noqa: E402
from repro.history import generate_history  # noqa: E402
from repro.sim.workloads import full_catalogue  # noqa: E402

if __name__ == "__main__":
    args = eval_args(__doc__)
    spark = get_spark("repro-pretrain")
    workloads = list(full_catalogue("flink").values())
    history = generate_history(spark, workloads, n_per_workload=max(10, args.history // 10), seed=11)
    print(f"history: {len(history)} deployments over {len(workloads)} jobs")
    bundle = pretrain(history, k=None, epochs=30, seed=0, spark=spark)
    for c, recs in enumerate(bundle.cluster_records):
        jobs = sorted({r.job for r in recs})
        print(f"cluster {c}: {len(recs)} records, acc={bundle.train_acc[c]:.3f}, jobs={jobs[:6]}{'...' if len(jobs) > 6 else ''}")
