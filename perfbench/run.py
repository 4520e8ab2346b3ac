"""Benchmark entry point.

    python3 perfbench/run.py --workload flink-sweep --seed 3 --seconds 10 --trace 0

Run from the repository root. Builds nothing: the program is the Python
package under ``src/``. One run sets up (imports, catalogue and, for the
Spark workload, a SparkSession) several times, runs the workload for
``--seconds`` (at least once), checks its outputs and prints, as the last
line of standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with only a few probe wrappers installed; times are scaled to the
reference host speed (see hostspeed.py). ``--trace 1`` reports the
per-layer metrics instead: it runs the workload once with a span around
every public call of every layer, then for ``--seconds`` more under
cProfile, and writes the spans to ``.perfbench/``. The run exits 1 when a
correctness check fails and 2 when the program is not there to measure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
#: Set-ups per run; the median is reported.
SETUPS = 3
#: Local Spark cores: at most four, whatever the host has.
SPARK_CORES = min(4, os.cpu_count() or 1)

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pretrain_accuracy": "fraction",
}


def _fail(msg: str, code: int) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _args() -> argparse.Namespace:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _env_for_program() -> dict[str, str]:
    """Environment the program and its Spark processes run with: the
    package on the path, and every scratch file inside the checkout."""
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    pythonpath = os.environ.get("PYTHONPATH")
    return {
        "PYTHONPATH": str(SRC) + (os.pathsep + pythonpath if pythonpath else ""),
        "TMPDIR": str(tmp),
        "PYSPARK_PYTHON": sys.executable,
        "PYSPARK_DRIVER_PYTHON": sys.executable,
        # the JVM that spark-submit runs first to build the driver's command
        "SPARK_LAUNCHER_OPTS": f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}",
        "PYSPARK_SUBMIT_ARGS": " ".join(
            [
                f"--master local[{SPARK_CORES}]",
                "--driver-memory 1g",
                "--driver-java-options "
                + shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
                "--conf spark.driver.host=127.0.0.1",
                "--conf spark.ui.enabled=false",
                "--conf spark.ui.showConsoleProgress=false",
                "--conf spark.sql.execution.arrow.pyspark.enabled=true",
                "--conf spark.sql.catalogImplementation=in-memory",
                "--conf " + shlex.quote(f"spark.local.dir={tmp}"),
                "--conf " + shlex.quote(f"spark.sql.warehouse.dir={OUT_DIR / 'warehouse'}"),
                "pyspark-shell",
            ]
        ),
    }


# -- set-up ----------------------------------------------------------------------

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import {modules}
from repro.sim.workloads import full_catalogue
full_catalogue({system!r})
print(time.perf_counter() - t0)
"""


def _program_setup(system: str, spark: bool) -> list[float]:
    """Import the program and build its workload catalogue in fresh
    interpreters, one per set-up (an import is paid once per process)."""
    modules = "repro.tables, repro.history, repro.core.pretrain"
    if spark:
        modules += ", pyspark.sql"
    code = _SETUP_CHILD.format(modules=modules, system=system)
    out = []
    for _ in range(SETUPS):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, cwd=ROOT, env=os.environ.copy(),
        )
        if proc.returncode != 0:
            _fail(f"set-up failed:\n{proc.stderr}", 2)
        out.append(float(proc.stdout.split()[-1]))
    return out


def _spark_setup():
    """Start the SparkSession SETUPS times in this process and keep the
    last one. The first start also launches the JVM."""
    from pyspark.sql import SparkSession

    times, spark = [], None
    for i in range(SETUPS):
        t0 = time.perf_counter()
        spark = SparkSession.builder.appName("perfbench").getOrCreate()
        spark.range(1).count()
        times.append(time.perf_counter() - t0)
        spark.sparkContext.setLogLevel("ERROR")
        if i < SETUPS - 1:
            spark.stop()
    return spark, times


def _stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- provenance ------------------------------------------------------------------


def _provenance(workload: str, seed: int, seconds: float) -> dict:
    from workloads import KNOBS

    import numpy
    import pyspark

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "spark_cores": SPARK_CORES,
        "knobs": KNOBS[workload],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
    }


# -- measurement -----------------------------------------------------------------


def _measure(fn, seed: int, seconds: float, spark, tracer):
    """Run the workload at ``seed``, then at derived seeds while another
    run still fits in ``seconds``. Checks apply to every repetition; the
    outputs reported are those of the first."""
    outcomes = []
    t0 = time.perf_counter()
    while True:
        tracer.spans.clear()
        rep_seed = seed if not outcomes else seed * 1000 + len(outcomes)
        outcomes.append(fn(rep_seed, spark, tracer))
        elapsed = time.perf_counter() - t0
        if elapsed + outcomes[-1].wall_s > seconds:
            return outcomes


class _TimeUp(Exception):
    """Raised from a checkpoint to end the profiled pass."""


#: Frequently called public functions where the profiled pass checks
#: whether its time is up.
_CHECKPOINTS = (
    "repro.sim.engine:simulate",
    "repro.core.monotonic:MonotoneGBDT.predict_proba",
    "repro.graphs.ged:ged",
    "repro.graphs.ged:ged_within",
    "repro.core.features:FeatureEncoder.encode_dag",
    "repro.history:generate_history",
)


def _profile_top(fn, seed: int, spark, seconds: float, n: int = 10) -> list[dict]:
    """cProfile's top-``n`` functions by self time over the first
    ``seconds`` of another pass of the workload."""
    import cProfile
    import pstats

    from spans import Tracer

    deadline = time.perf_counter() + seconds

    def checkpoint(args, kwargs, out):
        if time.perf_counter() > deadline:
            raise _TimeUp
        return {}

    tr = Tracer()
    tr.install({t: ("checkpoint", checkpoint) for t in _CHECKPOINTS})
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn(seed, spark, tr)
    except _TimeUp:
        pass
    finally:
        prof.disable()
        tr.uninstall()
    rows = [
        {"function": f"{Path(file).name}:{line}({func})", "calls": ncalls,
         "self_s": tottime, "cum_s": cumtime}
        for (file, line, func), (_, ncalls, tottime, cumtime, _)
        in pstats.Stats(prof).stats.items()
    ]
    rows.sort(key=lambda r: -r["self_s"])
    return rows[:n]


def _span_cost(n: int = 200_000) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a bare one,
    the lowest of three tries."""
    from spans import Tracer

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop, None)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        best = min(best, (time.perf_counter() - t1) - (t1 - t0))
    return max(0.0, best / n)


def _traced(fn, args, spark, prov: dict):
    """One pass with a span around every layer's public calls, then
    ``--seconds`` of another under cProfile. Returns the per-layer
    metrics, their units and the traced pass's outcome."""
    import layers
    from hostspeed import HostSpeed
    from spans import Tracer
    from workloads import OUTPUT_UNITS

    full = Tracer()
    full.install(layers.TARGETS)
    try:
        with HostSpeed() as speed:
            traced = fn(args.seed, spark, full)
    finally:
        full.uninstall()
    top = _profile_top(fn, args.seed, spark, args.seconds)

    values: dict[str, float] = layers.layer_metrics(full)
    units = dict(layers.UNITS) | OUTPUT_UNITS
    values |= {k: 0.0 for k in OUTPUT_UNITS} | traced.outputs
    values["failed_frac"] = traced.failed / traced.attempted if traced.attempted else 0.0
    # Traced minus untraced wall time would be drowned by the host's
    # run-to-run swings; the spans' own cost is measured directly instead.
    overhead = len(full.spans) * _span_cost()
    values |= {
        "trace.wall_s": traced.wall_s,
        "trace.host_speed": speed.speed(),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / (traced.wall_s - overhead),
        "trace.spans": len(full.spans),
    }
    units |= {"trace.wall_s": "s", "trace.host_speed": "ratio", "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
              "trace.spans": "count"}
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    full.dump(str(dump), {"provenance": prov, "metrics": values, "cprofile_top10": top})
    print(f"spans: {len(full.spans)} written to {dump.relative_to(ROOT)}")
    print(f"cProfile top-10 by self time over the first {args.seconds:g} s of a pass:")
    for r in top:
        print(f"  {r['self_s']:9.3f} s  {r['calls']:>9}  {r['function']}")
    return values, units, traced


def main() -> None:
    here = Path(__file__).resolve().parent
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'repro'} is missing "
              "(run from the repository root)", 2)
    sys.path.insert(0, str(here))
    args = _args()
    os.environ.update(_env_for_program())
    sys.path.insert(1, str(SRC))

    import layers
    from hostspeed import HostSpeed
    from spans import Tracer
    from workloads import OUTPUT_UNITS, WORKLOADS

    fn, system, uses_spark = WORKLOADS[args.workload]
    with HostSpeed() as setup_speed:
        setups = _program_setup(system, uses_spark)
        t_import = time.perf_counter()
        import repro.tables  # noqa: F401  (the program, as the set-up children import it)
        import repro.history  # noqa: F401
        import repro.core.pretrain  # noqa: F401
        t_import = time.perf_counter() - t_import
        spark, spark_setups = (_spark_setup() if uses_spark else (None, []))
    setup_raw = statistics.median(setups) + (statistics.median(spark_setups) if spark_setups else 0.0)

    prov = _provenance(args.workload, args.seed, args.seconds)
    print("provenance: " + json.dumps(prov), flush=True)

    try:
        if args.trace:
            values, units, outcome = _traced(fn, args, spark, prov)
            values["setup.import_s"] = t_import
            values["setup.spark_first_start_s"] = spark_setups[0] if spark_setups else 0.0
            units |= {"setup.import_s": "s", "setup.spark_first_start_s": "s"}
            outcomes = [outcome]
        else:
            probe = Tracer()
            probe.install(layers.PROBES)
            try:
                with HostSpeed() as speed:
                    outcomes = _measure(fn, args.seed, args.seconds, spark, probe)
            finally:
                probe.uninstall()
            first = outcomes[0]
            wall_raw = statistics.median(o.wall_s for o in outcomes)
            values = {
                "wall_s": speed.scale(wall_raw),
                "setup_s": setup_speed.scale(setup_raw),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pretrain_accuracy": first.pretrain_accuracy,
            }
            units = E2E_UNITS
            print(f"measured: wall {[round(o.wall_s, 3) for o in outcomes]} s at host speed "
                  f"{speed.speed():.3f} ({len(speed.samples)} samples); set-up {setup_raw:.3f} s "
                  f"at host speed {setup_speed.speed():.3f}")
            for k, v in first.outputs.items():
                print(f"  output {k} = {v} {OUTPUT_UNITS[k]}")
            for s in probe.spans:
                if s.name == "tables/run_pattern":
                    print(f"  pattern run {s.tags['method']}/{s.tags['job']}: {s.dur:.3f} s")
    finally:
        if spark is not None:
            _stop_spark(spark)
    errors = [e for o in outcomes for e in o.errors]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for k in sorted(values):
        print(f"{k:48s} {values[k]:>14.6g} {units[k]}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }
    print(json.dumps(result), flush=True)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
