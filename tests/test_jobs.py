"""The spark-submit entrypoints must at least compile and the cheap ones
must run end-to-end."""
import pathlib
import py_compile
import subprocess
import sys

import pytest

JOBS = sorted(pathlib.Path(__file__).resolve().parent.parent.joinpath("jobs").glob("*.py"))


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.name)
def test_job_compiles(path):
    py_compile.compile(str(path), doraise=True)


def test_table2_job_runs():
    out = subprocess.run(
        [sys.executable, "jobs/table2_source_rates.py"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=str(JOBS[0].parent.parent),
    )
    assert out.returncode == 0, out.stderr
    assert "nexmark_q1" in out.stdout
    assert "700000" in out.stdout


def test_fig8_job_runs():
    out = subprocess.run(
        [sys.executable, "jobs/fig8_timely.py", "--perms", "1", "--history", "20", "--local"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=str(JOBS[0].parent.parent),
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    runs = [line.split(":")[0] for line in lines if line.startswith("[")]
    assert runs == [f"[{m}] nexmark_{q}" for m in ("DS2", "ContTune", "StreamTune") for q in ("q3", "q5", "q8")]
    timings = next(line for line in lines if line.startswith("stage timings (s): "))
    for stage in ("history", "pretrain", "zerotune", "DS2", "ContTune", "ZeroTune", "StreamTune"):
        assert f" {stage} " in timings
    table = lines[lines.index("Fig. 8 — Timely Dataflow evaluation:") + 1:]
    assert [line.split()[:2] for line in table[1:]] == [
        [q, m] for q in ("Q3", "Q5", "Q8") for m in ("DS2", "ContTune", "StreamTune")
    ]
