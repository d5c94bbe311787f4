"""The benchmark's tracer names only functions that nhsbox still defines, and
every benchmark workload passes its own reference checks."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_tracer_targets_exist():
    # run_path compiles the source without writing bytecode next to it; a
    # name the tracer wraps but src no longer defines would otherwise
    # surface only as a KeyError in a traced benchmark run
    targets = runpy.run_path(str(TRACER))["targets"]()
    missing = [(owner.__name__, attr) for owner, attr, *_ in targets if attr not in vars(owner)]
    assert targets and not missing


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_passes_its_checks(workload):
    # one cold repetition, as the benchmark runs it: a src change that breaks
    # a workload's reference check fails here, not only in a benchmark run
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    job = [sys.executable, str(ROOT / "perfbench" / "job.py"), "--workload", workload]
    proc = subprocess.run(job + ["--seed", "1"], capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["attempted"] > 0 and out["failed"] == 0, proc.stderr
