"""nhsbox benchmark runner.

    python3 perfbench/run.py --workload exhaustive-u --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; nhsbox is imported from ./src.
Each repetition is a fresh interpreter (perfbench/job.py), so every timed
run starts cold.  With --trace 0 the runner repeats the workload for about
--seconds seconds (at least three repetitions) and reports the median of
each end-to-end metric.  With --trace 1 it runs the workload untraced at its
own pool size, untraced at one job and traced at one job, and reports the
per-layer metrics.  The last line of stdout is one JSON object; the lines
before it give every metric by name and unit, plus the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MIN_REPS = 3
BUDGET_S = 165.0  # every run must end within 180 s


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, deadline, jobs=None, trace_out=None):
    """Run one repetition in a fresh interpreter; returns its JSON record."""
    env = dict(os.environ)
    env.pop("SPECTRA_JOBS", None)  # the pool size is always explicit
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload, "--seed", str(seed)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the job and its pool workers
        proc.communicate()
        raise BenchError(f"{workload} repetition exceeded the time budget") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def worker_busy_frac(record):
    """CPU of the processes doing sweep work over jobs x sweep wall time.

    With a pool the workers' CPU (RUSAGE_CHILDREN) counts; at one job the
    sweep runs in the process itself, so its own CPU counts.
    """
    sweeps = [p for p in record["parts"] if p["sweep"]]
    busy = sum(p["cpu_children_s"] if p["jobs"] > 1 else p["cpu_self_s"] for p in sweeps)
    capacity = sum(p["jobs"] * p["wall_s"] for p in sweeps)
    return busy / capacity if capacity else 0.0


def measure(workload, seed, seconds, deadline):
    start = time.monotonic()
    reps, costs = [], []
    while True:
        t = time.monotonic()
        reps.append(spawn(workload, seed, deadline))
        costs.append(time.monotonic() - t)
        now = time.monotonic()
        next_end = now + statistics.median(costs)
        if next_end > deadline or (len(reps) >= MIN_REPS and next_end - start > seconds):
            break
    values = {
        name: [r[name] for r in reps] for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
    }
    metrics = {name: statistics.median(v) for name, v in values.items()}
    for name, v in values.items():
        q1, q3 = quartiles(v)
        print(f"  {name:<12} median {metrics[name]:.4f}  quartiles {q1:.4f}..{q3:.4f}  n={len(v)}")
    return reps, metrics


def trace(workload, seed, deadline):
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = out_dir / f"trace-{workload}-seed{seed}.npz"
    pooled = spawn(workload, seed, deadline)
    single = pooled if pooled["jobs"] == 1 else spawn(workload, seed, deadline, jobs=1)
    traced = spawn(workload, seed, deadline, jobs=1, trace_out=spans)
    metrics = dict(traced["layers"])
    metrics["verifier.worker_busy_frac"] = worker_busy_frac(pooled)
    metrics["trace.overhead_s"] = traced["wall_s"] - single["wall_s"]
    print(f"  spans written to {spans.relative_to(ROOT)}")
    reps = [pooled, traced] if single is pooled else [pooled, single, traced]
    return reps, metrics


def run_workload(workload, spec, seed, seconds, traced, deadline):
    print(f"workload {workload} seed {seed} trace {int(traced)}")
    if traced:
        reps, measured = trace(workload, seed, deadline)
        wanted = spec["per_layer"]
    else:
        reps, measured = measure(workload, seed, seconds, deadline)
        wanted = spec["end_to_end"]
    print(f"  python {reps[0]['python']}, numpy {reps[0]['numpy']}, nproc {os.cpu_count()}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {measured[m['name']]:.6g} {m['unit']}")
    print(f"  error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "nhsbox" / "__init__.py").is_file():
        print(f"error: no nhsbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(names)}, all",
              file=sys.stderr)
        return 2
    try:
        for workload in chosen:
            deadline = time.monotonic() + BUDGET_S
            run_workload(workload, spec, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
