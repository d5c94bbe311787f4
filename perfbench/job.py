"""One cold repetition of one benchmark workload.

run.py starts this script in a fresh interpreter for every repetition, so
no field, lazy table or lru_cache entry survives from an earlier run.  It
prints one JSON line: set-up time, wall and CPU time of the timed phase,
peak RSS, per-part timings, the operation counts from the checks and, in
the traced pass, the per-layer aggregates.

    PYTHONPATH=src python3 perfbench/job.py --workload exhaustive-u --seed 1
    PYTHONPATH=src python3 perfbench/job.py --workload exhaustive-u --write-ref
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _cpu(who):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; CHILDREN holds the largest reaped worker
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, help="pool size (default: the workload's)")
    ap.add_argument("--t0", type=float, help="time.monotonic() when the parent spawned us")
    ap.add_argument("--trace-out", help="trace this run and write its spans here")
    ap.add_argument("--write-ref", action="store_true", help="write ref/<workload>.json")
    args = ap.parse_args()
    t0 = time.monotonic() if args.t0 is None else args.t0

    import nhsbox
    import numpy as np

    src = HERE.parent / "src"
    if Path(nhsbox.__file__).resolve().parent != (src / "nhsbox").resolve():
        sys.exit(f"error: nhsbox imported from {nhsbox.__file__}, not from {src}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    jobs = args.jobs or workload.jobs
    ref_path = HERE / "ref" / f"{args.workload}.json"
    inputs = workload.setup(args.seed)

    tracer = None
    if args.trace_out:
        from tracer import Tracer, targets

        tracer = Tracer()
        tracer.install(targets())
        tracer.active = True

    # ---- timed phase -------------------------------------------------------
    start = time.monotonic()
    setup_s = start - t0
    cpu0_self = _cpu(resource.RUSAGE_SELF)
    cpu0_children = _cpu(resource.RUSAGE_CHILDREN)
    results, parts = {}, []
    for part in workload.parts:
        p_start = time.monotonic()
        c_self = _cpu(resource.RUSAGE_SELF)
        c_children = _cpu(resource.RUSAGE_CHILDREN)
        try:
            if tracer:
                results[part.name] = tracer.span(f"bench.{part.name}", part.run, inputs, jobs)
            else:
                results[part.name] = part.run(inputs, jobs)
        except Exception as exc:  # noqa: BLE001 - a failed part fails its items
            results[part.name] = None
            print(f"part {part.name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        parts.append(
            {
                "name": part.name,
                "sweep": part.sweep,
                "jobs": jobs,
                "wall_s": time.monotonic() - p_start,
                "cpu_self_s": _cpu(resource.RUSAGE_SELF) - c_self,
                "cpu_children_s": _cpu(resource.RUSAGE_CHILDREN) - c_children,
            }
        )
    wall_s = time.monotonic() - start
    cpu_s = (
        _cpu(resource.RUSAGE_SELF) - cpu0_self + _cpu(resource.RUSAGE_CHILDREN) - cpu0_children
    )
    peak_rss_mb = _peak_rss_mb()
    if tracer:
        tracer.active = False
    # ---- end of timed phase ------------------------------------------------

    if args.write_ref:
        ref = {p.name: results[p.name] for p in workload.parts if p.reference}
        ref_path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {ref_path}", file=sys.stderr)

    reference = json.loads(ref_path.read_text())
    attempted = failed = 0
    for part in workload.parts:
        ref = reference.get(part.name) if part.reference else None
        result = results[part.name]
        if result is None:  # the part raised
            items = [(part.name, False)]
        else:
            items = part.check(result, ref, inputs)
        attempted += len(items)
        for item, ok in items:
            if not ok:
                failed += 1
                print(f"FAILED {part.name}: {item}", file=sys.stderr)

    out = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "jobs": jobs,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "parts": parts,
    }
    if tracer:
        from tracer import layer_metrics

        tracer.write(args.trace_out)
        out["layers"] = layer_metrics(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
