"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics with no
tracing; with ``--trace 1`` it wraps the program's layer boundaries
(see ``spans.py``) and reports the per-layer metrics instead.  Every
run checks the program's outputs.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  See ``README.md`` for the
workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys
import time

from common import (BENCH_DIR, BenchError, adopt_orphans, end_children,
                    keep_temp_inside, median, program_env, use_program)
from hostspeed import Sampler

WORKLOADS = ("field100_passive", "city1k", "served_field_hybrid",
             "diagnosis_campaign")

#: End-to-end metrics (printed by every untraced run) and their units.
END_TO_END = {
    "setup_s": "s",
    "sim_speed": "sim_s/s",
    "peak_rss_mb": "MB",
    "lat_p50_ms": "ms",
    "lat_tail_ms": "ms",
}

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from process start to ready, over fresh processes
    (host-speed corrected)."""
    times = []
    with Sampler() as host:
        for _ in range(SETUP_PROBES):
            began = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
                 workload, str(seed)],
                stdout=subprocess.PIPE, env=program_env())
            line = proc.stdout.readline()
            ready = time.perf_counter()
            times.append((ready - began) / host.over(began, ready))
            proc.stdout.read()
            proc.stdout.close()
            if proc.wait() != 0 or line.strip() != b"ready":
                raise BenchError(f"set-up of {workload} failed")
    return median(times)


def entry_points(workload: str):
    """``(untraced, traced)`` runners of ``workload``, each ``(seed, s)``."""
    if workload in ("field100_passive", "city1k"):
        import simload
        return (functools.partial(simload.run_untraced, workload),
                functools.partial(simload.run_traced, workload))
    if workload == "served_field_hybrid":
        import served
        return served.run_untraced, served.run_traced
    if workload == "diagnosis_campaign":
        import campaign_load
        return campaign_load.run_untraced, campaign_load.run_traced
    raise BenchError(f"unknown workload {workload!r}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    untraced, traced = entry_points(workload)
    if trace:
        return traced(seed, seconds)
    # The server's set-up is timed by starting the server itself.
    setup = None if workload == "served_field_hybrid" else \
        setup_seconds(workload, seed)
    result = untraced(seed, seconds)
    if setup is not None:
        result["metrics"]["setup_s"] = setup
    return result


def units_for(trace: bool) -> dict[str, str]:
    if trace:
        from layers import PER_LAYER
        return {name: unit for name, unit, _ in PER_LAYER}
    return END_TO_END


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    adopt_orphans()
    try:
        use_program()
        keep_temp_inside()
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        end_children()

    units = units_for(bool(args.trace))
    values = result["metrics"]
    correct = result["failed"] == 0
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None or not math.isfinite(value):
            print(f"perfbench: metric {name} is {value!r}", file=sys.stderr)
            correct, value = False, 0.0
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    detail = result.get("detail", {})
    if args.trace and not detail.get("traced_equals_untraced", False):
        correct = False
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
