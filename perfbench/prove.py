"""Measure the benchmark's own steadiness and record the baseline.

    python3 perfbench/prove.py [--workloads a,b] [--seeds 1-10] [--sets 2]
                               [--traced-seeds 11,7919] [--held-out 7919]
                               [--write perfbench/BASELINE.json]

For every workload, runs ``run.py`` untraced once per seed (``--sets``
times over), and reports per end-to-end metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
spread, the inter-quartile distance as a share of the median.  Each
set's medians are compared with the first set's against the bounds in
``BENCHMARK.json``.  Then runs each workload traced on
``--traced-seeds``, and untraced on the held-out seed.  With
``--write`` the lot, plus machine facts, goes to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT
from layers import MOVES
from run import WORKLOADS


def seed_list(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].removeprefix("detail "))
    result["wall_s"] = time.perf_counter() - began
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf"),
            "values": values}


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of it."""
    return (later - first) / first if better == "lower" \
        else (first - later) / first


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced-seeds", default="")
    parser.add_argument("--held-out", type=int, default=None)
    parser.add_argument("--write", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    report: dict = {"machine": machine(), "run_seconds": seconds,
                    "seeds": seeds, "sets": args.sets,
                    "held_out_seed": args.held_out,
                    "layer_moves": MOVES, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        entry: dict = {"sets": []}
        for n in range(args.sets):
            runs = [bench(workload, seed, seconds, 0) for seed in seeds]
            metrics = {name: summary([r["metrics"][name]["value"]
                                      for r in runs]) for name in e2e}
            entry["sets"].append({
                "metrics": metrics,
                "all_correct": all(r["correct"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "max_run_wall_s": max(r["wall_s"] for r in runs),
                "mean_run_wall_s": statistics.fmean(r["wall_s"]
                                                    for r in runs),
            })
            for name, s in metrics.items():
                bound = e2e[name]["bound"]
                ok = name == "setup_s" or s["spread"] < bound / 3
                drift = worse_by(entry["sets"][0]["metrics"][name]["median"],
                                 s["median"], e2e[name]["better"])
                ok = ok and drift <= bound
                steady &= ok
                print(f"{workload:20s} set {n} {name:12s} "
                      f"median {s['median']:10.4f}  spread {s['spread']:.4f}"
                      f"  (bound {bound})  drift {drift:+.4f}"
                      f"{'' if ok else '  <-- NOT STEADY'}", flush=True)
            print(f"{workload:20s} set {n} correct "
                  f"{entry['sets'][-1]['all_correct']}  mean wall "
                  f"{entry['sets'][-1]['mean_run_wall_s']:.1f} s", flush=True)
        for seed in seed_list(args.traced_seeds) if args.traced_seeds else []:
            traced = bench(workload, seed, seconds, 1)
            entry[f"traced_seed_{seed}"] = {
                "correct": traced["correct"],
                "wall_s": traced["wall_s"],
                "metrics": {k: v["value"]
                            for k, v in traced["metrics"].items()},
                "not_applicable": traced["detail"].get("not_applicable"),
            }
            print(f"{workload:20s} traced seed {seed} correct "
                  f"{traced['correct']} overhead "
                  f"{traced['metrics']['trace.overhead_frac']['value']:.3f}",
                  flush=True)
        if args.held_out is not None:
            held = bench(workload, args.held_out, seconds, 0)
            entry["held_out"] = {"correct": held["correct"],
                                 "failed": held["failed"],
                                 "metrics": {k: v["value"] for k, v in
                                             held["metrics"].items()},
                                 "detail": held["detail"]}
            print(f"{workload:20s} held-out seed {args.held_out} correct "
                  f"{held['correct']}", flush=True)
        report["workloads"][workload] = entry
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
