"""The ``diagnosis_campaign`` workload.

``run_campaign`` over the ``diagnosis_sweep`` scenario: the seven fault
kinds, each as a one-spec plan injured at 20 simulated seconds into an
8-node chain's middle, crossed with chains of 8 and 24 nodes, four
replicates each (56 cells), on the shared warm pool with no cache.
Every cell runs the active diagnosis engine and is scored against its
own plan.  Correctness: every pass's ``CampaignResult.digest()`` equals
the in-process ``workers=1`` digest of the same cells.
"""

from __future__ import annotations

import json
import multiprocessing.forkserver
import os
import time

from common import OUT_DIR, TAIL_Q, WORKERS, median, quantile, vm_hwm_mb
from hostspeed import slowness
from layers import KINDS, UNIT_SPAN, layer_metrics
from spans import GcClock, SpanLog, SpanStats, install

CHAIN_SIZES = (8, 24)
REPLICATES = 4
FAULT_AT = 20.0
IDLE_SAMPLES = 9


def fault_specs():
    """One canonical spec per kind, aimed at node 4 / link 4->5 of the
    chain (the detection sweep's table for an 8-node chain)."""
    from repro.faults import FaultSpec
    mid = 4
    return {
        "clock_drift": FaultSpec(kind="clock_drift", at=FAULT_AT,
                                 nodes=(mid,), drift=0.08),
        "interference_burst": FaultSpec(kind="interference_burst",
                                        at=FAULT_AT, channel=17,
                                        loss_db=40.0),
        "link_degrade": FaultSpec(kind="link_degrade", at=FAULT_AT,
                                  link=(mid, mid + 1), loss_db=80.0),
        "node_crash": FaultSpec(kind="node_crash", at=FAULT_AT,
                                nodes=(mid,)),
        "node_reboot": FaultSpec(kind="node_reboot", at=FAULT_AT,
                                 nodes=(mid,), duration=20.0),
        "packet_corrupt": FaultSpec(kind="packet_corrupt", at=FAULT_AT,
                                    probability=0.9, nodes=(mid,)),
        "queue_saturate": FaultSpec(kind="queue_saturate", at=FAULT_AT,
                                    nodes=(mid,), capacity=1),
    }


def build_campaign(seed: int):
    from repro.campaign import Campaign
    from repro.faults import FaultPlan
    specs = fault_specs()
    plans = [FaultPlan(name=f"perfbench-{kind}", specs=(specs[kind],))
             .to_param() for kind in KINDS]
    return Campaign(name="perfbench", scenario="diagnosis_sweep", seed=seed,
                    grid={"fault_plan": plans, "nodes": list(CHAIN_SIZES)},
                    repeats=REPLICATES)


def stop_pools() -> None:
    """Close the warm pool's workers and the forkserver that forked them,
    waiting for each to end."""
    from repro.campaign import shutdown_warm_pools
    shutdown_warm_pools()
    server = multiprocessing.forkserver._forkserver
    stop = getattr(server, "_stop", None)
    if stop is not None:
        stop()


def kind_of(result) -> str:
    plan = json.loads(result.spec.params_dict["fault_plan"])
    return plan["specs"][0]["kind"]


def quality(results) -> dict:
    """Micro-averaged precision/recall plus tp/fp/fn per fault kind."""
    out: dict = {}
    totals = {"tp": 0, "fp": 0, "fn": 0}
    for kind in KINDS:
        for part in totals:
            out[f"diag.quality.{kind}.{part}"] = 0
    for r in results:
        kind = kind_of(r)
        for part in totals:
            n = int(r.values.get(part, 0))
            out[f"diag.quality.{kind}.{part}"] += n
            totals[part] += n
    tp, fp, fn = totals["tp"], totals["fp"], totals["fn"]
    out["diag.quality.precision"] = tp / (tp + fp) if tp + fp else 1.0
    out["diag.quality.recall"] = tp / (tp + fn) if tp + fn else 1.0
    return out


def idle_slowness() -> float:
    return median([slowness() for _ in range(IDLE_SAMPLES)])


def _warm_pool():
    from repro.campaign import get_warm_pool
    pool = get_warm_pool(WORKERS)
    if pool is None or pool.warm() < WORKERS:
        raise RuntimeError("warm pool did not start its workers")
    return pool


def run_untraced(seed: int, seconds: float) -> dict:
    from repro.campaign import run_campaign
    campaign = build_campaign(seed)
    passes = []         # (result, host slowness over the pass)
    try:
        pool = _warm_pool()
        # Host slowness is sampled between passes, while the workers are
        # idle: sampled during a pass, the kernel would also measure the
        # wait for a core the two workers hold.
        before = idle_slowness()
        deadline = time.perf_counter() + seconds
        while True:
            out = run_campaign(campaign, workers=WORKERS)
            after = idle_slowness()
            passes.append((out, (before + after) / 2))
            before = after
            if time.perf_counter() >= deadline:
                break
        peak_mb = max(vm_hwm_mb(pid) for pid in pool.pids())
    finally:
        stop_pools()
    serial = run_campaign(campaign, workers=1)
    reference = serial.digest()
    cells = [r for out, _ in passes for r in out.runs]
    failed = sum(not r.ok for r in cells) + sum(not r.ok for r in serial.runs)
    failed += sum(out.digest() != reference for out, _ in passes)
    # A pass is the user's wait: the whole campaign, start to result.
    walls = [out.wall_s / slow for out, slow in passes]
    speeds = [sum(r.sim_time for r in out.runs) / wall
              for (out, _), wall in zip(passes, walls)]
    scores = quality(serial.runs)
    attempted = len(cells) + len(serial.runs)
    tail = TAIL_Q["diagnosis_campaign"]
    return {
        "metrics": {
            "sim_speed": median(speeds),
            "peak_rss_mb": peak_mb,
            "lat_p50_ms": quantile(walls, 0.50) * 1e3,
            "lat_tail_ms": quantile(walls, tail) * 1e3,
        },
        "attempted": attempted,
        "failed": failed,
        "detail": {
            "passes": len(passes), "cells_per_pass": len(serial.runs),
            "tail_quantile": tail,
            "cells_per_s": median([len(o.runs) / o.wall_s
                                   for o, _ in passes]),
            "raw_sim_speed": median([sum(r.sim_time for r in o.runs)
                                     / o.wall_s for o, _ in passes]),
            "precision": scores["diag.quality.precision"],
            "recall": scores["diag.quality.recall"],
            "error_rate": failed / attempted,
            "digest": reference,
        },
    }


def _pool_stats(out) -> dict:
    walls = [r.wall_s for r in out.runs]
    return {
        "campaign.cell_s_p50": quantile(walls, 0.5),
        "campaign.cell_s_p90": quantile(walls, 0.9),
        "campaign.busy_frac": sum(walls) / (out.workers * out.wall_s),
        "campaign.attempts_per_cell": sum(r.attempts for r in out.runs)
        / len(out.runs),
        "campaign.cells_per_s": len(out.runs) / out.wall_s,
    }


def run_traced(seed: int, seconds: float) -> dict:
    """One pool pass for the pool statistics, then the same cells
    in-process untraced and traced (``workers=1``); all three digests
    must agree.  The pass sizes are fixed, so ``seconds`` is unused."""
    from repro.campaign import run_campaign
    campaign = build_campaign(seed)
    try:
        _warm_pool()
        pooled = run_campaign(campaign, workers=WORKERS)
    finally:
        stop_pools()
    plain = run_campaign(campaign, workers=1)

    log = SpanLog()
    gc_clock = GcClock()
    inst = install(log)
    try:
        with gc_clock:
            gc_clock.active = True
            unit = log.open(UNIT_SPAN)
            traced = run_campaign(campaign, workers=1)
            log.close(unit)
            gc_clock.active = False
    finally:
        inst.remove()

    outs = (pooled, plain, traced)
    failed = sum(not r.ok for out in outs for r in out.runs)
    failed += sum(out.digest() != plain.digest() for out in (pooled, traced))
    tx = considered = pruned = 0
    for r in inst.cells:
        tx += int(r.counters.get("medium.transmissions", 0))
        gauges = r.metrics.get("gauges", {})
        considered += int(gauges.get("medium.candidates.considered", 0))
        pruned += int(gauges.get("medium.candidates.pruned", 0))
    external = {**_pool_stats(pooled), **quality(plain.runs)}
    stats = SpanStats(log)
    values, missing = layer_metrics(
        stats, tx=tx, units=1, considered=considered, pruned=pruned,
        gc_ns=gc_clock.ns, gc_collections=gc_clock.collections,
        overhead_frac=traced.wall_s / plain.wall_s - 1.0,
        external=external)
    path = log.write(os.path.join(OUT_DIR,
                                  f"spans-diagnosis_campaign-seed{seed}.npz"))
    return {
        "metrics": values,
        "attempted": sum(len(out.runs) for out in outs),
        "failed": failed,
        "detail": {"cells": len(plain.runs), "spans": len(log),
                   "traced_equals_untraced":
                       traced.digest() == plain.digest(),
                   "min_self_ns": stats.min_self_ns(),
                   "open_spans": stats.open_spans,
                   "not_applicable": missing, "span_file": path,
                   "skipped_hooks": inst.skipped},
    }
