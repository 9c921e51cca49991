"""The in-process simulation workloads: ``field100_passive`` and ``city1k``.

One repetition builds the seed's topology, deploys LiteView (beacons
only, no commands) and advances the world step by step (``SIM_STEP_S``).
On the field an ``OnlineMonitor`` taps every beacon and is polled after
every step.  Each repetition is checked against the packet digest (and,
on the field, the canonical online-findings JSON) recorded for the seed
in ``reference.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time

from common import BENCH_DIR, OUT_DIR, TAIL_Q, median, quantile
from hostspeed import slowness, smoothed
from layers import CALIBRATE_SPAN, UNIT_SPAN, layer_metrics
from spans import GcClock, SpanLog, SpanStats, install

#: Simulated seconds per repetition.
SIM_SECONDS = {"field100_passive": 60.0, "city1k": 20.0}
#: Simulated seconds per step, the unit of work whose host latency is
#: reported: on the field one ``OnlineMonitor`` poll window, so every
#: step carries one poll; on the city half a second, for enough samples
#: in a run.  (Steps of unequal work, some with a poll and some without,
#: made the median jump from run to run.)
SIM_STEP_S = {"field100_passive": 2.0, "city1k": 0.5}

REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")


def build(workload: str, seed: int):
    """The seed's world, deployed; returns ``(testbed, online_or_None)``."""
    from repro.core.deploy import deploy_liteview
    from repro.diag import OnlineMonitor
    from repro.workloads import hundred_node_field, thousand_node_city

    if workload == "field100_passive":
        testbed = hundred_node_field(seed=seed)
        online = OnlineMonitor(testbed).attach()
    elif workload == "city1k":
        testbed, online = thousand_node_city(seed=seed), None
    else:
        raise ValueError(f"not a simulation workload: {workload!r}")
    deploy_liteview(testbed, warm_up=0.0)
    return testbed, online


def run_rep(workload: str, testbed, online, log: SpanLog | None = None):
    """Advance one world; returns per-step ``(raw, host-speed-corrected)``
    latencies in seconds.  The host-speed kernel runs between steps,
    outside the timed intervals (and, when tracing, in its own span so
    it does not read as unattributed time)."""
    step_s, sim_seconds = SIM_STEP_S[workload], SIM_SECONDS[workload]
    clock = time.perf_counter
    steps: list[float] = []
    slow: list[float] = []
    k = 0
    while k * step_s < sim_seconds:
        k += 1
        t0 = clock()
        testbed.run(until=k * step_s)
        if online is not None:
            online.poll()
        steps.append(clock() - t0)
        span = log.open(CALIBRATE_SPAN) if log is not None else None
        slow.append(slowness())
        if span is not None:
            log.close(span)
    return steps, [t / f for t, f in zip(steps, smoothed(slow))]


def digests(testbed, online) -> dict:
    """What a repetition is checked by: packets, and online findings."""
    out = {"packets": testbed.monitor.packet_digest()}
    if online is not None:
        text = "[" + ",".join(f.to_json() for f in online.last_findings) + "]"
        out["findings"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def load_reference(workload: str, seed: int) -> dict | None:
    try:
        with open(REFERENCE_PATH) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def release_world() -> None:
    """Collect the previous repetition's world (its references already
    dropped) before the next is built, so peak memory is one world's,
    not two; ``deploy_liteview`` gc-freezes large worlds."""
    gc.unfreeze()
    gc.collect()


class _Checker:
    """Compares each repetition with the recorded reference, or, for a
    seed with none recorded, with the run's first repetition."""

    def __init__(self, workload: str, seed: int) -> None:
        self.expected = load_reference(workload, seed)
        self.source = "recorded" if self.expected else "first repetition"
        self.failed = 0
        self.checked = 0

    def check(self, got: dict) -> bool:
        self.checked += 1
        if self.expected is None:
            self.expected = got
        if got != self.expected:
            self.failed += 1
            return False
        return True


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    sim_s = SIM_SECONDS[workload]
    checker = _Checker(workload, seed)
    speeds: list[float] = []
    raw_speeds: list[float] = []
    steps: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        release_world()
        testbed, online = build(workload, seed)
        raw, corrected = run_rep(workload, testbed, online)
        checker.check(digests(testbed, online))
        speeds.append(sim_s / sum(corrected))
        raw_speeds.append(sim_s / sum(raw))
        steps.extend(corrected)
        del testbed, online
        if time.perf_counter() >= deadline:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail = TAIL_Q[workload]
    return {
        "metrics": {
            "sim_speed": median(speeds),
            "peak_rss_mb": peak_mb,
            "lat_p50_ms": quantile(steps, 0.50) * 1e3,
            "lat_tail_ms": quantile(steps, tail) * 1e3,
        },
        "attempted": checker.checked,
        "failed": checker.failed,
        "detail": {"repetitions": len(speeds), "steps": len(steps),
                   "tail_quantile": tail,
                   "raw_sim_speed": median(raw_speeds),
                   "reference": checker.source,
                   "sim_seconds_per_rep": sim_s},
    }


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Untraced and traced repetitions alternate; each pair must agree."""
    checker = _Checker(workload, seed)
    log = SpanLog()
    gc_clock = GcClock()
    ratios: list[float] = []
    tx = considered = pruned = 0
    mismatched_pairs = 0
    deadline = time.perf_counter() + seconds
    with gc_clock:
        while True:
            release_world()
            testbed, online = build(workload, seed)
            _, plain_steps = run_rep(workload, testbed, online)
            plain = digests(testbed, online)
            checker.check(plain)
            del testbed, online

            release_world()
            testbed, online = build(workload, seed)
            inst = install(log)
            try:
                gc_clock.active = True
                unit = log.open(UNIT_SPAN)
                _, traced_steps = run_rep(workload, testbed, online, log)
                log.close(unit)
            finally:
                gc_clock.active = False
                inst.remove()
            traced = digests(testbed, online)
            checker.check(traced)
            mismatched_pairs += traced != plain
            medium = testbed.medium
            tx += testbed.monitor.counter("medium.transmissions")
            considered += medium.candidates_considered
            pruned += medium.candidates_pruned
            ratios.append(sum(traced_steps) / sum(plain_steps) - 1.0)
            del testbed, online
            if time.perf_counter() >= deadline:
                break
    stats = SpanStats(log)
    values, missing = layer_metrics(
        stats, tx=tx, units=len(ratios), considered=considered,
        pruned=pruned, gc_ns=gc_clock.ns,
        gc_collections=gc_clock.collections,
        overhead_frac=median(ratios), external={})
    path = log.write(os.path.join(OUT_DIR,
                                  f"spans-{workload}-seed{seed}.npz"))
    return {
        "metrics": values,
        "attempted": checker.checked,
        "failed": checker.failed,
        "detail": {"pairs": len(ratios), "spans": len(log),
                   "traced_equals_untraced": mismatched_pairs == 0,
                   "min_self_ns": stats.min_self_ns(),
                   "open_spans": stats.open_spans,
                   "reference": checker.source,
                   "not_applicable": missing, "span_file": path,
                   "skipped_hooks": inst.skipped},
    }
