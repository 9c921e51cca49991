"""Online-detector overhead on the 100-node minute bench.

Not a paper experiment — the perf gate for the passive detection path
(``repro.diag.online``), in three honestly-separated numbers recorded
in ``BENCH_simulator.json``:

``online_detector_overhead`` (asserted ≤ 2%)
    What shipping the subsystem costs runs that do NOT use it — i.e.
    the default/active-mode fleet, and every existing bench.  The only
    hot-path change is the per-beacon tap guard in the neighbor
    service (``taps = monitor.beacon_taps`` + a truth test), so the
    overhead is that guard's cost times the scenario's beacon
    receptions, over the scenario runtime — the same methodology as
    ``bench_trace_overhead`` uses for the disabled-tracing guard, and
    far more stable than differencing two noisy end-to-end timings.

``online_listener_attached_overhead`` (asserted ≤ 10%)
    What a fleet that *opts into* passive mode pays, measured the same
    way: the per-beacon ingest cost (timeit over a slice of the
    minute's own tap calls) times the beacon receptions, plus the
    measured drain and poll time of an attached minute, over the
    detached runtime (both sides best of three runs).  Ingest only
    queues the beacon; the columnar detectors drain the queue in
    vectorised rounds at each poll (and at the pending bound), so the
    whole listener costs a few µs per beacon — a few percent of the
    minute.  The budget passive mode actually buys is *network*
    overhead — zero probe packets — which the determinism suite
    asserts byte-exactly.  Until the columnar detectors this key held
    the interleaved-pairs median below; older ``bench_history.jsonl``
    lines under this key are that other quantity.

``online_listener_attached_pairs`` (recorded, report-only)
    CPU-time median of interleaved attached-vs-detached pairs of the
    100-node minute.  Single shared-hardware samples of this ratio
    swing tens of percent, so only a sanity ceiling guards it.
"""

import time
import timeit

from repro.core.deploy import deploy_liteview
from repro.diag import OnlineMonitor
from repro.sim.monitor import Monitor
from repro.workloads import hundred_node_field

#: Acceptance bar: the subsystem may slow non-users by at most this.
MAX_GUARD_OVERHEAD = 0.02
#: Acceptance bar: an attached, polled listener may cost at most this
#: fraction of the detached minute.
MAX_LISTENER_OVERHEAD = 0.10
#: Sanity ceiling on the interleaved-pairs ratio (report-only metric;
#: single shared-hardware samples of this ratio swing tens of percent,
#: so the ceiling only catches order-of-magnitude regressions).
MAX_ATTACHED_OVERHEAD = 1.0

#: The serve layer's default assessment cadence (build_fleet).
POLL_EVERY = 30.0
MINUTE = 60.0
#: Recorded tap calls replayed per ingest timing (below the pending
#: bound, so no drain runs inside the timed loop).
INGEST_BATCH = 2000


def run_minute(attached):
    """The 100-node minute, optionally with the passive listener on."""
    testbed = hundred_node_field(seed=3)
    online = OnlineMonitor(testbed).attach() if attached else None
    deploy_liteview(testbed, warm_up=0.0)
    t = 0.0
    while t < MINUTE:
        t += POLL_EVERY
        testbed.run(until=t)
        if online is not None:
            online.poll()
    return testbed, online


def cpu_minute(attached):
    start = time.process_time()
    run_minute(attached)
    return time.process_time() - start


def detached_runtime():
    """Best-of-three CPU seconds of the detached minute."""
    return min(cpu_minute(attached=False) for _ in range(3))


def timed_listener_minute():
    """One attached minute with the listener's CPU time measured:
    ``(ingest_s_per_beacon, drain_s, poll_s, beacons, online)``.

    Drains (at the pending bound and before each poll) and polls are
    timed in the run itself; ingest is timed afterwards by replaying a
    slice of the minute's recorded tap calls into the warm monitor.
    """
    testbed = hundred_node_field(seed=3)
    calls = []
    testbed.monitor.add_beacon_tap(lambda *args: calls.append(args))
    online = OnlineMonitor(testbed).attach()
    drain, spent = online._drain, {"drain": 0.0, "poll": 0.0}

    def timed_drain():
        start = time.process_time()
        drain()
        spent["drain"] += time.process_time() - start

    online._drain = timed_drain
    deploy_liteview(testbed, warm_up=0.0)
    t = 0.0
    while t < MINUTE:
        t += POLL_EVERY
        testbed.run(until=t)
        online._drain()
        start = time.process_time()
        online.poll()
        spent["poll"] += time.process_time() - start
    online._drain = drain
    beacons = online.beacons_seen

    batch = calls[len(calls) // 2:][:INGEST_BATCH]
    tap = online._tap

    def ingest():
        for args in batch:
            tap(*args)

    best = min(timeit.repeat(ingest, setup=drain, number=1, repeat=20,
                             timer=time.process_time))
    return best / len(batch), spent["drain"], spent["poll"], beacons, online


def listener_cost():
    """CPU seconds the attached listener spends on one polled minute,
    each part the best of three runs (as the detached runtime is):
    ``(ingest_s_per_beacon, drain_s, poll_s, beacons, online)``."""
    runs = [timed_listener_minute() for _ in range(3)]
    ingest_s = min(run[0] for run in runs)
    _, drain_s, poll_s, beacons, online = min(
        runs, key=lambda run: run[1] + run[2])
    return ingest_s, drain_s, poll_s, beacons, online


def test_tap_guard_overhead_under_two_percent(record_metric, report):
    """The default path: no listener attached, only the guard runs."""
    testbed, _ = run_minute(attached=False)
    receptions = testbed.monitor.counter("neighbors.beacons_received")
    assert receptions > 20_000  # the guard really is per-reception

    monitor = Monitor()  # beacon_taps == () — the default-mode state
    n = 200_000
    guard_cost = timeit.timeit(
        "monitor.beacon_taps and None",
        globals={"monitor": monitor}, number=n) / n

    t_off = detached_runtime()
    fraction = receptions * guard_cost / t_off
    record_metric("online_detector_overhead", fraction,
                  budget=MAX_GUARD_OVERHEAD, receptions=receptions,
                  guard_ns=guard_cost * 1e9)
    report(
        "online_overhead_guard",
        "\n".join([
            "online-detector guard overhead (100-node minute, detached)",
            f"  beacon receptions        {receptions}",
            f"  per-guard cost           {guard_cost * 1e9:8.1f} ns",
            f"  scenario runtime         {t_off * 1e3:8.1f} ms",
            f"  implied overhead         {fraction * 100:8.4f} %",
            f"  budget                   {MAX_GUARD_OVERHEAD * 100:8.1f} %",
        ]),
    )
    assert fraction < MAX_GUARD_OVERHEAD, (
        f"tap guard overhead {fraction:.2%} exceeds "
        f"{MAX_GUARD_OVERHEAD:.0%}")


def test_attached_listener_overhead_under_ten_percent(record_metric,
                                                      report):
    """The opt-in path: every beacon reception feeds the detectors."""
    ingest_s, drain_s, poll_s, beacons, online = listener_cost()
    assert beacons > 20_000                   # the tap really ran
    assert online.links_tracked > 100
    assert online.polls == MINUTE / POLL_EVERY

    total_s = ingest_s * beacons + drain_s + poll_s
    t_off = detached_runtime()
    fraction = total_s / t_off
    record_metric("online_listener_attached_overhead", fraction,
                  budget=MAX_LISTENER_OVERHEAD, beacons=beacons,
                  links=online.links_tracked, ingest_us=ingest_s * 1e6,
                  drain_ms=drain_s * 1e3, poll_ms=poll_s * 1e3,
                  per_beacon_us=total_s / beacons * 1e6)
    report(
        "online_overhead_attached",
        "\n".join([
            "passive listener attached overhead (100-node minute, "
            f"polled every {POLL_EVERY:.0f} s)",
            f"  beacons tapped           {beacons}",
            f"  links tracked            {online.links_tracked}",
            f"  ingest per beacon        {ingest_s * 1e6:8.2f} us",
            f"  drains                   {drain_s * 1e3:8.1f} ms",
            f"  polls                    {poll_s * 1e3:8.1f} ms",
            f"  listener per beacon      {total_s / beacons * 1e6:8.2f} us",
            f"  scenario runtime         {t_off * 1e3:8.1f} ms (detached)",
            f"  implied overhead         {fraction * 100:8.2f} %",
            f"  budget                   {MAX_LISTENER_OVERHEAD * 100:8.1f} %",
            "  network overhead         0 probe packets (asserted in",
            "                           tests/serve/test_passive_mode.py)",
        ]),
    )
    assert fraction < MAX_LISTENER_OVERHEAD, (
        f"attached listener overhead {fraction:.2%} exceeds "
        f"{MAX_LISTENER_OVERHEAD:.0%}")


def test_attached_listener_cost(benchmark, record_metric, report):
    """End-to-end pairs, for the record (report-only)."""
    testbed, online = run_minute(attached=True)
    assert online.beacons_seen > 20_000       # the tap really ran
    assert testbed.monitor.counter("diag.online.polls") == 2

    if getattr(benchmark, "disabled", False):
        # CI smoke mode: correctness above, no timing below.
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        return

    # Interleaved pairs: CPU-frequency drift hits both sides alike.
    ratios = []
    for _ in range(5):
        t_off = cpu_minute(attached=False)
        t_on = cpu_minute(attached=True)
        ratios.append(t_on / t_off - 1.0)
    ratios.sort()
    overhead = ratios[len(ratios) // 2]

    benchmark.pedantic(lambda: run_minute(attached=True),
                       rounds=5, iterations=1)
    record_metric("online_listener_attached_pairs", overhead,
                  ceiling=MAX_ATTACHED_OVERHEAD, pairs=len(ratios))
    report(
        "online_overhead_attached_pairs",
        "\n".join([
            "passive listener attached vs detached, interleaved CPU-time "
            "pairs (100-node minute)",
            f"  median overhead         {overhead * 100:8.2f} %",
            "  all samples             "
            + ", ".join(f"{r * 100:.1f}%" for r in ratios),
            f"  sanity ceiling          {MAX_ATTACHED_OVERHEAD * 100:8.0f} %",
        ]),
    )
    assert overhead < MAX_ATTACHED_OVERHEAD, (
        f"attached listener overhead {overhead:.2%} exceeds the "
        f"{MAX_ATTACHED_OVERHEAD:.0%} sanity ceiling")
