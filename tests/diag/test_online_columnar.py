"""The columnar passive detectors: how the queue is cut is invisible.

``OnlineMonitor.observe_beacon`` only queues a beacon; a drain replays
the queue in vectorised rounds (round k holds the k-th queued beacon of
every link).  The contract is that the detector state is bit-identical
however the queue was cut.  The differential test below feeds random
multi-link streams twice — draining after every beacon, and draining
only where the monitor itself does (polls, pause/resume, the pending
bound) — and compares every per-link column byte for byte, plus the
canonical findings JSON at every poll.  The golden fixtures compare
rounded JSON; this raw-state equality is the stronger check.  The same
streams also run through the one-sample-at-a-time loop reference
(``scalar_reference.py``), which every column must equal exactly.

Also here: the pending queue stays bounded on a monitor that is
attached but never polled, and ``detach()`` really removes the tap.
"""

import struct
import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deploy import deploy_liteview
from repro.diag import (
    CusumDetector,
    EwmaDetector,
    OnlineMonitor,
    OnlineThresholds,
    WindowStats,
)
from repro.diag import online
from repro.sim.monitor import Monitor, PacketRecord
from repro.workloads import build_chain, thirty_node_field

from tests.diag import scalar_reference as ref

#: Small enough that a few hundred beacons spread over a handful of
#: links leave many beacons per link per window: multi-round drains.
THRESHOLDS = OnlineThresholds(min_samples=3, window=6, drift_window=5,
                              baseline_intervals=3)

HOSTILE = (float("nan"), float("inf"), float("-inf"), 1e308, -1e308)


def make_stream(rng, links, length):
    """A random multi-link event list: beacons (duplicates, loss gaps,
    the 0xFFFF wrap, restarts beyond ``max_gap``, non-finite LQI/RSSI,
    quality collapses), polls, and pause/resume windows with and
    without probe packets on the air."""
    seqs = {link: 0xFFF0 + 2 * i for i, link in enumerate(links)}
    now = 0.0
    events = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.08:
            events.append(("poll", now + rng.choice((0.0, 3.0, 30.0))))
        elif roll < 0.13:
            events.append(("pause",))
        elif roll < 0.18:
            events.append(("resume", rng.random() < 0.5, now))
        else:
            link = rng.choice(links)
            seqs[link] += rng.choices(
                (1, 0, rng.randint(2, 6), rng.randint(65, 40_000)),
                weights=(70, 8, 15, 7))[0]
            now += rng.choice((0.0, 0.05, 0.5, 2.0, 2.0, 9.0))
            lqi = rng.choice((100.0, 99.0, 101.0, 40.0))
            rssi = rng.choice((-60.0, -61.5, -59.0, -85.0))
            if rng.random() < 0.1:
                lqi = rng.choice(HOSTILE)
            if rng.random() < 0.05:
                rssi = rng.choice(HOSTILE)
            events.append(("beacon", *link, seqs[link] & 0xFFFF, lqi, rssi,
                           rng.choice((17, 17, 17, 18, None)), now))
    return events


link_sets = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                     min_size=1, max_size=8, unique=True)
streams = st.builds(make_stream, st.randoms(use_true_random=False),
                    link_sets, st.integers(40, 300))


def fake_testbed():
    """Just enough of a testbed for pause/resume's probe accounting."""
    return types.SimpleNamespace(monitor=Monitor(), tracer=None,
                                 env=types.SimpleNamespace(now=0.0))


def assert_plain_python(finding):
    """Findings leave the columns as Python scalars, never numpy ones."""
    values = [finding.confidence, finding.node, finding.channel,
              *(finding.link or ()), *finding.evidence.values()]
    for value in values:
        for item in value if isinstance(value, list) else [value]:
            assert type(item) in (int, float, str, type(None)), (
                finding.kind, type(item))


def replay(events, *, eager):
    """Feed one stream; returns ``(monitor, findings JSON per poll)``.

    ``eager`` drains after every beacon; otherwise the monitor drains
    only where it does by itself."""
    testbed = fake_testbed()
    mon = OnlineMonitor(testbed, thresholds=THRESHOLDS, nominal_interval=2.0)
    polls = []
    for event in events:
        if event[0] == "beacon":
            _, origin, receiver, seq, lqi, rssi, channel, now = event
            mon.observe_beacon(receiver, origin, seq=seq, lqi=lqi,
                               rssi=rssi, channel=channel, now=now)
            if eager:
                mon._drain()
        elif event[0] == "poll":
            found = mon.poll(now=event[1])
            for finding in found:
                assert_plain_python(finding)
            polls.append([f.to_json() for f in found])
        elif event[0] == "pause":
            mon.pause()
        else:
            _, probes, now = event
            if probes:
                testbed.monitor.packets.append(PacketRecord(
                    time=now, sender=1, receiver=2, kind="ping", port=10,
                    size_bytes=32, delivered=True))
            mon.resume(now=now)
    return mon, polls


def replay_reference(events):
    listener = ref.Listener(THRESHOLDS)
    for event in events:
        if event[0] == "beacon":
            _, origin, receiver, seq, lqi, rssi, channel, now = event
            listener.observe_beacon(receiver, origin, seq=seq, lqi=lqi,
                                    rssi=rssi, channel=channel, now=now)
        elif event[0] == "pause":
            listener.pause()
        elif event[0] == "resume":
            _, probes, now = event
            listener.probed |= probes and listener.paused
            listener.resume(now)
    return listener


#: The monitor's column tables, by attribute name.
TABLES = ("_link", "_lqi", "_rssi", "_loss", "_loss_window", "_intervals",
          "_baseline_window")


def columns(mon):
    """Every per-link column of a (drained) monitor, by name."""
    mon._drain()
    out = {}
    for attr in TABLES:
        table = getattr(mon, attr)
        table = getattr(table, "cols", table)
        for name in table._fields:
            out[f"{attr}.{name}"] = getattr(table, name)[:mon.links_tracked]
    return out


def bits(x):
    """A float's exact bit pattern (so -0.0 != 0.0 and NaN == NaN)."""
    return struct.pack("<d", float(x))


def assert_same_columns(got, want):
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        # Byte view: bit-identical, not merely equal (-0.0, NaNs).
        assert np.array_equal(got[name].view(np.uint8),
                              want[name].view(np.uint8)), name


@given(streams, st.integers(2, 40))
@settings(max_examples=40, deadline=None)
def test_drain_cut_never_changes_state_or_findings(events, bound):
    saved = online.PENDING_BOUND
    online.PENDING_BOUND = bound
    try:
        eager, eager_polls = replay(events, eager=True)
        lazy, lazy_polls = replay(events, eager=False)
    finally:
        online.PENDING_BOUND = saved
    assert lazy_polls == eager_polls
    assert lazy.beacons_seen == eager.beacons_seen
    assert_same_columns(columns(lazy), columns(eager))


@given(streams)
@settings(max_examples=25, deadline=None)
def test_columns_equal_the_one_sample_reference(events):
    mon, _ = replay(events, eager=False)
    listener = replay_reference(events)
    cols = columns(mon)
    assert mon.links_tracked == len(listener.links)
    for (origin, receiver), link in listener.links.items():
        row = mon._rows[(origin, receiver)]

        def col(name):
            return cols[name][row]

        assert col("_link.origin") == origin
        assert col("_link.beacons") == link.beacons
        assert col("_link.last_seq") == link.last_seq
        assert bits(col("_link.last_heard")) == bits(link.last_heard)
        assert col("_link.channel") == (-1 if link.channel is None
                                        else link.channel)
        assert col("_link.baseline_set") == (link.baseline_interval
                                             is not None)
        if link.baseline_interval is not None:
            assert bits(col("_link.baseline_interval")) == bits(
                link.baseline_interval)
        for name, det in (("_lqi", link.lqi), ("_rssi", link.rssi)):
            for field in ("n", "ignored", "fired", "over", "under"):
                assert col(f"{name}.{field}") == getattr(det, field)
            for field in ("mean", "dev", "peak"):
                assert bits(col(f"{name}.{field}")) == bits(
                    getattr(det, field)), (name, field)
        assert col("_loss.n") == link.loss.n
        assert bits(col("_loss.stat")) == bits(link.loss.stat)
        for name, window in (("_loss_window", link.loss_window),
                             ("_intervals", link.intervals),
                             ("_baseline_window", link.baseline_window)):
            assert col(f"{name}.pushes") == window.pushes
            assert bits(col(f"{name}.sum")) == bits(window.sum)
            assert bits(col(f"{name}.sumsq")) == bits(window.sumsq)
            assert [bits(v) for v in col(f"{name}.buf")] == [
                bits(v) for v in window.buf]


hostile_series = st.lists(
    st.one_of(st.floats(allow_nan=True, allow_infinity=True, width=64),
              st.sampled_from([100.0, 99.0, 40.0, -1e308, 1e308])),
    max_size=120)


@given(hostile_series, st.sampled_from(["both", "up", "down"]),
       st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_detector_views_equal_the_one_sample_reference(values, direction,
                                                        capacity):
    """The public one-row views run the column kernels; on any series
    they match the loop recurrences exactly."""
    params = dict(alpha=0.2, k_on=4.0, k_off=2.0, hysteresis=3,
                  min_samples=4, sigma_floor=2.0, direction=direction)
    ewma, ewma_ref = EwmaDetector(**params), ref.Ewma(**params)
    cusum = CusumDetector(target=0.0, slack=0.15, threshold=2.0, cap=4.0)
    cusum_ref = ref.Cusum(target=0.0, slack=0.15, threshold=2.0, cap=4.0)
    window, window_ref = WindowStats(capacity), ref.Window(capacity)
    for v in values:
        ewma.update(v)
        ewma_ref.update(v)
        cusum.update(v)
        cusum_ref.update(v)
        window.push(v)
        window_ref.push(v)
        assert (ewma.n, ewma.ignored, ewma.fired) == (
            ewma_ref.n, ewma_ref.ignored, ewma_ref.fired)
        assert bits(ewma.mean) == bits(ewma_ref.mean)
        assert bits(ewma.dev) == bits(ewma_ref.dev)
        assert bits(ewma.shift) == bits(ewma_ref.peak if ewma_ref.fired
                                        else 0.0)
        assert bits(cusum.statistic) == bits(cusum_ref.stat)
        assert [bits(x) for x in window.values()] == [
            bits(x) for x in window_ref.values()]
        assert bits(window.mean) == bits(window_ref.mean)
        assert bits(window.variance) == bits(window_ref.variance)


def test_many_beacons_per_link_drain_in_rounds():
    """One link, one window: a 40-round drain equals 40 single drains,
    across a sequence wrap, a duplicate, gaps and a restart."""
    steps = [1] * 10 + [0, 3, 1, 1, 70_000] + [1] * 25
    seq, events = 0xFFFA, []
    for i, step in enumerate(steps):
        seq += step
        events.append(("beacon", 2, 1, seq & 0xFFFF, 100.0 - i % 3, -60.0,
                       17, 2.0 * (i + 1)))
    events.append(("poll", 2.0 * len(steps)))
    eager, eager_polls = replay(events, eager=True)
    lazy, lazy_polls = replay(events, eager=False)
    assert lazy_polls == eager_polls
    assert_same_columns(columns(lazy), columns(eager))
    assert int(columns(lazy)["_link.beacons"][0]) == len(steps)


def test_pending_stays_bounded_on_a_never_polled_monitor():
    """Ten simulated minutes attached, no poll: the queue drains itself
    at the bound, so memory stays O(links)."""
    testbed = thirty_node_field(seed=3)
    mon = OnlineMonitor(testbed).attach()
    deploy_liteview(testbed, warm_up=0.0)
    peak = 0
    for second in range(1, 601):
        testbed.run(until=float(second))
        peak = max(peak, len(mon._pending) // online._WIDTH)
    assert peak < online.PENDING_BOUND
    assert mon.polls == 0
    assert mon.beacons_seen > 10 * online.PENDING_BOUND
    # Everything not still queued has reached the link columns.
    drained = int(mon._link.beacons[:mon.links_tracked].sum())
    queued = len(mon._pending) // online._WIDTH
    assert drained + queued == mon.beacons_seen


def test_detach_removes_the_tap():
    testbed = build_chain(4, seed=3)
    mon = OnlineMonitor(testbed).attach()
    deploy_liteview(testbed, warm_up=0.0)
    testbed.run(until=10.0)
    assert mon.beacons_seen > 0
    mon.detach()
    assert testbed.monitor.beacon_taps == ()
    seen = mon.beacons_seen
    testbed.run(until=20.0)
    assert mon.beacons_seen == seen
    mon.attach()
    mon.detach()
    mon.attach()
    assert len(testbed.monitor.beacon_taps) == 1


def test_time_spent_detached_is_masked_not_read_as_faults():
    """Beacons nobody listened to are not losses and time spent detached
    is not silence; a node that died while detached is still found once
    it has missed enough beacons after the re-attach.  A twin monitor
    attached throughout is the control."""
    from repro.faults import FaultPlan, FaultSpec, install_faults
    from repro.workloads.scenarios import QUIET_PROPAGATION

    testbed = build_chain(4, spacing=60.0, seed=4,
                          propagation_kwargs=QUIET_PROPAGATION)
    mon = OnlineMonitor(testbed).attach()
    control = OnlineMonitor(testbed).attach()
    deploy_liteview(testbed, warm_up=0.0)
    install_faults(testbed, FaultPlan(name="t", specs=(
        FaultSpec(kind="node_crash", at=60.0, nodes=(4,)),)))
    testbed.run(until=30.0)
    assert mon.poll() == [] == control.poll()
    mon.detach()
    testbed.run(until=90.0)
    assert mon.poll() == []                   # evaluated as of t=30
    assert mon.last_polled_at == 30.0
    mon.attach()
    testbed.run(until=92.0)
    assert mon.poll() == []                   # gap and silence masked
    testbed.run(until=120.0)
    dead = [("dead_node", 4)]
    assert [(f.kind, f.node) for f in control.poll()] == dead
    assert [(f.kind, f.node) for f in mon.poll()] == dead
