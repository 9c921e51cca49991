"""Cache-invalidation and retention tests for the vectorized medium.

The medium caches the pairwise distance matrix, per-channel receiver
indexes and per-sender mean-path-loss rows between transmissions.  Every
mutation path — moving a node, attaching a new one, hopping channels,
pinning per-link shadowing — must invalidate the right cache, or the
simulation silently keeps using stale geometry.  These tests warm the
caches first and then mutate, so a missing invalidation hook fails them.
"""

import gc

import pytest

from repro.mac.frame import BROADCAST, Frame
from repro.radio import RadioConfig
from repro.radio.medium import _ActiveTransmission


def _collect(xcvr):
    arrivals = []
    xcvr.set_receive_handler(arrivals.append)
    return arrivals


def _send_one(world, xcvr, payload=b"hello"):
    yield world.medium.transmit(
        xcvr, Frame(src=xcvr.node_id, dst=BROADCAST, payload=payload)
    )


def test_position_move_invalidates_distance_cache(quiet_world):
    a = quiet_world.medium.attach(1, (0.0, 0.0))
    b = quiet_world.medium.attach(2, (5.0, 0.0))
    arrivals = _collect(b)
    assert quiet_world.medium.distance(1, 2) == pytest.approx(5.0)  # warm

    b.position = (2000.0, 0.0)
    assert quiet_world.medium.distance(1, 2) == pytest.approx(2000.0)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert arrivals == []  # moved out of range, not heard via stale matrix


def test_attach_invalidates_topology_cache(quiet_world):
    a = quiet_world.medium.attach(1, (0.0, 0.0))
    quiet_world.medium.attach(2, (5.0, 0.0))
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()  # warm the matrix with the two-node topology

    c = quiet_world.medium.attach(3, (0.0, 5.0))
    arrivals = _collect(c)
    assert quiet_world.medium.distance(1, 3) == pytest.approx(5.0)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert len(arrivals) == 1


def test_channel_hop_invalidates_channel_index(quiet_world):
    a = quiet_world.medium.attach(1, (0.0, 0.0), RadioConfig(channel=11))
    b = quiet_world.medium.attach(2, (5.0, 0.0), RadioConfig(channel=11))
    arrivals = _collect(b)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert len(arrivals) == 1  # same channel, warm index

    b.config.set_channel(26)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert len(arrivals) == 1  # hopped away: silent

    b.config.set_channel(11)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert len(arrivals) == 2  # hopped back: heard again


def test_pinned_shadowing_invalidates_mean_loss_row(quiet_world):
    a = quiet_world.medium.attach(1, (0.0, 0.0))
    b = quiet_world.medium.attach(2, (5.0, 0.0))
    arrivals = _collect(b)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    before = arrivals[-1].rx_power_dbm  # warm mean-loss row

    quiet_world.propagation.set_link_shadowing_db(1, 2, 40.0)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    after = arrivals[-1].rx_power_dbm
    assert before - after == pytest.approx(40.0, abs=1e-9)


def test_completed_transmissions_release_overlap_links(quiet_world):
    """A long broadcast storm must not chain transmissions in memory.

    Each in-flight transmission records its overlap partners; once it
    completes those links must be dropped, or a busy channel retains
    every transmission ever made via ``overlapping`` chains.
    """
    xcvrs = [
        quiet_world.medium.attach(i, (float(i), 0.0)) for i in range(1, 11)
    ]

    def storm(xcvr):
        for _ in range(30):
            yield quiet_world.medium.transmit(
                xcvr,
                Frame(src=xcvr.node_id, dst=BROADCAST, payload=b"0" * 20),
            )
            yield quiet_world.env.timeout(0.001)

    for xcvr in xcvrs:
        quiet_world.env.process(storm(xcvr))
    quiet_world.env.run()

    gc.collect()
    live = [obj for obj in gc.get_objects()
            if isinstance(obj, _ActiveTransmission)]
    # Of the 300 transmissions made, only the final not-yet-pruned
    # generation may survive, and none may still hold overlap links.
    assert len(live) <= len(xcvrs)
    assert all(not tx.overlapping and not tx.overlap_senders for tx in live)


# -- per-node epochs (time-varying geometry) --------------------------------
#
# A move must invalidate exactly the senders whose in-range membership
# could have changed: everyone within the range bound of the mover's old
# or new position.  Object identity of the cached _CandidateIndex is the
# strongest observable — "is" proves the far cluster's caches were never
# touched, not merely rebuilt to equal contents.

FAR = 500_000.0  # way beyond any conservative range bound


def _two_clusters(m):
    a1 = m.attach(1, (0.0, 0.0))
    a2 = m.attach(2, (5.0, 0.0))
    b1 = m.attach(3, (FAR, 0.0))
    b2 = m.attach(4, (FAR + 5.0, 0.0))
    return a1, a2, b1, b2


def test_unrelated_move_keeps_far_senders_caches(quiet_world):
    m = quiet_world.medium
    a1, a2, b1, _ = _two_clusters(m)
    ch = a1.config.channel
    idx_a = m._cand_index(1, ch)
    idx_b = m._cand_index(3, ch)
    row_b = m._mean_loss_row(3, idx_b)
    rebuilds = m._gauge_idx_rebuilds.value
    rows = m._gauge_rows_rebuilt.value

    a2.position = (6.0, 0.0)  # drifts inside cluster A only

    assert m._cand_index(3, ch) is idx_b          # far sender: untouched
    assert m._mean_loss_row(3, idx_b)[0] is row_b[0]
    assert m._cand_index(1, ch) is not idx_a      # neighborhood: rebuilt
    assert m._gauge_idx_rebuilds.value == rebuilds + 1
    assert m._gauge_rows_rebuilt.value == rows    # no row recomputed


def test_mover_sees_its_own_move(quiet_world):
    """The mover is always inside its own new neighborhood, so its own
    candidate index rebuilds even when nobody else is in range."""
    m = quiet_world.medium
    lone = m.attach(1, (0.0, 0.0))
    m.attach(2, (FAR, 0.0))
    ch = lone.config.channel
    idx = m._cand_index(1, ch)

    lone.position = (10.0, 0.0)
    assert m._cand_index(1, ch) is not idx


def test_cold_move_falls_back_to_global_epoch(quiet_world):
    """Without a warm grid there is no cheap neighborhood test: the move
    must bump the global epoch (correct, and free — no cache is warm)."""
    m = quiet_world.medium
    a = m.attach(1, (0.0, 0.0))
    geom = m._geom_epoch
    a.position = (5.0, 0.0)
    assert m._geom_epoch == geom + 1


def test_reposition_counter_is_lazy(quiet_world):
    """``medium.repositions`` must stay out of counter snapshots until a
    node actually moves (golden fixtures snapshot all live counters)."""
    m = quiet_world.medium
    a = m.attach(1, (0.0, 0.0))
    assert "medium.repositions" not in m.monitor.counters
    a.position = (1.0, 0.0)
    a.position = (2.0, 0.0)
    assert m.monitor.counter("medium.repositions") == 2
