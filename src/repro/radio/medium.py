"""The shared radio medium: who hears whom, and how well.

:class:`RadioMedium` is the single point through which every frame in the
simulated testbed flows.  For each transmission it:

1. draws the per-receiver received power from the propagation model
   (static directed shadowing gives stable, possibly asymmetric links);
2. tracks concurrent transmissions so interference and half-duplex
   conflicts produce collisions, and so CCA (carrier sense) works;
3. at end-of-frame, converts SINR to a reception probability via the
   802.15.4 link model and delivers the frame — intact, corrupted (the
   stack's CRC checker then discards it), or not at all;
4. stamps each delivery with the receiver-side observables LiteView
   collects: RSSI register reading and LQI; and
5. logs every transmission to the monitor (Figure 7 counts these).

Hot-path design
---------------
Every transmission used to walk all attached transceivers and make a
per-receiver chain of scalar propagation and RNG calls; at 100 nodes that
is the whole simulation's wall clock, and a dense all-pairs distance
matrix put a hard O(N²) memory floor under larger fields.  The medium now
keeps

* a :class:`~repro.radio.spatial.SpatialGrid` over node positions, cell
  size = the conservative maximum radio range, maintained incrementally
  (attach inserts, a ``Transceiver.position`` assignment moves one
  bucket entry);
* a per-(sender, channel) *candidate index* — the id-sorted in-range
  receivers, found by one grid query — so per-transmission work is
  O(in-range contenders), not O(N), and no pairwise matrix exists at
  all (rows are materialized per sender, lazily);
* a per-(sender, channel) mean-loss row — deterministic path loss plus
  static shadowing — invalidated by the propagation model's shadowing
  epoch, so pinned links take effect;

Time-varying geometry
---------------------
Invalidation after a move is *per node*, not global.  A
``Transceiver.position`` assignment moves one grid bucket entry and
bumps the *neighborhood epoch* of exactly the nodes whose candidate
membership the move could have changed: those within the conservative
range bound of the old **or** the new position (two grid queries, so the
work is O(local density), independent of the total node count — the
contract ``benchmarks/bench_mobility.py`` holds).  A sender outside both
disks keeps its cached candidate index *and* its cached mean-loss row;
an affected sender rebuilds both on its next transmission.  A row
rebuild whose shadowing links were all drawn before consumes no RNG
(see :meth:`LogDistancePropagation.shadowing_row`), so per-node
invalidation cannot shift any stream — continuous mobility stays
byte-identical to a dense all-members scan.  The
``medium.repositions`` counter and the ``medium.idx.rebuilds`` /
``medium.rows.rebuilt`` gauges (shell: ``stats medium.``) account for
the moves and the rebuild fallout they cause.

and draws fading, reception, RSSI, and LQI as *batched* RNG calls.  A
numpy Generator fills an array from the same bitstream as repeated scalar
draws, and the batches run in the same sorted-id order the scalar loops
used, so seeded runs stay bit-for-bit identical — the determinism tests
hold golden counters captured before this rewrite.

Pruning vs determinism
----------------------
The spatial bound must never change *what happens*, only skip work that
cannot matter.  The query radius is the distance at which deterministic
path loss alone consumes the whole link budget ``max attached tx power −
SENSITIVITY_DBM`` **plus** ``RANGE_MARGIN_SIGMAS`` standard deviations of
(shadowing + fading) **plus** any pinned negative loss adjustment
(:attr:`LogDistancePropagation.pinned_floor_db`).  A receiver outside
that radius would fail the sensitivity check with overwhelming
probability, drawing nothing from the reception/corruption/PHY streams —
exactly as a dense scan would classify it ``out of range``.  Candidate
sets are enumerated sorted by id, so every stream that is consumed is
consumed in the historical order.  The medium has no dense mode: the
parity tests in ``tests/integration/test_spatial_parity.py`` build a
test-only oracle that pins the range bound past every attached node, so
each grid query returns the whole channel roster — exactly the dense
enumeration — and hold the pruned runs byte-identical to it.
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

from repro.errors import RadioError
from repro.radio.cc2420 import (
    CCA_THRESHOLD_DBM,
    NOISE_FLOOR_DBM,
    SENSITIVITY_DBM,
    RadioConfig,
)
from repro.radio.lqi import LqiModel
from repro.radio.modulation import packet_reception_ratio
from repro.radio.propagation import LogDistancePropagation
from repro.radio.rssi import RssiModel
from repro.radio.spatial import SpatialGrid
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.monitor import Monitor, PacketRecord
from repro.sim.rng import RngRegistry
from repro.units import dbm_sum

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frame import Frame

__all__ = ["FrameArrival", "Transceiver", "RadioMedium",
           "CAPTURE_THRESHOLD_DB", "RANGE_MARGIN_SIGMAS"]

#: Minimum SINR for decoding *in the presence of an overlapping frame*.
#: The analytic PRR curve assumes Gaussian noise; a co-channel 802.15.4
#: frame is not Gaussian, and real correlators cannot separate two
#: overlapping signals of comparable strength.  A ~4 dB capture margin is
#: the standard fix (cf. the capture-effect literature for CC2420).
CAPTURE_THRESHOLD_DB = 4.0

#: How many standard deviations of (shadowing + fading) the spatial-index
#: range bound adds to the deterministic link budget.  8σ puts the
#: probability that a pruned receiver would actually have passed the
#: sensitivity check around 1e-15 per draw — zero in any feasible run —
#: while keeping the bound tight enough that a 1k-node district field
#: prunes >90% of receivers per transmission.
RANGE_MARGIN_SIGMAS = 8.0

#: ``dbm_sum(NOISE_FLOOR_DBM)`` with no interferers round-trips to exactly
#: the noise floor; precomputing it keeps the no-interference SINR
#: identical to the historical per-receiver call while skipping it.
_NOISE_ONLY_DBM = dbm_sum(NOISE_FLOOR_DBM)

# Per-receiver outcome codes used inside RadioMedium._complete.
_SKIP, _OFF, _RANGE, _HD, _LOST, _CORRUPT, _OK = range(7)


@_t.final
class FrameArrival:
    """A frame as seen by one receiver, with PHY observables attached."""

    __slots__ = (
        "frame", "payload", "sender", "receiver", "channel",
        "rx_power_dbm", "sinr_db", "rssi", "lqi", "crc_ok", "time",
    )

    def __init__(self, frame: "Frame", payload: bytes, sender: int,
                 receiver: int, channel: int, rx_power_dbm: float,
                 sinr_db: float, rssi: int, lqi: int, crc_ok: bool,
                 time: float) -> None:
        self.frame = frame
        self.payload = payload          # possibly corrupted copy
        self.sender = sender
        self.receiver = receiver
        self.channel = channel
        self.rx_power_dbm = rx_power_dbm
        self.sinr_db = sinr_db
        self.rssi = rssi                # RSSI register reading
        self.lqi = lqi                  # LQI correlator value
        self.crc_ok = crc_ok            # whether the payload survived
        self.time = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameArrival(sender={self.sender}, receiver={self.receiver}, "
            f"channel={self.channel}, rssi={self.rssi}, lqi={self.lqi}, "
            f"crc_ok={self.crc_ok}, time={self.time})"
        )


class Transceiver:
    """One node's radio front end, attached to the shared medium."""

    __slots__ = ("medium", "node_id", "_position", "config", "enabled",
                 "_receive_handler", "_transmitting_until")

    def __init__(self, medium: "RadioMedium", node_id: int,
                 position: tuple[float, float], config: RadioConfig):
        self.medium = medium
        self.node_id = node_id
        self._position = (float(position[0]), float(position[1]))
        self.config = config
        #: Radio on/off; an off radio neither receives nor carrier-senses.
        self.enabled = True
        self._receive_handler: _t.Callable[[FrameArrival], None] | None = None
        self._transmitting_until = -1.0

    @property
    def position(self) -> tuple[float, float]:
        return self._position

    @position.setter
    def position(self, value: tuple[float, float]) -> None:
        self._position = (float(value[0]), float(value[1]))
        # Moving a node changes only the pairwise distances through it;
        # the medium updates the affected spatial-index buckets and
        # invalidates just the neighborhoods of the old and new position.
        self.medium._reposition(self.node_id, self._position)

    def set_receive_handler(
        self, handler: _t.Callable[[FrameArrival], None]
    ) -> None:
        """Install the MAC-layer delivery callback."""
        self._receive_handler = handler

    @property
    def is_transmitting(self) -> bool:
        """True while a frame of ours is on the air."""
        return self._transmitting_until > self.medium.env.now

    def deliver(self, arrival: FrameArrival) -> None:
        """Hand an arrival to the MAC (no-op if the radio is off)."""
        if self.enabled and self._receive_handler is not None:
            self._receive_handler(arrival)


class _CandidateIndex:
    """Snapshot of one sender's receiver candidates on one channel.

    ``ids`` is sorted ascending (the medium's draw-order contract),
    includes the sender, and holds only nodes within the conservative
    maximum radio range of the sender.  ``positions`` carries the
    members' coordinates so loss rows materialize without any global
    matrix.
    """

    __slots__ = ("channel", "token", "ids", "id_arr", "offset_of",
                 "xcvrs", "positions")

    def __init__(self, channel: int, token: tuple, ids: list[int],
                 xcvrs: list[Transceiver], positions: np.ndarray) -> None:
        self.channel = channel
        self.token = token
        self.ids = ids
        self.id_arr = np.array(ids, dtype=np.int64)
        self.offset_of = {nid: off for off, nid in enumerate(ids)}
        self.xcvrs = xcvrs
        self.positions = positions


class _ActiveTransmission:
    """Bookkeeping for one in-flight frame."""

    __slots__ = ("sender", "channel", "tx_power_dbm", "start", "end",
                 "index", "rx_list", "overlapping", "overlap_senders",
                 "pos", "gate_m")

    def __init__(self, sender: int, channel: int, tx_power_dbm: float,
                 start: float, end: float, index: _CandidateIndex,
                 rx_list: list[float], pos: tuple[float, float],
                 gate_m: float) -> None:
        self.sender = sender
        self.channel = channel
        self.tx_power_dbm = tx_power_dbm
        self.start = start
        self.end = end
        #: Sender position and candidate radius at start-of-frame.  Two
        #: transmissions farther apart than the sum of their radii have
        #: disjoint candidate disks, so neither can interfere with (or
        #: half-duplex-mute) any receiver of the other — the overlap
        #: bookkeeping skips such pairs entirely.
        self.pos = pos
        self.gate_m = gate_m
        #: Candidate membership and received powers, snapshotted at
        #: start-of-frame (a receiver hopping away mid-frame still gets
        #: the frame; one hopping in never does — as before).  Kept as a
        #: plain list: the hot paths index it scalar-wise, and numpy
        #: round-trips on ~40-element arrays dominate small-frame cost.
        self.index = index
        self.rx_list = rx_list
        #: Same-channel transmissions whose airtime overlaps ours
        #: (interference), and the senders of *any* overlapping
        #: transmission (half-duplex: a transmitting radio cannot hear).
        self.overlapping: list["_ActiveTransmission"] = []
        self.overlap_senders: set[int] = set()

    def power_at(self, rid: int) -> float | None:
        """Received power drawn for ``rid``, or None if it was not a
        candidate at start-of-frame (or is the sender itself)."""
        if rid == self.sender:
            return None
        off = self.index.offset_of.get(rid)
        if off is None:
            return None
        return self.rx_list[off]


class RadioMedium:
    """The shared wireless channel for one simulated testbed."""

    def __init__(
        self,
        env: Environment,
        rng: RngRegistry,
        monitor: Monitor,
        propagation: LogDistancePropagation,
        *,
        corrupt_delivery_fraction: float = 0.3,
    ) -> None:
        self.env = env
        self.monitor = monitor
        self.tracer = env.tracer
        self.propagation = propagation
        self.rssi_model = RssiModel(rng)
        self.lqi_model = LqiModel(rng)
        self._loss_rng = rng.stream("medium.reception")
        self._corrupt_rng = rng.stream("medium.corruption")
        self._xcvrs: dict[int, Transceiver] = {}
        self._active: list[_ActiveTransmission] = []
        #: Fault-injection hooks (:class:`repro.faults.FaultInjector`),
        #: attached by ``install_faults``.  ``None`` — the default — keeps
        #: every hot-path check to one attribute read.
        self.faults: "_t.Any | None" = None
        #: Fraction of failed receptions delivered as corrupted bytes (so
        #: the stack's CRC checker sees real work) rather than silence.
        self.corrupt_delivery_fraction = float(corrupt_delivery_fraction)
        #: Cumulative receiver-candidate accounting: how many same-channel
        #: receivers were actually evaluated vs skipped by the spatial
        #: bound.  Mirrored into the ``medium.candidates.considered`` /
        #: ``medium.candidates.pruned`` gauges (gauges, not counters, so
        #: golden counter fixtures are untouched by pruning bookkeeping).
        self.candidates_considered = 0
        self.candidates_pruned = 0
        self._gauge_considered = monitor.registry.gauge(
            "medium.candidates.considered")
        self._gauge_pruned = monitor.registry.gauge(
            "medium.candidates.pruned")
        #: Per-move invalidation fallout: how many candidate indexes and
        #: mean-loss rows were actually rebuilt.  Gauges, not counters,
        #: so golden counter fixtures are untouched by the bookkeeping
        #: (the same choice the candidate gauges made).
        self._gauge_idx_rebuilds = monitor.registry.gauge(
            "medium.idx.rebuilds")
        self._gauge_rows_rebuilt = monitor.registry.gauge(
            "medium.rows.rebuilt")
        # Lazily bound handles for the per-receiver counters (created on
        # first increment so untouched counters stay out of snapshots).
        self._c_halfduplex = None
        self._c_interfered = None
        self._c_lost = None
        self._c_corrupt = None
        self._c_tx = None
        self._c_repositions = None
        self._h_lqi = None
        # -- cached vectorized state (see module docstring) -------------
        #: Global geometry epoch: bumped on attach and on any move the
        #: grid cannot localize (grid not built yet).  The *localized*
        #: path bumps only the per-node entries in ``_nbr_epoch``.
        self._geom_epoch = 0
        #: Per-node neighborhood epoch: bumped when a move could have
        #: changed this node's in-range candidate membership (the mover
        #: entered or left the node's conservative range disk).  Absent
        #: means 0 — nodes nothing ever moved near pay one dict miss.
        self._nbr_epoch: dict[int, int] = {}
        self._chan_version = 0       # bumped on any channel change
        self._power_version = 0      # bumped on any PA-level change
        self._member_epoch = 0       # bumped on attach only
        self._grid: SpatialGrid | None = None
        self._range_m = 0.0
        self._range_version = 0
        self._range_key: tuple | None = None
        self._power_key: tuple | None = None
        self._max_tx_dbm = 0.0
        self._idx_cache: dict[tuple[int, int], _CandidateIndex] = {}
        self._pop_cache: dict[int, tuple[tuple[int, int], int]] = {}
        self._row_cache: dict[
            tuple[int, int],
            tuple[_CandidateIndex, int, np.ndarray, np.ndarray],
        ] = {}

    # -- membership --------------------------------------------------------

    def attach(self, node_id: int, position: tuple[float, float],
               config: RadioConfig | None = None) -> Transceiver:
        """Register a node's radio at ``position``."""
        if node_id in self._xcvrs:
            raise RadioError(f"node {node_id} already attached to the medium")
        xcvr = Transceiver(self, node_id, position, config or RadioConfig())
        self._xcvrs[node_id] = xcvr
        xcvr.config._listener = self._invalidate_channels
        xcvr.config._power_listener = self._invalidate_power
        self._member_epoch += 1
        self._geom_epoch += 1
        if self._grid is not None:
            # Keep the grid warm: an attach touches one bucket.
            self._grid.insert(node_id, xcvr._position)
        return xcvr

    def transceiver(self, node_id: int) -> Transceiver:
        """Look up an attached transceiver by node id."""
        try:
            return self._xcvrs[node_id]
        except KeyError:
            raise RadioError(f"node {node_id} not attached") from None

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two attached nodes."""
        pa = self._xcvrs[a]._position
        pb = self._xcvrs[b]._position
        dx = pa[0] - pb[0]
        dy = pa[1] - pb[1]
        return math.sqrt(dx * dx + dy * dy)

    def node_ids(self) -> list[int]:
        """Sorted ids of all attached nodes."""
        return sorted(self._xcvrs)

    # -- cache maintenance -------------------------------------------------

    def _reposition(self, node_id: int, position: tuple[float, float]) -> None:
        """A node moved: update its spatial-index bucket and invalidate
        only the neighborhoods the move could have changed.

        The candidate membership of a sender ``S`` changes only if the
        mover crossed ``S``'s conservative range disk — equivalently, if
        ``S`` sits within the range bound of the mover's old *or* new
        position (range adjacency is symmetric).  Two grid queries find
        exactly those senders; everyone else keeps their cached index
        and mean-loss row.  Without a warm grid (nothing has transmitted
        yet, or a range change just dropped it) there is no cheap
        neighborhood test, so the move falls back to the global epoch —
        correct, and free, because no cache is warm in that state.
        """
        c = self._c_repositions
        if c is None:
            c = self._c_repositions = self.monitor.counter_obj(
                "medium.repositions")
        c.value += 1
        grid = self._grid
        if grid is None or node_id not in grid or self._range_m <= 0.0:
            self._geom_epoch += 1
            return
        old = grid.position(node_id)
        grid.move(node_id, position)
        nbr = self._nbr_epoch
        radius = self._range_m
        affected = grid.within(old, radius)
        for nid in affected:
            nbr[nid] = nbr.get(nid, 0) + 1
        seen = set(affected)
        for nid in grid.within(position, radius):
            if nid not in seen:
                nbr[nid] = nbr.get(nid, 0) + 1

    def _invalidate_channels(self) -> None:
        self._chan_version += 1

    def _invalidate_power(self) -> None:
        self._power_version += 1

    @property
    def max_range_m(self) -> float:
        """The conservative maximum radio range (the spatial-index query
        radius): beyond it no attached radio can detect any frame."""
        self._ensure_range()
        return self._range_m

    def _ensure_range(self) -> None:
        """Recompute the range bound if power levels or the propagation
        model's pinned floor changed (lazy shadowing draws do not — the
        statistical margin covers them)."""
        pkey = (self._member_epoch, self._power_version)
        if pkey != self._power_key:
            self._power_key = pkey
            self._max_tx_dbm = max(
                (x.config._tx_power_dbm for x in self._xcvrs.values()),
                default=0.0,
            )
        prop = self.propagation
        rkey = (self._max_tx_dbm, prop.pinned_floor_db,
                prop.shadowing_sigma_db, prop.fading_sigma_db)
        if rkey != self._range_key:
            self._range_key = rkey
            budget = (
                self._max_tx_dbm - SENSITIVITY_DBM
                + RANGE_MARGIN_SIGMAS * (prop.shadowing_sigma_db
                                         + prop.fading_sigma_db)
                - min(0.0, prop.pinned_floor_db)
            )
            new_range = prop.range_for_budget_m(budget)
            if new_range != self._range_m:
                self._range_m = new_range
                self._range_version += 1
                self._grid = None  # cell size is stale

    def _ensure_grid(self) -> SpatialGrid:
        grid = self._grid
        if grid is None:
            grid = SpatialGrid(self._range_m)
            for nid, xcvr in self._xcvrs.items():
                grid.insert(nid, xcvr._position)
            self._grid = grid
        return grid

    def _cand_index(self, sender_id: int, channel: int) -> _CandidateIndex:
        """The receiver-candidate snapshot for one sender on one channel."""
        self._ensure_range()
        # Per-node invalidation: the token moves only when *this* sender's
        # neighborhood epoch does (a node crossed its range disk), never
        # on an unrelated move across the field.
        token = (self._geom_epoch, self._nbr_epoch.get(sender_id, 0),
                 self._chan_version, self._range_version)
        key = (sender_id, channel)
        idx = self._idx_cache.get(key)
        if idx is not None and idx.token == token:
            return idx
        xcvrs_by_id = self._xcvrs
        near = self._ensure_grid().within(xcvrs_by_id[sender_id]._position,
                                          self._range_m)
        members = [nid for nid in near
                   if xcvrs_by_id[nid].config.channel == channel]
        xcvrs = [xcvrs_by_id[nid] for nid in members]
        if members:
            positions = np.array([x._position for x in xcvrs], dtype=float)
        else:
            positions = np.zeros((0, 2))
        idx = _CandidateIndex(channel, token, members, xcvrs, positions)
        self._idx_cache[key] = idx
        self._gauge_idx_rebuilds.value += 1
        return idx

    def _channel_population(self, channel: int) -> int:
        """How many attached radios sit on ``channel`` right now (the
        denominator of the pruning ratio)."""
        token = (self._member_epoch, self._chan_version)
        cached = self._pop_cache.get(channel)
        if cached is not None and cached[0] == token:
            return cached[1]
        n = sum(1 for x in self._xcvrs.values()
                if x.config.channel == channel)
        self._pop_cache[channel] = (token, n)
        return n

    def _mean_loss_row(
        self, src: int, idx: _CandidateIndex
    ) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic loss + static shadowing from ``src`` to every
        other candidate, plus those candidates' offsets in ``idx``.

        Cached per (sender, channel); the shadowing epoch in the key means
        a pinned or newly drawn link anywhere rebuilds the row (a rebuild
        with no missing links consumes no RNG, so caching cannot shift the
        stream).  Distances materialize from the index's own positions —
        one small vector per sender, never an all-pairs matrix.
        """
        prop = self.propagation
        cached = self._row_cache.get((src, idx.channel))
        if (cached is not None and cached[0] is idx
                and cached[1] == prop.shadowing_epoch):
            return cached[2], cached[3]
        src_off = idx.offset_of[src]
        sub_offsets = np.delete(np.arange(len(idx.ids), dtype=np.intp),
                                src_off)
        sub_ids = np.delete(idx.id_arr, src_off)
        deltas = idx.positions[sub_offsets] - idx.positions[src_off]
        dists = np.sqrt((deltas ** 2).sum(axis=-1))
        # Same association order as the scalar path: (det + shadow),
        # fading added later by the caller.
        mean = (prop.deterministic_loss_db(dists)
                + prop.shadowing_row(src, sub_ids))
        self._row_cache[(src, idx.channel)] = (
            idx, prop.shadowing_epoch, mean, sub_offsets
        )
        self._gauge_rows_rebuilt.value += 1
        return mean, sub_offsets

    # -- carrier sense ---------------------------------------------------------

    def cca_busy(self, xcvr: Transceiver) -> bool:
        """Clear-channel assessment: is detectable energy on the air?"""
        now = self.env.now
        if xcvr._transmitting_until > now:
            return True
        self._prune(now)
        rid = xcvr.node_id
        channel = xcvr.config.channel
        faults = self.faults
        if (faults is not None
                and NOISE_FLOOR_DBM + faults.noise_offset_dbm(channel)
                >= CCA_THRESHOLD_DBM):
            # An injected interference burst raises the energy-detect
            # reading above the CCA threshold: the channel reads busy
            # even with no frame on the air (congestion as CSMA sees it).
            return True
        for tx in self._active:
            if tx.channel != channel:
                continue
            power = tx.power_at(rid)
            if power is not None and power >= CCA_THRESHOLD_DBM:
                return True
        return False

    def ambient_power_dbm(self, xcvr: Transceiver) -> float:
        """Instantaneous RF energy at a node on its current channel.

        This is what the CC2420's RSSI register reports when no frame is
        being received: the noise floor plus whatever concurrent
        transmissions leak in.  The channel-scan utility samples it per
        channel to find quiet spectrum.
        """
        now = self.env.now
        self._prune(now)
        rid = xcvr.node_id
        channel = xcvr.config.channel
        powers = []
        for tx in self._active:
            if tx.channel != channel or tx.sender == rid:
                continue
            power = tx.power_at(rid)
            if power is None:
                # The sampler was not a candidate at start-of-frame.  If
                # the sender is beyond the spatial bound, its leakage sits
                # ≥ the stochastic margin below the sensitivity floor —
                # inaudible, and skipping it keeps the shadowing stream
                # untouched.  Otherwise the sampler hopped onto this
                # channel after the frame started; compute its leakage on
                # the fly.
                dist = self.distance(tx.sender, rid)
                if dist > self.max_range_m:
                    continue
                power = self.propagation.mean_received_power_dbm(
                    tx.tx_power_dbm, tx.sender, rid, dist)
            powers.append(power)
        floor = NOISE_FLOOR_DBM
        faults = self.faults
        if faults is not None:
            floor += faults.noise_offset_dbm(channel)
        return dbm_sum(floor, *powers)

    # -- transmission ------------------------------------------------------------

    def transmit(self, xcvr: Transceiver, frame: "Frame") -> Event:
        """Put ``frame`` on the air; the returned event fires at end-of-air.

        Reception outcomes for every candidate receiver are evaluated at
        end-of-frame so that interference from transmissions starting
        mid-frame is accounted for.
        """
        if not xcvr.enabled:
            raise RadioError(f"node {xcvr.node_id}: radio is off")
        now = self.env.now
        self._prune(now)
        sender_id = xcvr.node_id
        channel = xcvr.config.channel
        tx_power = xcvr.config._tx_power_dbm
        airtime = frame.airtime

        # Received power at every in-range same-channel transceiver, one
        # vector op per stochastic term, draws in sorted-id order.
        idx = self._cand_index(sender_id, channel)
        mean, sub_offsets = self._mean_loss_row(sender_id, idx)
        count = len(sub_offsets)
        pruned = self._channel_population(channel) - 1 - count
        self.candidates_considered += count
        self.candidates_pruned += pruned
        self._gauge_considered.value += count
        self._gauge_pruned.value += pruned
        prop = self.propagation
        if count and prop.fading_sigma_db > 0:
            loss = mean + prop.fading_row(count)
        else:
            loss = mean
        # sub_offsets is always arange-minus-sender, so inserting the
        # sender's -inf at its own offset rebuilds the full id-ordered
        # row without a numpy scatter (values bit-identical).
        rx_list: list[float] = (tx_power - loss).tolist() if count else []
        rx_list.insert(idx.offset_of[sender_id], float("-inf"))

        gate_m = self._range_m
        tx = _ActiveTransmission(
            sender_id, channel, tx_power, now, now + airtime, idx, rx_list,
            xcvr._position, gate_m
        )
        sx, sy = tx.pos
        for other in self._active:
            # Disjoint candidate disks: no receiver of either frame can
            # see the other, so the cross-links would never be consulted.
            lim = gate_m + other.gate_m
            dx = sx - other.pos[0]
            dy = sy - other.pos[1]
            if dx * dx + dy * dy > lim * lim:
                continue
            other.overlap_senders.add(sender_id)
            tx.overlap_senders.add(other.sender)
            if other.channel == channel:
                other.overlapping.append(tx)
                tx.overlapping.append(other)
        self._active.append(tx)
        xcvr._transmitting_until = tx.end

        done = self.env.timeout(airtime)
        done.add_callback(lambda _ev: self._complete(xcvr, frame, tx))
        return done

    # -- internals ---------------------------------------------------------------

    def _prune(self, now: float) -> None:
        active = self._active
        for tx in active:
            if tx.end <= now:
                break
        else:
            return
        keep = []
        for tx in active:
            if tx.end > now:
                keep.append(tx)
            elif tx.end < now:
                # Its completion callback has run; drop the cross-links
                # so finished transmissions don't keep their overlap
                # peers (and transitively the whole busy period) alive.
                tx.overlapping.clear()
                tx.overlap_senders.clear()
        self._active = keep

    def _complete(self, sender: Transceiver, frame: "Frame",
                  tx: _ActiveTransmission) -> None:
        """End-of-frame: decide every receiver's outcome and deliver.

        When tracing is enabled, the outcome *at the frame's addressed
        destination* is recorded — including the drop reason when the
        frame dies in the air, which is the "where did my packet go"
        answer the lifecycle trace exists to give.  Broadcast frames
        record only actual receptions (a per-absent-listener drop event
        for every distant node would bury the timeline).

        The walk over receivers is split into RNG-ordered passes so every
        stream is consumed in the same sorted-id order as the historical
        scalar loop, while the draws themselves are batched:

        1. classify each receiver (off / out of range / half-duplex /
           candidate) and compute SINR + capture — no RNG;
        2. one batched reception draw over the captured candidates;
        3. scalar corruption draws for the failures (interleaved
           random()/integers() calls cannot batch);
        4. batched RSSI and LQI draws over the deliveries;
        5. emit counters, trace events, and deliveries in id order.
        """
        idx = tx.index
        ids = idx.ids
        xcvrs = idx.xcvrs
        rx_list = tx.rx_list
        member_count = len(ids)
        sender_id = tx.sender
        overlapping = tx.overlapping
        overlap_senders = tx.overlap_senders
        frame_bytes = frame.size_bytes

        # Fault-injection overlay: an interference burst raises this
        # channel's noise floor for the whole frame; a packet_corrupt
        # window flips bits in otherwise-successful deliveries.  Both
        # draw nothing from the medium's own streams, so an inert
        # injector (or none) leaves the run bit-for-bit unchanged.
        faults = self.faults
        noise_floor = NOISE_FLOOR_DBM
        noise_only = _NOISE_ONLY_DBM
        fault_corrupt_on = False
        if faults is not None:
            extra_noise = faults.noise_offset_dbm(tx.channel)
            if extra_noise:
                noise_floor = NOISE_FLOOR_DBM + extra_noise
                noise_only = dbm_sum(noise_floor)
            fault_corrupt_on = faults.corrupt_active

        # Pass 1: classification (no RNG).  One fused walk: the
        # sensitivity test runs inline (``rx < threshold`` is the exact
        # complement of the historical ``rx >= threshold`` — received
        # powers are never NaN) and zip replaces four list indexings per
        # candidate; this loop runs once per member per transmission.
        outcome = [_SKIP] * member_count
        cand_offs: list[int] = []
        interfered = [False] * member_count
        was_captured = [False] * member_count
        sinr_of = [0.0] * member_count
        off = -1
        for rid, rx_xcvr, rx_power in zip(ids, xcvrs, rx_list):
            off += 1
            if rid == sender_id:
                continue
            if not rx_xcvr.enabled:
                outcome[off] = _OFF
                continue
            if rx_power < SENSITIVITY_DBM:
                outcome[off] = _RANGE
                continue
            # Half-duplex: a node that transmitted during our airtime
            # cannot have received us.
            if overlap_senders and rid in overlap_senders:
                outcome[off] = _HD
                continue
            captured = True
            if overlapping:
                interference = [
                    p for o in overlapping
                    if (p := o.power_at(rid)) is not None
                ]
                if interference:
                    interfered[off] = True
                    sinr = rx_power - dbm_sum(noise_floor, *interference)
                    # Capture gates on the signal-to-*interference* ratio:
                    # a correlator cannot separate two comparable
                    # overlapping frames, but interference well below the
                    # signal is just extra noise, which the PRR curve
                    # already accounts for via the SINR.
                    sir = rx_power - dbm_sum(*interference)
                    captured = sir >= CAPTURE_THRESHOLD_DB
                else:
                    sinr = rx_power - noise_only
            else:
                sinr = rx_power - noise_only
            sinr_of[off] = sinr
            was_captured[off] = captured
            cand_offs.append(off)

        # Pass 2: one reception draw per *captured* candidate, id order
        # (the scalar loop short-circuited the draw for uncaptured ones).
        success = [False] * member_count
        captured_offs = [off for off in cand_offs if was_captured[off]]
        if captured_offs:
            prr = packet_reception_ratio(
                np.array([sinr_of[off] for off in captured_offs]),
                frame_bytes,
            )
            draws = self._loss_rng.random(size=len(captured_offs))
            for off, ok in zip(captured_offs, (draws < prr).tolist()):
                success[off] = ok

        # Pass 3: corruption decisions for the failures, id order.  These
        # stay scalar: each corrupted delivery interleaves a uniform with
        # a variable number of integer draws on the same stream.
        payload0 = frame.payload
        fraction = self.corrupt_delivery_fraction
        corrupt_rng = self._corrupt_rng
        payload_of: dict[int, bytes] = {}
        deliver_offs: list[int] = []
        for off in cand_offs:
            if success[off]:
                # Fault-injected corruption converts a clean reception
                # into a CRC-failing delivery; its draws come from the
                # injector's dedicated stream, and the medium's own
                # corruption stream is consulted exactly as often as
                # without the fault (only for failed receptions).
                if (fault_corrupt_on and payload0
                        and faults.corrupt_roll(ids[off])):
                    outcome[off] = _CORRUPT
                    payload_of[off] = faults.corrupt_payload(payload0)
                else:
                    outcome[off] = _OK
                deliver_offs.append(off)
            elif (corrupt_rng.random() >= fraction) or not payload0:
                outcome[off] = _LOST
            else:
                outcome[off] = _CORRUPT
                payload_of[off] = self._corrupt(payload0)
                deliver_offs.append(off)

        # Pass 4: PHY observables for every delivery, one batched draw
        # per stream, id order.  Drawn exactly once so the trace path can
        # reuse them — enabling tracing must not shift the streams.
        rssi_of: list[int] = []
        lqi_of: list[int] = []
        if deliver_offs:
            rssi_of = self.rssi_model.readings(
                np.array([rx_list[off] for off in deliver_offs])
            )
            lqi_of = self.lqi_model.readings(
                np.array([sinr_of[off] for off in deliver_offs])
            )

        # Pass 5: counters, trace events, deliveries — id order, exactly
        # the per-receiver sequence the scalar loop produced.
        env_now = self.env.now
        tracer = self.tracer
        trace_on = tracer.enabled
        monitor = self.monitor
        dst = frame.dst
        is_broadcast = frame.is_broadcast
        delivered_to_dst = False
        any_delivered = False
        delivery_pos = 0
        for off in range(member_count):
            code = outcome[off]
            if code == _SKIP:
                continue
            rid = ids[off]
            is_dst = rid == dst
            if code == _OFF:
                if trace_on and is_dst:
                    tracer.emit("radio.drop", env_now, node=rid,
                                packet=frame.trace_id, reason="radio_off",
                                sender=sender_id)
                continue
            if code == _RANGE:
                if trace_on and is_dst:
                    tracer.emit("radio.drop", env_now, node=rid,
                                packet=frame.trace_id, reason="out_of_range",
                                sender=sender_id,
                                rx_power_dbm=round(rx_list[off], 3))
                continue
            if code == _HD:
                c = self._c_halfduplex
                if c is None:
                    c = self._c_halfduplex = monitor.counter_obj(
                        "medium.halfduplex_loss")
                c.value += 1
                if trace_on and is_dst:
                    tracer.emit("radio.drop", env_now, node=rid,
                                packet=frame.trace_id, reason="half_duplex",
                                sender=sender_id)
                continue
            if interfered[off]:
                c = self._c_interfered
                if c is None:
                    c = self._c_interfered = monitor.counter_obj(
                        "medium.interfered_receptions")
                c.value += 1
            if code == _LOST:
                c = self._c_lost
                if c is None:
                    c = self._c_lost = monitor.counter_obj(
                        "medium.lost_frames")
                c.value += 1
                if trace_on and is_dst:
                    tracer.emit(
                        "radio.drop", env_now, node=rid,
                        packet=frame.trace_id,
                        reason=("channel_loss" if was_captured[off]
                                else "collision"),
                        sender=sender_id, sinr_db=round(sinr_of[off], 3),
                    )
                continue
            if code == _CORRUPT:
                c = self._c_corrupt
                if c is None:
                    c = self._c_corrupt = monitor.counter_obj(
                        "medium.corrupted_frames")
                c.value += 1
                payload = payload_of[off]
                crc_ok = False
            else:
                payload = payload0
                crc_ok = True
            rssi = rssi_of[delivery_pos]
            lqi = lqi_of[delivery_pos]
            delivery_pos += 1
            h = self._h_lqi
            if h is None:
                h = self._h_lqi = monitor.histogram_obj("radio.lqi")
            h.observe(lqi)
            if trace_on and (is_dst or is_broadcast):
                tracer.emit(
                    "radio.rx", env_now, node=rid,
                    packet=frame.trace_id, sender=sender_id,
                    crc_ok=crc_ok, rssi=rssi, lqi=lqi,
                    sinr_db=round(sinr_of[off], 3),
                )
            arrival = FrameArrival(
                frame=frame, payload=payload,
                sender=sender_id, receiver=rid, channel=tx.channel,
                rx_power_dbm=rx_list[off], sinr_db=sinr_of[off],
                rssi=rssi, lqi=lqi,
                crc_ok=crc_ok, time=env_now,
            )
            xcvrs[off].deliver(arrival)
            if crc_ok:
                any_delivered = True
                if is_dst:
                    delivered_to_dst = True

        # An addressed destination the spatial bound excluded never
        # appears in the loop above; its lifecycle trace still owes the
        # "where did my packet go" answer.  No RNG: the estimate is
        # deterministic loss only (a dense scan's drawn value would
        # differ by at most the stochastic terms, both irrelevant this
        # far below sensitivity).
        if (trace_on and not is_broadcast and dst is not None
                and dst != sender_id and dst not in idx.offset_of):
            dxcvr = self._xcvrs.get(dst)
            if dxcvr is not None and dxcvr.config.channel == tx.channel:
                if not dxcvr.enabled:
                    tracer.emit("radio.drop", env_now, node=dst,
                                packet=frame.trace_id, reason="radio_off",
                                sender=sender_id)
                else:
                    est = tx.tx_power_dbm - self.propagation.deterministic_loss_db(
                        self.distance(sender_id, dst))
                    tracer.emit("radio.drop", env_now, node=dst,
                                packet=frame.trace_id, reason="out_of_range",
                                sender=sender_id,
                                rx_power_dbm=round(est, 3))

        monitor.log_packet(PacketRecord(
            time=tx.start,
            sender=sender_id,
            receiver=None if is_broadcast else dst,
            kind=frame.kind,
            port=frame.port,
            size_bytes=frame_bytes,
            delivered=any_delivered if is_broadcast else delivered_to_dst,
        ))
        c = self._c_tx
        if c is None:
            c = self._c_tx = monitor.counter_obj("medium.transmissions")
        c.value += 1
        # Our half of the overlap cross-links is no longer needed; peers
        # that outlive us only read our snapshot (index/rx), so clearing
        # here plus _prune's sweep bounds retention to the busy period.
        tx.overlapping.clear()
        tx.overlap_senders.clear()

    def _corrupt(self, payload: bytes) -> bytes:
        """Flip a few random bits so the CRC checker has real work to do."""
        data = bytearray(payload)
        flips = max(1, int(self._corrupt_rng.integers(1, 4)))
        for _ in range(flips):
            idx = int(self._corrupt_rng.integers(0, len(data)))
            bit = int(self._corrupt_rng.integers(0, 8))
            data[idx] ^= 1 << bit
        return bytes(data)
