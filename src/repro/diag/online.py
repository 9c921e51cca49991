"""Passive online anomaly detection over the beacon stream.

Active diagnosis (:mod:`repro.diag.engine`) answers "what is wrong?"
by injecting probe traffic; this module answers it by *listening*.
Every node already beacons every ~2 s, and every reception carries
LQI/RSSI readings and a sequence number — a free, continuous stream of
per-link observations.  :class:`OnlineMonitor` taps that stream (a
read-only callback registered on the shared
:class:`~repro.sim.monitor.Monitor`), runs O(1)-memory sliding-window
detectors per directed link, and emits the same closed-vocabulary
:class:`~repro.diag.findings.Finding` schema the active engine
produces — so :func:`~repro.diag.score.score_findings` grades both
against the same ground truth and the serve layer can swap between
them.

Detectors:

* :class:`WindowStats` — fixed-capacity ring buffer with O(1) running
  mean/variance (push evicts; no rescan);
* :class:`EwmaDetector` — level-shift detection against an adaptive
  EWMA baseline with an EWMA absolute-deviation scale, k-sigma on/off
  thresholds and consecutive-sample hysteresis (catches LQI/RSSI
  collapse);
* :class:`CusumDetector` — one-sided CUSUM changepoint detector on the
  per-expected-beacon loss indicator reconstructed from sequence-number
  gaps (catches loss-rate rises smaller than the quality noise).

Each recurrence is written once, as a column kernel that updates many
rows of struct-of-arrays state in one vectorised call; the three public
classes are its one-row views, and the monitor keeps one row per
directed link.

The monitor never touches the simulation: it consumes no RNG, schedules
no events and sends no packets, so attaching it leaves the packet
digest byte-identical — the zero-probe contract the passive serve mode
and the determinism suite assert.
"""

from __future__ import annotations

import math
import sys
import typing as _t
from dataclasses import dataclass

import numpy as np

from repro.diag.findings import FINDING_KINDS, DiagnosisReport, Finding
from repro.kernel.neighbors import DEFAULT_BEACON_INTERVAL

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.testbed import Testbed
    from repro.radio.medium import FrameArrival

__all__ = [
    "WindowStats",
    "EwmaDetector",
    "CusumDetector",
    "OnlineThresholds",
    "OnlineMonitor",
    "merge_findings",
    "PROBE_PACKET_KINDS",
]

#: Packet kinds that count as probe traffic (the zero-probe assertion
#: and the hybrid self-traffic mask): reliable control commands, pings
#: and traceroutes.  Beacons and routing adverts are the network's own
#: background, not probes.
PROBE_PACKET_KINDS = ("control", "ping", "traceroute")


def finding_subject_key(finding: Finding) -> tuple:
    """Canonical dedup key for one finding's *subject*.

    The three link kinds fold together (an active ``lossy_link`` and a
    passive ``broken_link`` on the same pair are one complaint, not
    two), links fold across direction, and channel verdicts fold by
    channel (the observer node may differ between modes).
    """
    if finding.link is not None:
        return ("link", min(finding.link), max(finding.link))
    if finding.channel is not None:
        return ("channel", finding.channel)
    return (finding.kind, finding.node)


def merge_findings(primary: _t.Iterable[Finding],
                   secondary: _t.Iterable[Finding]) -> list[Finding]:
    """Union of two reports' findings, deduplicated by subject.

    ``primary`` wins on conflicts (the hybrid assessor passes the
    active report first: probe evidence is directed and richer).

    One cross-mode root-cause rule, mirroring the suppression
    :meth:`OnlineMonitor.poll` applies internally: an ``interference``
    verdict explains unreachability.  While a channel is jammed, CSMA
    keeps *every* transmitter silent — probes time out and beacons
    stop fleet-wide — so a simultaneous ``dead_node`` claim is
    unprovable and is dropped rather than reported as a second fault.
    Returned in canonical order.
    """
    merged = list(primary)
    named = {finding_subject_key(f) for f in merged}
    for finding in secondary:
        if finding_subject_key(finding) not in named:
            merged.append(finding)
    if any(f.kind == "interference" for f in merged):
        merged = [f for f in merged if f.kind != "dead_node"]
    merged.sort(key=Finding.sort_key)
    return merged


#: Largest finite double: detector state is clamped into [-_FMAX, _FMAX].
_FMAX = sys.float_info.max


def _clamp_finite(x):
    """Pull overflowed (infinite) intermediates back to the finite float
    range; finite inputs pass through untouched.  Two finite samples at
    opposite ends of the double range make ``a - b`` overflow, and a
    detector's state must stay finite regardless of what the series
    feeds it."""
    return np.minimum(np.maximum(x, -_FMAX), _FMAX)


class _Columns:
    """Struct-of-arrays state: one numpy column per field, one row per
    directed link (or the single row of a standalone detector).

    ``fields`` maps a column name to its dtype, or to ``(dtype, width)``
    for a 2-D column (a ring buffer's samples).  Every column starts
    zero-filled with one row; :meth:`grow` adds zero rows.
    """

    def __init__(self, fields: dict) -> None:
        self._fields = fields
        for name, spec in fields.items():
            dtype, width = spec if isinstance(spec, tuple) else (spec, None)
            setattr(self, name, np.zeros(1 if width is None else (1, width),
                                         dtype))

    def grow(self, rows: int) -> None:
        for name in self._fields:
            old = getattr(self, name)
            new = np.zeros((rows, *old.shape[1:]), old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)

    def zero(self) -> None:
        for name in self._fields:
            getattr(self, name)[...] = 0


# The column kernels below (``push_rows``/``step``) update many rows in
# one vectorised call, with the float operations of the one-sample
# recurrence in the same order, so a row's state is bit-identical to
# feeding its samples one at a time.  Callers hold
# ``np.errstate(all="ignore")``: hostile samples overflow by design and
# are clamped, exactly as Python floats would.

#: The row index of a standalone (one-row) detector.
_ROW0 = np.zeros(1, np.intp)


def _one(value) -> np.ndarray:
    return np.array([float(value)])


class _RingBank:
    """Fixed-capacity ring buffers, one per row, with O(1) running
    mean/variance: a push evicts the oldest sample once full and
    maintains running sums, so mean/variance never rescan the buffer.
    Sums are rebuilt from the buffer every ``capacity * 256`` pushes to
    bound float cancellation drift on arbitrarily long series — still
    amortised O(1) per push, and memory is exactly ``capacity`` floats
    per row forever.  The push count alone gives the write slot
    (``pushes % capacity``) and the fill (``min(pushes, capacity)``).
    """

    __slots__ = ("capacity", "cols")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.cols = _Columns({"buf": (np.float64, self.capacity),
                              "sum": np.float64, "sumsq": np.float64,
                              "pushes": np.int64})

    def push_rows(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Push ``values[i]`` onto row ``rows[i]`` (rows distinct)."""
        c, cap = self.cols, self.capacity
        pushes = c.pushes[rows]
        at = rows * cap + pushes % cap
        buf = c.buf.reshape(-1)                 # a view: C-contiguous
        # Until a ring first fills, the slot it writes still holds its
        # initial 0.0, and x - 0.0 == x exactly: evicting it anyway is
        # bit-identical to evicting only once full.
        old = buf[at]
        c.sum[rows] = c.sum[rows] - old + values
        c.sumsq[rows] = c.sumsq[rows] - old * old + values * values
        buf[at] = values
        pushes += 1
        c.pushes[rows] = pushes
        stale = pushes % (cap * 256) == 0
        if stale.any():
            for row in rows[stale].tolist():    # full: every slot is live
                live = c.buf[row]
                c.sum[row] = math.fsum(live.tolist())
                c.sumsq[row] = math.fsum((live * live).tolist())

    def counts(self, rows) -> np.ndarray:
        return np.minimum(self.cols.pushes[rows], self.capacity)

    def means(self, rows) -> np.ndarray:
        """Window means; 0 for an empty window (its sum is 0)."""
        return self.cols.sum[rows] / np.maximum(self.counts(rows), 1)

    def variances(self, rows) -> np.ndarray:
        """Population variances (clamped at 0 against float drift)."""
        m = self.means(rows)
        return np.fmax(0.0, self.cols.sumsq[rows]
                       / np.maximum(self.counts(rows), 1) - m * m)


class WindowStats(_RingBank):
    """One ring buffer: the one-row view of the per-link ring columns."""

    __slots__ = ()

    def push(self, value: float) -> None:
        with np.errstate(all="ignore"):
            self.push_rows(_ROW0, _one(value))

    def values(self) -> list[float]:
        """Live samples, oldest first (for tests and evidence)."""
        buf = self.cols.buf[0]
        if not self.full:
            return buf[:len(self)].tolist()
        at = int(self.cols.pushes[0]) % self.capacity
        return buf[at:].tolist() + buf[:at].tolist()

    def __len__(self) -> int:
        return int(self.counts(_ROW0)[0])

    @property
    def count(self) -> int:
        return len(self)

    @property
    def full(self) -> bool:
        return len(self) == self.capacity

    @property
    def mean(self) -> float:
        return float(self.means(_ROW0)[0])

    @property
    def variance(self) -> float:
        with np.errstate(all="ignore"):
            return float(self.variances(_ROW0)[0])

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


class _EwmaBank:
    """Level-shift detectors, one per row: adaptive EWMA baseline +
    hysteresis.

    Tracks an EWMA mean and an EWMA absolute deviation of the series.
    A sample further than ``k_on`` deviations from the baseline (in the
    watched ``direction``) counts toward firing; ``hysteresis``
    consecutive such samples fire the detector.  While counting (and
    while fired) the baseline is *gated* — outliers do not update it —
    so a genuine level shift is not absorbed before it can fire.  Once
    fired, ``hysteresis`` consecutive samples back within ``k_off``
    deviations recover it (the recovery path of transient faults).

    State is a handful of numbers per row: O(1) memory for any series
    length.  Non-finite samples are ignored (counted in ``ignored``),
    so the confidence is finite and in [0, 1] by construction.
    """

    __slots__ = ("alpha", "k_on", "k_off", "hysteresis", "min_samples",
                 "sigma_floor", "direction", "cols")

    def __init__(self, *, alpha: float = 0.2, k_on: float = 4.0,
                 k_off: float = 2.0, hysteresis: int = 3,
                 min_samples: int = 8, sigma_floor: float = 1.0,
                 direction: str = "both"):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if k_off > k_on:
            raise ValueError(f"k_off ({k_off}) must not exceed k_on ({k_on})")
        if direction not in ("both", "up", "down"):
            raise ValueError(f"direction must be both/up/down, "
                             f"got {direction!r}")
        if sigma_floor <= 0:
            raise ValueError(f"sigma_floor must be > 0, got {sigma_floor}")
        self.alpha = float(alpha)
        self.k_on = float(k_on)
        self.k_off = float(k_off)
        self.hysteresis = max(1, int(hysteresis))
        self.min_samples = max(1, int(min_samples))
        self.sigma_floor = float(sigma_floor)
        self.direction = direction
        self.cols = _Columns({
            "n": np.int64, "ignored": np.int64, "mean": np.float64,
            "dev": np.float64, "fired": np.bool_, "over": np.int64,
            "under": np.int64, "peak": np.float64})

    def step(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Feed ``values[i]`` to row ``rows[i]`` (rows distinct)."""
        c = self.cols
        finite = np.isfinite(values)
        if not finite.all():
            c.ignored[rows[~finite]] += 1
            rows, values = rows[finite], values[finite]
        n = c.n[rows]
        c.n[rows] = n + 1
        live = n >= self.min_samples
        mean, dev = c.mean[rows], c.dev[rows]
        if not live.all():
            first = n == 0                      # seeds the baseline
            mean[first] = values[first]
        # Signed deviation in sigma units, oriented by direction.
        z = _clamp_finite(_clamp_finite(values - mean)
                          / np.maximum(dev, self.sigma_floor))
        excess = (-z if self.direction == "down"
                  else z if self.direction == "up" else np.abs(z))
        fired = c.fired[rows]
        quiet = live & ~fired
        counting = quiet & (excess >= self.k_on)
        in_band = quiet & ~counting
        over = c.over[rows] + counting
        on = counting & (over >= self.hysteresis)
        held = live & fired
        # Warm-up and in-band samples move the baseline; outliers are
        # gated out of it (and so, below, is a firing's recovery).
        absorb = ~live | in_band
        if held.any() or on.any():
            calm = held & (excess <= self.k_off)
            under = c.under[rows] + calm
            off = calm & (under >= self.hysteresis)
            peak = c.peak[rows]
            peak = np.where(held, np.maximum(peak, excess), peak)
            c.peak[rows] = np.where(on, excess, np.where(off, 0.0, peak))
            c.under[rows] = under * ~(on | off | (held & ~calm))
            c.fired[rows] = (fired | on) & ~off
            over *= ~off
            absorb |= off
        c.over[rows] = over * ~in_band
        a = self.alpha
        diff = _clamp_finite(np.abs(values - mean))
        c.dev[rows] = np.where(
            absorb, _clamp_finite((1 - a) * dev + a * diff), dev)
        c.mean[rows] = np.where(
            absorb, _clamp_finite((1 - a) * mean + a * values), mean)

    def shifts(self, rows) -> np.ndarray:
        """Peak excess (in sigma units) of the current firing, else 0."""
        return np.where(self.cols.fired[rows], self.cols.peak[rows], 0.0)

    def confidences(self, rows) -> np.ndarray:
        """Confidence in [0, 1]; 0 when quiet, >= 0.5 once fired."""
        c = self.cols
        return np.where(c.fired[rows], np.minimum(
            1.0, 0.5 + (c.peak[rows] - self.k_on) / (6.0 * self.k_on)), 0.0)


class EwmaDetector(_EwmaBank):
    """One level-shift detector: the one-row view of the per-link EWMA
    columns (the recurrence is :meth:`_EwmaBank.step`)."""

    __slots__ = ()

    def update(self, value: float) -> bool:
        """Feed one sample; returns the (possibly new) fired state."""
        with np.errstate(all="ignore"):
            self.step(_ROW0, _one(value))
        return self.fired

    @property
    def n(self) -> int:
        return int(self.cols.n[0])

    @property
    def ignored(self) -> int:
        return int(self.cols.ignored[0])

    @property
    def mean(self) -> float:
        return float(self.cols.mean[0])

    @property
    def dev(self) -> float:
        return float(self.cols.dev[0])

    @property
    def fired(self) -> bool:
        return bool(self.cols.fired[0])

    @property
    def shift(self) -> float:
        return float(self.shifts(_ROW0)[0])

    @property
    def confidence(self) -> float:
        return float(self.confidences(_ROW0)[0])

    def reset(self) -> None:
        self.cols.zero()


class _CusumBank:
    """One-sided (upper) CUSUM changepoint detectors, one per row.

    Accumulates ``max(0, g + (x - target - slack))`` and fires while the
    statistic is at or above ``threshold``.  With the per-expected-beacon
    loss indicator as input (``target=0``), ``slack`` is the tolerated
    ambient loss rate and ``threshold`` the excess lost-beacon mass that
    constitutes a changepoint; after the fault clears, each delivered
    beacon drains ``slack`` from the statistic, so recovery de-asserts
    the detector without an explicit reset.  The statistic is clamped at
    ``cap`` (default ``2 * threshold``) so an arbitrarily long burst
    cannot push the de-assert arbitrarily far past the recovery.

    O(1) memory per row; non-finite samples are ignored.
    """

    __slots__ = ("target", "slack", "threshold", "cap", "cols")

    def __init__(self, *, target: float = 0.0, slack: float = 0.15,
                 threshold: float = 2.0, cap: float | None = None):
        if slack < 0:
            raise ValueError(f"slack must be >= 0, got {slack}")
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        self.target = float(target)
        self.slack = float(slack)
        self.threshold = float(threshold)
        self.cap = float(cap) if cap is not None else 2.0 * self.threshold
        if self.cap < self.threshold:
            raise ValueError(f"cap ({self.cap}) must be >= threshold "
                             f"({self.threshold})")
        self.cols = _Columns({"n": np.int64, "ignored": np.int64,
                              "stat": np.float64})

    def step(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Feed ``values[i]`` to row ``rows[i]`` (rows distinct)."""
        c = self.cols
        finite = np.isfinite(values)
        if not finite.all():
            c.ignored[rows[~finite]] += 1
            rows, values = rows[finite], values[finite]
        c.stat[rows] = np.minimum(self.cap, np.maximum(
            0.0, c.stat[rows] + (values - self.target - self.slack)))
        c.n[rows] += 1

    def fired_rows(self, rows) -> np.ndarray:
        return self.cols.stat[rows] >= self.threshold

    def confidences(self, rows) -> np.ndarray:
        """Confidence in [0, 1]; 0 when quiet, >= 0.5 once fired."""
        stat = self.cols.stat[rows]
        return np.where(stat >= self.threshold, np.minimum(
            1.0, 0.5 + (stat - self.threshold) / (6.0 * self.threshold)),
            0.0)


class CusumDetector(_CusumBank):
    """One CUSUM detector: the one-row view of the per-link CUSUM
    columns (the recurrence is :meth:`_CusumBank.step`)."""

    __slots__ = ()

    def update(self, value: float) -> bool:
        with np.errstate(all="ignore"):
            self.step(_ROW0, _one(value))
        return self.fired

    @property
    def n(self) -> int:
        return int(self.cols.n[0])

    @property
    def ignored(self) -> int:
        return int(self.cols.ignored[0])

    @property
    def statistic(self) -> float:
        return float(self.cols.stat[0])

    @property
    def fired(self) -> bool:
        return bool(self.fired_rows(_ROW0)[0])

    @property
    def confidence(self) -> float:
        return float(self.confidences(_ROW0)[0])

    def reset(self) -> None:
        self.cols.zero()


@dataclass(frozen=True)
class OnlineThresholds:
    """Every passive-detector knob, in one place (the online analogue
    of :class:`~repro.diag.engine.Thresholds`).

    Defaults are pinned by ``tests/diag/test_online_detectors.py``; the
    rationale for each lives in ``docs/DIAGNOSIS.md``.
    """

    #: Detector warm-up: beacons a link must have delivered before any
    #: verdict may name it (absence of evidence is not a broken link).
    min_samples: int = 8
    #: Ring capacity for the per-expected-beacon loss indicator.
    window: int = 32
    #: EWMA alpha shared by the LQI and RSSI level-shift detectors.
    quality_alpha: float = 0.2
    quality_k_on: float = 4.0
    quality_k_off: float = 2.0
    quality_hysteresis: int = 3
    #: Scale floors so a dead-quiet baseline cannot make noise-free
    #: jitter look like a 100-sigma event.
    lqi_sigma_floor: float = 2.0
    rssi_sigma_floor: float = 1.5
    #: CUSUM drift allowance (tolerated ambient loss per beacon) and
    #: firing mass (net excess lost beacons).
    loss_slack: float = 0.15
    loss_threshold: float = 2.0
    #: Recent-window loss level that upgrades lossy -> broken.
    broken_loss: float = 0.9
    #: Missed-interval multiples before a once-healthy link is silent.
    silence_factor: float = 4.0
    #: Sequence gaps beyond this are treated as a counter restart
    #: (reboot), not as that many lost beacons.
    max_gap: int = 64
    #: Simultaneously-degraded links on one channel (spanning >= 2
    #: origins and >= 2 receivers, with no single common endpoint, and
    #: covering at least ``interference_min_fraction`` of the channel's
    #: tracked links) escalate to an ``interference`` verdict.  The
    #: fraction gate separates RF (which degrades essentially every
    #: link on the channel) from a coincidence of node/link faults
    #: (which degrades a cluster but leaves the rest clean).
    interference_min_links: int = 3
    interference_min_fraction: float = 0.5
    #: Inter-arrival drift detection: the recent-window mean must sit
    #: ``drift_z`` standard errors AND ``drift_rel`` (relative) away
    #: from the *nominal* beacon period — a protocol constant the
    #: diagnosis tool knows, so a fault can never contaminate the
    #: reference the way it could a learned baseline.  Beacon jitter is
    #: ±10 % uniform (σ ≈ 5.8 %): 32 samples put the SE near 1 %, the
    #: 4-SE gate near 4 %.  A sliding window is re-tested every poll on
    #: every link, so 4-σ excursions *will* eventually occur; the
    #: absolute gate is what rejects them — 4.5 % puts the detectable
    #: skew floor near 5 %, well under the 7.4 % signature of the
    #: canonical 8 % clock-drift fault.
    drift_window: int = 32
    #: Learned-cadence window (feeds silence detection only).
    baseline_intervals: int = 10
    drift_z: float = 4.0
    drift_rel: float = 0.045


#: Pending beacons that force a drain inside :meth:`OnlineMonitor.
#: observe_beacon`, so a monitor that is attached but never polled holds
#: O(links) memory.  Polls drain long before this on every served and
#: benchmarked cadence.
PENDING_BOUND = 4096

#: Fields per queued beacon: row, seq, lqi, rssi, channel, time.
_WIDTH = 6

#: ``channel`` column value for a link whose beacons carried none.
_NO_CHANNEL = -1


class OnlineMonitor:
    """Sliding-window detectors over the beacon stream -> Findings.

    Construction is inert (no sim access); :meth:`attach` registers a
    read-only per-beacon tap on the testbed's shared monitor, and
    :meth:`poll` reduces the accumulated per-link state to canonical
    :class:`~repro.diag.findings.Finding`s — the passive counterpart of
    ``DiagnosisEngine.run``, with ``probes_run == 0`` always.

    ``testbed=None`` builds a detached monitor for synthetic-series
    tests: feed :meth:`observe_beacon` directly and :meth:`poll` with an
    explicit ``now``.

    State is columnar: each directed link (origin -> receiver) is one
    row of numpy columns — two EWMA detectors (LQI, RSSI), a CUSUM on
    the loss indicator, three ring buffers (loss window, inter-arrival
    window, learned-cadence window) and the link's sequence/time
    anchors.  :meth:`observe_beacon` only queues the beacon; the queue
    is drained before every read (:meth:`poll`, :meth:`report`,
    :meth:`pause`, :meth:`resume`) and whenever it reaches
    :data:`PENDING_BOUND`.  A drain replays the queue in rounds — round
    k holds the k-th queued beacon of every link — each one vectorised
    update with the scalar recurrence's float operation order, so the
    state is bit-identical however the queue was cut.

    Memory is O(tracked links), each link O(1) (fixed ring buffers).
    """

    def __init__(self, testbed: "Testbed | None" = None, *,
                 thresholds: OnlineThresholds | None = None,
                 exclude: _t.Collection[int] = (),
                 nominal_interval: float = DEFAULT_BEACON_INTERVAL):
        self.testbed = testbed
        self.thresholds = t = thresholds or OnlineThresholds()
        self.exclude = frozenset(int(n) for n in exclude)
        self.nominal_interval = float(nominal_interval)
        self._monitor = testbed.monitor if testbed is not None else None
        quality = dict(alpha=t.quality_alpha, k_on=t.quality_k_on,
                       k_off=t.quality_k_off,
                       hysteresis=t.quality_hysteresis,
                       min_samples=t.min_samples, direction="down")
        self._lqi = _EwmaBank(sigma_floor=t.lqi_sigma_floor, **quality)
        self._rssi = _EwmaBank(sigma_floor=t.rssi_sigma_floor, **quality)
        self._loss = _CusumBank(target=0.0, slack=t.loss_slack,
                                threshold=t.loss_threshold)
        self._loss_window = _RingBank(t.window)
        self._intervals = _RingBank(t.drift_window)
        self._baseline_window = _RingBank(t.baseline_intervals)
        self._link = _Columns({
            "origin": np.int64, "last_seq": np.int64,
            "last_heard": np.float64, "beacons": np.int64,
            "channel": np.int64, "baseline_set": np.bool_,
            "baseline_interval": np.float64})
        self._tables = (self._link, self._lqi.cols, self._rssi.cols,
                        self._loss.cols, self._loss_window.cols,
                        self._intervals.cols, self._baseline_window.cols)
        self._rows: dict[tuple[int, int], int] = {}
        self._keys: list[tuple[int, int]] = []
        self._pending: list = []
        self._attached = False
        self._paused = False
        self._anchor_floor = -math.inf
        self._detached_at: float | None = None
        self._pause_idx = 0
        self._c_beacons = None
        self._last_subjects: set[tuple] = set()
        self.polls = 0
        self.beacons_seen = 0
        self.last_findings: list[Finding] = []
        self.last_polled_at: float | None = None

    # -- the tap ---------------------------------------------------------

    def attach(self) -> "OnlineMonitor":
        """Start listening (idempotent).  Requires a testbed.

        Re-attaching after :meth:`detach` masks the time spent detached,
        as :meth:`resume` masks a probe burst: each link's first beacon
        only re-anchors its sequence number (the beacons nobody listened
        to are not losses), and silence restarts from now.
        """
        if self._monitor is None:
            raise ValueError("cannot attach a detached OnlineMonitor "
                             "(constructed without a testbed)")
        if not self._attached:
            if self._detached_at is not None:
                self._drain()
                self._anchor_floor = max(self._anchor_floor,
                                         float(self.testbed.env.now))
                self._detached_at = None
            self._monitor.add_beacon_tap(self._tap)
            self._attached = True
        return self

    def detach(self) -> None:
        """Stop listening (accumulated state is kept).

        Until the next :meth:`attach`, :meth:`poll` and :meth:`report`
        without an explicit ``now`` evaluate as of the detach time: the
        listener heard nothing since, so later time is no evidence.
        """
        if self._attached and self._monitor is not None:
            self._monitor.remove_beacon_tap(self._tap)
            self._detached_at = float(self.testbed.env.now)
        self._attached = False

    @property
    def attached(self) -> bool:
        return self._attached

    def pause(self) -> None:
        """Mask the detectors (sequence continuity is still tracked).

        The hybrid assessor pauses the listener around its own probe
        bursts: a few hundred probe packets congest the channel, and
        the delayed and collided beacons would otherwise read as loss
        or interference the network did not actually have.  While
        paused, received beacons only re-anchor their link's sequence
        number and last-heard time — and so does the *first* beacon per
        link after :meth:`resume`, whose gap spans the masked window.
        Silence likewise restarts from the mask's end: a link quiet
        through the mask may simply have lost its beacons to the probe
        congestion, so it must re-earn its silence verdict afterwards (a
        genuinely dead node does, a few beacon intervals later).
        """
        if not self._paused:
            self._drain()
            self._paused = True
            self._pause_idx = (len(self._monitor.packets)
                               if self._monitor is not None else 0)

    def resume(self, now: float | None = None) -> None:
        """Unmask the detectors (see :meth:`pause`).

        If *no probe packet actually got on the air* during the masked
        window, the mask is void: whatever kept beacons off the channel
        was not our doing (e.g. an interference burst that made CCA
        read busy fleet-wide), so the accrued silence is genuine
        evidence and keeps aging.
        """
        if not self._paused:
            return
        self._drain()
        self._paused = False
        if self._monitor is not None and not any(
                r.kind in PROBE_PACKET_KINDS
                for r in self._monitor.packets[self._pause_idx:]):
            return
        if now is None:
            now = self._now()
        self._anchor_floor = float(now)

    @property
    def paused(self) -> bool:
        return self._paused

    def _now(self) -> float:
        """The default evaluation time: the sim clock, stopped at the
        detach time while detached (see :meth:`detach`)."""
        if self.testbed is None:
            raise ValueError("detached OnlineMonitor needs an "
                             "explicit now=")
        if self._detached_at is not None:
            return self._detached_at
        return self.testbed.env.now

    def _tap(self, receiver: int, origin: int, seq: int,
             arrival: "FrameArrival") -> None:
        if receiver in self.exclude or origin in self.exclude:
            return
        self.observe_beacon(receiver, origin, seq=seq, lqi=arrival.lqi,
                            rssi=arrival.rssi, channel=arrival.channel,
                            now=arrival.time)

    # -- ingestion -------------------------------------------------------

    def observe_beacon(self, receiver: int, origin: int, *, seq: int,
                       lqi: float, rssi: float, channel: int | None = None,
                       now: float) -> None:
        """Feed one received beacon (the tap's entry point; synthetic
        tests call it directly).  Queues it for the next drain."""
        row = self._rows.get((origin, receiver))
        if row is None:
            row = self._new_row(origin, receiver)
        pending = self._pending
        pending += (row, seq & 0xFFFF, lqi, rssi,
                    _NO_CHANNEL if channel is None else channel, now)
        self.beacons_seen += 1
        if self._monitor is not None:
            c = self._c_beacons
            if c is None:
                c = self._c_beacons = self._monitor.counter_obj(
                    "diag.online.beacons")
            c.value += 1
        if len(pending) >= _WIDTH * PENDING_BOUND:
            self._drain()

    def _new_row(self, origin: int, receiver: int) -> int:
        key = (int(origin), int(receiver))
        row = len(self._keys)
        if row == len(self._link.origin):       # every table is full
            size = max(64, 2 * row)
            for table in self._tables:
                table.grow(size)
        self._rows[key] = row
        self._keys.append(key)
        link = self._link
        link.origin[row] = key[0]
        link.last_seq[row] = -1                 # nothing heard yet
        link.channel[row] = _NO_CHANNEL
        return row

    def _drain(self) -> None:
        """Apply every queued beacon, in rounds of one beacon per link."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        block = np.array(pending, np.float64).reshape(-1, _WIDTH)
        rows = block[:, 0].astype(np.intp)
        columns = (block[:, 1].astype(np.int64), block[:, 2], block[:, 3],
                   block[:, 4].astype(np.int64), block[:, 5])
        # Stable sort by row keeps each link's beacons in arrival order;
        # a beacon's rank within its link is its round.
        order = np.argsort(rows, kind="stable")
        by_row = rows[order]
        first = np.empty(len(rows), np.bool_)
        first[0] = True
        np.not_equal(by_row[1:], by_row[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        rank = np.arange(len(rows)) - starts[np.cumsum(first) - 1]
        order = order[np.argsort(rank, kind="stable")]
        begin = 0
        with np.errstate(all="ignore"):
            for end in np.cumsum(np.bincount(rank)).tolist():
                take = order[begin:end]
                self._apply(rows[take], *(col[take] for col in columns))
                begin = end

    def _apply(self, rows: np.ndarray, seq: np.ndarray, lqi: np.ndarray,
               rssi: np.ndarray, channel: np.ndarray,
               now: np.ndarray) -> None:
        """One drain round: at most one beacon per link.

        Beacons heard while paused, or on a link last heard before the
        anchor floor (the first beacon after a probe-masked window),
        only re-anchor sequence and time: the masked traffic never shows
        up later as a phantom gap or a silence, but no loss, quality or
        interval sample is charged.  Every other beacon feeds the
        detectors.  A gap of 0 (duplicate) or beyond ``max_gap``
        (sequence restart after a reboot) re-anchors without charging
        phantom losses.
        """
        t, link = self.thresholds, self._link
        known = channel != _NO_CHANNEL
        link.channel[rows[known]] = channel[known]
        link.beacons[rows] += 1
        last_heard = link.last_heard[rows]
        if self._paused:
            fed = np.zeros(len(rows), np.bool_)
        else:
            fed = ~(last_heard < self._anchor_floor)
        last_seq = link.last_seq[rows]
        gap = (seq - last_seq) & 0xFFFF
        counted = fed & (last_seq >= 0) & (gap > 0) & (gap <= t.max_gap)
        if counted.any():
            r, g = rows[counted], gap[counted]
            lost = g - 1
            for k in range(int(lost.max())):    # one lost beacon per pass
                missed = r[lost > k]
                ones = np.ones(len(missed))
                self._loss.step(missed, ones)
                self._loss_window.push_rows(missed, ones)
            zeros = np.zeros(len(r))
            self._loss.step(r, zeros)
            self._loss_window.push_rows(r, zeros)
            interval = (now[counted] - last_heard[counted]) / g
            self._intervals.push_rows(r, interval)
            learning = ~link.baseline_set[r]
            if learning.any():
                r, interval = r[learning], interval[learning]
                window = self._baseline_window
                window.push_rows(r, interval)
                r = r[window.counts(r) == window.capacity]
                link.baseline_set[r] = True
                link.baseline_interval[r] = window.means(r)
        link.last_seq[rows] = seq
        link.last_heard[rows] = now
        if fed.any():
            rows = rows[fed]
            self._lqi.step(rows, lqi[fed])
            self._rssi.step(rows, rssi[fed])

    # -- reduction -------------------------------------------------------

    @property
    def links_tracked(self) -> int:
        return len(self._keys)

    def poll(self, now: float | None = None) -> list[Finding]:
        """Reduce accumulated link state to findings, as of ``now``.

        Drains queued beacons first.  Pure read otherwise: never
        advances the sim or consumes RNG.  Counter
        ``diag.online.finding.<kind>`` increments only for subjects not
        already named at the previous poll, so long-lived faults count
        once, not once per poll.
        """
        if now is None:
            now = self._now()
        self._drain()
        t, link, keys = self.thresholds, self._link, self._keys
        n = len(keys)
        # Per-link verdict masks, vectorised; Python only visits the
        # flagged links.
        eligible = link.beacons[:n] >= t.min_samples
        base = link.baseline_interval[:n]
        expected = np.where(link.baseline_set[:n] & (base > 0), base,
                            self.nominal_interval)
        with np.errstate(all="ignore"):
            silent_for = now - np.maximum(link.last_heard[:n],
                                          self._anchor_floor)
        silent = eligible & (silent_for > t.silence_factor * expected)
        rows = np.arange(n)
        lossy = eligible & ~silent & self._loss.fired_rows(rows)
        lqi_fired = self._lqi.cols.fired[:n]
        rssi_fired = self._rssi.cols.fired[:n]
        degraded = eligible & ~silent & ~lossy & (lqi_fired | rssi_fired)

        link_findings: dict[tuple[int, int], Finding] = {}
        for row in np.flatnonzero(silent).tolist():
            gone, every = float(silent_for[row]), float(expected[row])
            missed = gone / every
            link_findings[keys[row]] = Finding(
                kind="broken_link", link=keys[row],
                confidence=min(0.95, 0.5 + 0.05
                               * (missed - t.silence_factor)),
                summary=(f"no beacons for {gone:.1f} s "
                         f"(~{missed:.0f} expected)"),
                evidence={"silent_s": gone, "expected_interval_s": every,
                          "beacons_seen": int(link.beacons[row])},
            )
        lossy_rows = np.flatnonzero(lossy)
        levels = self._loss_window.means(lossy_rows).tolist()
        cusum = self._loss.cols.stat[lossy_rows].tolist()
        cusum_conf = self._loss.confidences(lossy_rows).tolist()
        for i, row in enumerate(lossy_rows.tolist()):
            level = levels[i]
            kind = "broken_link" if level >= t.broken_loss else "lossy_link"
            link_findings[keys[row]] = Finding(
                kind=kind, link=keys[row],
                confidence=max(cusum_conf[i],
                               min(1.0, level / t.broken_loss)),
                summary=f"{level:.0%} of expected beacons missing (seq gaps)",
                evidence={"recent_loss": level, "cusum": cusum[i],
                          "beacons_seen": int(link.beacons[row])},
            )
        for row in np.flatnonzero(degraded).tolist():
            at = np.array([row])
            lqi_shift = float(self._lqi.shifts(at)[0])
            rssi_shift = float(self._rssi.shifts(at)[0])
            if lqi_fired[row] and (not rssi_fired[row]
                                   or lqi_shift >= rssi_shift):
                det, metric, shift = self._lqi, "lqi", lqi_shift
            else:
                det, metric, shift = self._rssi, "rssi", rssi_shift
            link_findings[keys[row]] = Finding(
                kind="lossy_link", link=keys[row],
                confidence=float(det.confidences(at)[0]),
                summary=(f"beacon {metric} fell {shift:.1f} sigma "
                         f"below its baseline"),
                evidence={"metric": metric,
                          "baseline": float(det.cols.mean[row]),
                          "shift_sigma": shift,
                          "beacons_seen": int(link.beacons[row])},
            )

        findings: list[Finding] = []
        explained: set[tuple[int, int]] = set()
        channel = link.channel[:n]
        by_channel: dict[int, list[tuple[int, int]]] = {}
        for row in sorted(np.flatnonzero(silent | lossy).tolist(),
                          key=keys.__getitem__):
            ch = int(channel[row])
            if ch != _NO_CHANNEL:
                by_channel.setdefault(ch, []).append(keys[row])
        for ch in sorted(by_channel):
            group = by_channel[ch]
            origins = {a for a, _ in group}
            receivers = {b for _, b in group}
            on_channel = int(np.count_nonzero(eligible & (channel == ch)))
            if (len(group) < t.interference_min_links
                    or len(origins) < 2 or len(receivers) < 2
                    or len(group) < t.interference_min_fraction
                    * on_channel):
                continue
            if any(all(n in key for key in group)
                   for n in origins | receivers):
                continue  # one common endpoint: a node problem, not RF
            findings.append(Finding(
                kind="interference", channel=ch, node=min(receivers),
                confidence=min(0.95, 0.4 + 0.55 * len(group)
                               / max(1, on_channel)),
                summary=(f"{len(group)}/{on_channel} links on channel "
                         f"{ch} degraded simultaneously"),
                evidence={"links_degraded": len(group),
                          "links_on_channel": on_channel,
                          "origins": sorted(origins)},
            ))
            explained.update(group)

        # A node is dead when every link it was heard on went silent.
        origin = link.origin[:n]
        heard_alive = set(origin[eligible & ~silent].tolist())
        silent_links: dict[int, list[int]] = {}
        for row in sorted(np.flatnonzero(silent).tolist(),
                          key=keys.__getitem__):
            silent_links.setdefault(keys[row][0], []).append(row)
        dead: set[int] = set()
        for node in sorted(silent_links):
            links = silent_links[node]
            if node in heard_alive or any(keys[r] in explained
                                          for r in links):
                continue
            dead.add(node)
            worst = max(float(silent_for[r]) / float(expected[r])
                        for r in links)
            findings.append(Finding(
                kind="dead_node", node=node,
                confidence=min(0.95, 0.5 + 0.05
                               * (worst - t.silence_factor)),
                summary=(f"beacons stopped at all {len(links)} "
                         f"receiver(s) that were hearing it"),
                evidence={"receivers": sorted(keys[r][1] for r in links),
                          "missed_intervals": worst},
            ))

        surviving: dict[tuple[int, int], Finding] = {}
        for key in sorted(link_findings):
            if key in explained or key[0] in dead or key[1] in dead:
                continue  # symptom of interference or a dead node
            surviving[key] = link_findings[key]
        for key in sorted(surviving):
            finding = surviving[key]
            mirror = surviving.get((key[1], key[0]))
            if mirror is not None:
                # Both directions degraded: one undirected verdict on
                # the canonical (low, high) pair, at the worse severity.
                if key[0] > key[1]:
                    continue
                if (FINDING_KINDS.index(mirror.kind)
                        < FINDING_KINDS.index(finding.kind)
                        or (mirror.kind == finding.kind
                            and mirror.confidence > finding.confidence)):
                    finding = Finding(
                        kind=mirror.kind, link=key,
                        confidence=mirror.confidence,
                        summary=mirror.summary, evidence=mirror.evidence)
            findings.append(finding)

        for node, mean_ratio, agreeing in self._drift(dead, explained):
            findings.append(Finding(
                kind="hotspot", node=node,
                confidence=min(0.95, 0.5 + 5.0 * abs(mean_ratio)),
                summary=(f"beacon interval shifted {mean_ratio:+.1%} vs "
                         f"baseline - local clock drifting"),
                evidence={"interval_shift": mean_ratio,
                          "links_agreeing": agreeing},
            ))
        findings.sort(key=Finding.sort_key)
        self._account(findings, now)
        return findings

    def _drift(self, dead: set[int], explained: set[tuple[int, int]]):
        """``(origin, mean relative shift, links agreeing)`` per origin
        whose beacon inter-arrivals drifted, in origin order.

        The reference is the *configured* beacon period (a protocol
        constant, immune to contamination by the fault being hunted),
        and a link's shift must clear both a statistical gate
        (``drift_z`` standard errors of its recent-window mean) and an
        absolute one (``drift_rel``), so ordinary beacon jitter never
        qualifies.
        """
        t, window = self.thresholds, self._intervals
        nominal = self.nominal_interval
        if nominal <= 0:
            return []
        rows = np.flatnonzero(
            window.counts(slice(len(self._keys))) == window.capacity)
        count = window.counts(rows)
        with np.errstate(all="ignore"):
            se = np.maximum(np.sqrt(window.variances(rows) / count),
                            1e-6 * nominal)
            shift = window.means(rows) - nominal
            drifting = ((np.abs(shift) >= t.drift_z * se)
                        & (np.abs(shift) / nominal >= t.drift_rel))
        ratios: dict[int, list[tuple[tuple[int, int], float]]] = {}
        for row, s in zip(rows[drifting].tolist(),
                          shift[drifting].tolist()):
            key = self._keys[row]
            if key[0] not in dead and key not in explained:
                ratios.setdefault(key[0], []).append((key, s / nominal))
        out = []
        for node in sorted(ratios):
            agreeing = [r for _, r in sorted(ratios[node])]
            out.append((node, sum(agreeing) / len(agreeing), len(agreeing)))
        return out

    def _account(self, findings: list[Finding], now: float) -> None:
        self.polls += 1
        self.last_findings = findings
        self.last_polled_at = now
        if self._monitor is None:
            subjects = {(f.kind, f.node, f.link, f.channel)
                        for f in findings}
            self._last_subjects = subjects
            return
        self._monitor.count("diag.online.polls")
        subjects = set()
        tracer = self.testbed.tracer if self.testbed is not None else None
        for f in findings:
            subject = (f.kind, f.node, f.link, f.channel)
            subjects.add(subject)
            if subject in self._last_subjects:
                continue
            self._monitor.count("diag.online.findings")
            self._monitor.count(f"diag.online.finding.{f.kind}")
            if tracer is not None and tracer.enabled:
                tracer.emit("diag.online.finding", now,
                            node=f.node, kind_label=f.kind,
                            subject=f.subject,
                            confidence=round(f.confidence, 3))
        self._last_subjects = subjects

    def report(self, now: float | None = None) -> DiagnosisReport:
        """A :class:`DiagnosisReport` from the current state: the
        passive analogue of ``DiagnosisEngine.run`` (zero probes)."""
        findings = self.poll(now)
        at = self.last_polled_at if self.last_polled_at is not None else 0.0
        return DiagnosisReport(findings=findings, started_at=at,
                               finished_at=at, probes_run=0,
                               probes_failed=0)
