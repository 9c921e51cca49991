"""One-sample-at-a-time reference for the columnar passive detectors.

The loop versions of the recurrences in ``repro.diag.online`` (one
Python object per detector, one call per sample), kept as the oracle
the column kernels are compared against: the kernels keep the float
operations of these loops in the same order, so every state value must
be *exactly* equal, not merely close.
"""

import math
import sys

_MAX = sys.float_info.max


def clamp(x: float) -> float:
    return _MAX if x > _MAX else -_MAX if x < -_MAX else x


class Window:
    def __init__(self, capacity):
        self.capacity = capacity
        self.buf = [0.0] * capacity
        self.next = self.count = self.pushes = 0
        self.sum = self.sumsq = 0.0

    def push(self, value):
        value = float(value)
        if self.count == self.capacity:
            old = self.buf[self.next]
            self.sum -= old
            self.sumsq -= old * old
        else:
            self.count += 1
        self.buf[self.next] = value
        self.next = (self.next + 1) % self.capacity
        self.sum += value
        self.sumsq += value * value
        self.pushes += 1
        if self.pushes % (self.capacity * 256) == 0:
            live = self.values()
            self.sum = math.fsum(live)
            self.sumsq = math.fsum(v * v for v in live)

    def values(self):
        if self.count < self.capacity:
            return self.buf[:self.count]
        return self.buf[self.next:] + self.buf[:self.next]

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    @property
    def variance(self):
        if not self.count:
            return 0.0
        m = self.mean
        return max(0.0, self.sumsq / self.count - m * m)


class Ewma:
    def __init__(self, *, alpha, k_on, k_off, hysteresis, min_samples,
                 sigma_floor, direction):
        self.alpha, self.k_on, self.k_off = alpha, k_on, k_off
        self.hysteresis, self.min_samples = hysteresis, min_samples
        self.sigma_floor, self.direction = sigma_floor, direction
        self.n = self.ignored = self.over = self.under = 0
        self.mean = self.dev = self.peak = 0.0
        self.fired = False

    def _excess(self, value):
        z = clamp(clamp(value - self.mean) / max(self.dev, self.sigma_floor))
        return -z if self.direction == "down" else \
            z if self.direction == "up" else abs(z)

    def _absorb(self, value):
        a = self.alpha
        diff = clamp(abs(value - self.mean))
        self.dev = clamp((1 - a) * self.dev + a * diff)
        self.mean = clamp((1 - a) * self.mean + a * value)

    def update(self, value):
        value = float(value)
        if not math.isfinite(value):
            self.ignored += 1
            return
        if self.n == 0:
            self.mean = value
        if self.n < self.min_samples:
            self._absorb(value)
            self.n += 1
            return
        excess = self._excess(value)
        if not self.fired:
            if excess >= self.k_on:
                self.over += 1
                if self.over >= self.hysteresis:
                    self.fired, self.peak, self.under = True, excess, 0
            else:
                self.over = 0
                self._absorb(value)
        else:
            self.peak = max(self.peak, excess)
            if excess <= self.k_off:
                self.under += 1
                if self.under >= self.hysteresis:
                    self.fired, self.over, self.under = False, 0, 0
                    self.peak = 0.0
                    self._absorb(value)
            else:
                self.under = 0
        self.n += 1


class Cusum:
    def __init__(self, *, target, slack, threshold, cap):
        self.target, self.slack = target, slack
        self.threshold, self.cap = threshold, cap
        self.n = self.ignored = 0
        self.stat = 0.0

    def update(self, value):
        value = float(value)
        if not math.isfinite(value):
            self.ignored += 1
            return
        self.stat = min(self.cap, max(
            0.0, self.stat + (value - self.target - self.slack)))
        self.n += 1


class Link:
    """All detector state of one directed link, fed one beacon at a
    time exactly as ``OnlineMonitor`` replays it."""

    def __init__(self, t):
        quality = dict(alpha=t.quality_alpha, k_on=t.quality_k_on,
                       k_off=t.quality_k_off,
                       hysteresis=t.quality_hysteresis,
                       min_samples=t.min_samples, direction="down")
        self.lqi = Ewma(sigma_floor=t.lqi_sigma_floor, **quality)
        self.rssi = Ewma(sigma_floor=t.rssi_sigma_floor, **quality)
        self.loss = Cusum(target=0.0, slack=t.loss_slack,
                          threshold=t.loss_threshold,
                          cap=2.0 * t.loss_threshold)
        self.loss_window = Window(t.window)
        self.intervals = Window(t.drift_window)
        self.baseline_window = Window(t.baseline_intervals)
        self.baseline_interval = None
        self.last_seq = None
        self.last_heard = 0.0
        self.beacons = 0
        self.channel = None

    def observe(self, t, seq, lqi, rssi, channel, now, *, fed):
        if channel is not None:
            self.channel = channel
        self.beacons += 1
        if fed and self.last_seq is not None:
            gap = (seq - self.last_seq) & 0xFFFF
            if 0 < gap <= t.max_gap:
                for _ in range(gap - 1):
                    self.loss.update(1.0)
                    self.loss_window.push(1.0)
                self.loss.update(0.0)
                self.loss_window.push(0.0)
                interval = (now - self.last_heard) / gap
                self.intervals.push(interval)
                if self.baseline_interval is None:
                    self.baseline_window.push(interval)
                    if self.baseline_window.count == \
                            self.baseline_window.capacity:
                        self.baseline_interval = self.baseline_window.mean
        self.last_seq = seq
        self.last_heard = now
        if fed:
            self.lqi.update(lqi)
            self.rssi.update(rssi)


class Listener:
    """The per-link reference for a whole beacon stream, with the
    monitor's pause/resume masking."""

    def __init__(self, thresholds):
        self.t = thresholds
        self.links = {}
        self.paused = False
        self.probed = False
        self.floor = -math.inf

    def observe_beacon(self, receiver, origin, *, seq, lqi, rssi, channel,
                       now):
        link = self.links.setdefault((origin, receiver), Link(self.t))
        fed = not (self.paused or link.last_heard < self.floor)
        link.observe(self.t, seq & 0xFFFF, lqi, rssi, channel, now, fed=fed)

    def pause(self):
        if not self.paused:
            self.paused, self.probed = True, False

    def resume(self, now):
        if self.paused:
            self.paused = False
            if self.probed:
                self.floor = float(now)
