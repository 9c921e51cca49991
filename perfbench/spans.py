"""Outside-in span tracing: wrappers around the program's layer boundaries.

Nothing here edits the program.  :func:`install` replaces a fixed set of
public entry points (plus two private hooks that only sharpen the
attribution and are skipped when absent) with wrappers that record one
span per call: a name, a start and an end in host nanoseconds, the
enclosing span, and a trace id.  The spans of one radio transmission,
one HTTP request or one campaign cell share a trace id.  Spans live in
flat in-memory arrays and are written to ``perfbench/out`` at exit.

A span's *self time* is its duration minus the durations of the spans
nested directly inside it.  Synchronous calls nest strictly, so the
parent of a span is whatever span was open when it started.  The
management-request generator (``Workstation.request``) interleaves with
the event loop, so its span is recorded *beside* the stack: it has a
parent but is never anyone's parent, and no self time is taken from it.
"""

from __future__ import annotations

import gc
import json
import os
import time
from array import array
from collections import Counter

from common import quantile

#: Port number of kernel neighbor beacons (``WellKnownPorts.NEIGHBOR``).
BEACON_PORT = 2
#: Request header carrying the load generator's trace id.
TRACE_HEADER = "X-Perfbench-Trace"


class SpanLog:
    """Columnar span store plus plain event counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace = array("q")
        self.nested = array("b")        # 1: on the call stack; 0: beside it
        self.stack: list[int] = [-1]    # sentinel: top-level parent is -1
        self.trace_id = 0               # trace of whatever runs right now
        self._last_trace = 0
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_trace(self) -> int:
        self._last_trace += 1
        return self._last_trace

    def open(self, name: str) -> int:
        """Open a span on the stack (for code the benchmark itself runs)."""
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.trace.append(self.trace_id)
        self.nested.append(1)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        popped = self.stack.pop()
        if popped != i:
            raise RuntimeError(f"span {i} closed out of order ({popped})")

    def open_beside(self, name: str, trace: int | None = None) -> int:
        """Open a span that is not pushed on the stack (interleaved work)."""
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.trace.append(self.trace_id if trace is None else trace)
        self.nested.append(0)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return i

    def close_beside(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str) -> str:
        """Write every span and counter (numpy ``.npz``); returns the path."""
        import numpy as np
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path,
                 names=np.array(json.dumps(self.names)),
                 counts=np.array(json.dumps(dict(self.counts))),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 trace=np.frombuffer(self.trace, dtype=np.int64),
                 nested=np.frombuffer(self.nested, dtype=np.int8))
        return path


def _span(log: SpanLog, name: str, fn, *, trace_of=None, after=None):
    """Wrap ``fn`` so every call records one stacked span named ``name``.

    ``trace_of(args)`` picks the trace id the call (and everything
    nested in it) runs under; ``after(args, result)`` sees the result.
    The variants are separate closures so the hot wrappers stay lean.
    """
    nid = log.name_id(name)
    names, starts, ends = log.name, log.start, log.end
    parents, traces, nested, stack = (log.parent, log.trace, log.nested,
                                      log.stack)
    clock = time.perf_counter_ns

    if trace_of is None and after is None:
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            traces.append(log.trace_id)
            nested.append(1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return wrapper

    def traced_wrapper(*args, **kwargs):
        outer = log.trace_id
        tid = trace_of(args) if trace_of is not None else outer
        log.trace_id = tid
        i = len(starts)
        names.append(nid)
        parents.append(stack[-1])
        traces.append(tid)
        nested.append(1)
        ends.append(0)
        stack.append(i)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[i] = clock()
            stack.pop()
            log.trace_id = outer
        if after is not None:
            after(args, result)
        return result
    return traced_wrapper


def _count(log: SpanLog, key: str, fn):
    """Wrap ``fn`` so every call bumps ``log.counts[key]`` (no span)."""
    counts = log.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


class Installation:
    """The wrappers in place; :meth:`remove` restores every original."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []
        #: Trace id of each frame's latest transmission, keyed by
        #: ``id(frame)``; rewritten at every transmit, so a recycled id
        #: can never leak an old transmission's trace.
        self.frame_trace: dict[int, int] = {}
        #: ``RunResult``s of the cells executed while installed.
        self.cells: list = []

    def patch(self, owner, attr: str, make, *, optional: bool = False):
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else \
            getattr(owner, attr, None)
        if raw is None:
            if optional:
                self.skipped.append(f"{getattr(owner, '__name__', owner)}."
                                    f"{attr}")
                return
            raise AttributeError(f"{owner!r} has no {attr!r} to trace")
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def install(log: SpanLog) -> Installation:
    """Wrap every traced boundary; call ``.remove()`` to undo."""
    import repro.campaign.runner as runner
    import repro.radio.medium as medium_mod
    import repro.serve.app as app_mod
    from repro.core.workstation import Workstation
    from repro.diag.engine import DiagnosisEngine
    from repro.diag.online import OnlineMonitor
    from repro.diag.probe import ProbeExecutor
    from repro.mac.csma import CsmaMac
    from repro.net.packet import Packet
    from repro.net.ports import PortMap
    from repro.obs.trace import Tracer
    from repro.radio.medium import RadioMedium, Transceiver
    from repro.serve.fleet import FleetSupervisor
    from repro.serve.health import HealthAssessor
    from repro.sim.engine import Environment

    inst = Installation()
    frame_trace = inst.frame_trace
    counts = log.counts

    def new_tx(args):
        tid = log.new_trace()
        frame_trace[id(args[2])] = tid         # transmit(self, xcvr, frame)
        return tid

    def tx_of_arrival(args):
        return frame_trace.get(id(args[1].frame), log.trace_id)

    def tx_of_complete(args):
        return frame_trace.get(id(args[2]), log.trace_id)

    def cca_result(args, busy):
        counts["radio.cca_busy"] += bool(busy)

    def probe_result(args, outcome):
        counts["diag.probe.fail"] += not outcome.ok

    def cell_result(args, result):
        inst.cells.append(result)

    def new_trace(args):
        return log.new_trace()

    def request_trace(args):
        # The in-process load generator names its request's trace in a
        # header, so client- and server-side spans share one id.
        header = args[1].headers.get(TRACE_HEADER.lower())
        return int(header) if header else log.new_trace()

    span = lambda name, **kw: (lambda fn: _span(log, name, fn, **kw))  # noqa: E731

    inst.patch(Environment, "run", span("Environment.run"))
    inst.patch(RadioMedium, "transmit", span("RadioMedium.transmit",
                                             trace_of=new_tx))
    inst.patch(RadioMedium, "_complete",
               span("RadioMedium._complete", trace_of=tx_of_complete),
               optional=True)
    inst.patch(RadioMedium, "cca_busy", span("RadioMedium.cca_busy",
                                             after=cca_result))
    inst.patch(medium_mod, "packet_reception_ratio",
               span("packet_reception_ratio"))
    inst.patch(Transceiver, "deliver", span("Transceiver.deliver",
                                            trace_of=tx_of_arrival))
    inst.patch(CsmaMac, "send", lambda fn: _count(log, "CsmaMac.send", fn))
    inst.patch(Packet, "from_bytes", span("Packet.from_bytes"))
    inst.patch(PortMap, "dispatch", lambda fn: _dispatch_span(log, fn))
    inst.patch(OnlineMonitor, "observe_beacon",
               span("OnlineMonitor.observe_beacon"))
    inst.patch(OnlineMonitor, "poll", span("OnlineMonitor.poll"))
    inst.patch(DiagnosisEngine, "run", span("DiagnosisEngine.run"))
    inst.patch(ProbeExecutor, "run", span("ProbeExecutor.run",
                                          after=probe_result))
    inst.patch(Workstation, "request", lambda fn: _request_span(log, fn))
    inst.patch(FleetSupervisor, "advance", span("FleetSupervisor.advance"))
    inst.patch(HealthAssessor, "assess", span("HealthAssessor.assess"))
    inst.patch(HealthAssessor, "health", span("HealthAssessor.health"))
    inst.patch(app_mod, "metrics_to_prometheus",
               span("metrics_to_prometheus"))
    inst.patch(app_mod.ServeApp, "_dispatch",
               span("ServeApp._dispatch", trace_of=request_trace),
               optional=True)
    inst.patch(Tracer, "emit", lambda fn: _count(log, "Tracer.emit", fn))
    inst.patch(runner, "execute_spec",
               span("execute_spec", trace_of=new_trace, after=cell_result))
    return inst


def _dispatch_span(log: SpanLog, fn):
    """``PortMap.dispatch``, named apart when it carries a beacon."""
    beacon = _span(log, "PortMap.dispatch[beacon]", fn)
    other = _span(log, "PortMap.dispatch", fn)

    def wrapper(self, packet, arrival):
        if packet.port == BEACON_PORT:
            return beacon(self, packet, arrival)
        return other(self, packet, arrival)
    return wrapper


def _request_span(log: SpanLog, fn):
    """``Workstation.request`` is a generator the event loop resumes; its
    span runs from the first resume to the return, beside the stack."""
    counts = log.counts

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        i = log.open_beside("Workstation.request")
        try:
            return (yield from inner)
        except Exception:
            counts["core.request.fail"] += 1
            raise
        finally:
            log.close_beside(i)
    return wrapper


class GcClock:
    """Time spent in, and number of, cyclic-GC collections while active."""

    def __init__(self) -> None:
        self.ns = 0
        self.collections = 0
        self.active = False
        self._t0 = 0

    def __call__(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._t0 = time.perf_counter_ns()
        elif self._t0:
            self.ns += time.perf_counter_ns() - self._t0
            self.collections += 1
            self._t0 = 0

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


# -- reduction ---------------------------------------------------------------

class SpanStats:
    """Per-name counts, durations and self times of a :class:`SpanLog`."""

    def __init__(self, log: SpanLog) -> None:
        import numpy as np
        n = len(log)
        self.log = log
        name = np.frombuffer(log.name, dtype=np.int32)[:n]
        start = np.frombuffer(log.start, dtype=np.int64)[:n]
        end = np.frombuffer(log.end, dtype=np.int64)[:n]
        parent = np.frombuffer(log.parent, dtype=np.int64)[:n]
        nested = np.frombuffer(log.nested, dtype=np.int8)[:n].astype(bool)
        # Only a side span can still be open here (a request generator
        # the event loop never finished); it counts with zero duration.
        still_open = end == 0
        self.open_spans = int(still_open.sum())
        dur = np.where(still_open, 0, end - start)
        child = np.zeros(n, dtype=np.int64)
        has_parent = nested & (parent >= 0)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self.self_ns = dur - child
        self.dur_ns = dur
        self.name = name
        self.parent = parent
        self.nested = nested
        self._np = np

    def ids(self, name: str):
        nid = self.log._ids.get(name)
        if nid is None:
            return self._np.zeros(0, dtype=self._np.int64)
        return self._np.flatnonzero(self.name == nid)

    def count(self, *names: str) -> int:
        return sum(len(self.ids(n)) for n in names)

    def total_ms(self, *names: str, self_time: bool = False) -> float:
        arr = self.self_ns if self_time else self.dur_ns
        return sum(float(arr[self.ids(n)].sum()) for n in names) / 1e6

    def mean_us(self, *names: str, self_time: bool = False) -> float:
        n = self.count(*names)
        return self.total_ms(*names, self_time=self_time) * 1e3 / n if n \
            else 0.0

    def quantile_ms(self, name: str, q: float) -> float:
        idx = self.ids(name)
        return quantile((self.dur_ns[idx] / 1e6).tolist(), q) if len(idx) \
            else 0.0

    def max_ms(self, name: str) -> float:
        idx = self.ids(name)
        return float(self.dur_ns[idx].max()) / 1e6 if len(idx) else 0.0

    def outermost(self, name: str):
        """Spans of ``name`` with no ancestor of the same name."""
        nid = self.log._ids.get(name)
        out = []
        for i in self.ids(name):
            p = self.parent[i]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                out.append(i)
        return out

    def min_self_ns(self) -> int:
        return int(self.self_ns.min()) if len(self.self_ns) else 0
