"""The ``served_field_hybrid`` workload: ``python -m repro serve`` under load.

The server runs the paper's 30-node field in hybrid mode (probes plus
the passive listener), assessing every 10 simulated seconds at the
shipped pacing (tick 0.25 s, step 1 s).  It starts with a
``link_degrade`` plan (80 dB at 20 simulated seconds) on one of its
watched links, chosen from the seed.  An open-loop generator in the
benchmark process sends 50 requests per second, four ``GET /health``
to one ``GET /metrics``, over at most two connections at a time, and
times each request from when it was due.

Correctness: every response is a 200 whose body parses (JSON or
Prometheus text), and every ``/health`` rendered from an assessment
that began after the fault shows the degraded link as not green.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

from common import (OUT_DIR, TAIL_Q, WORKERS, BenchError, median,
                    program_env, quantile, vm_hwm_mb)
from hostspeed import Sampler
from layers import UNIT_SPAN, layer_metrics
from spans import TRACE_HEADER, GcClock, SpanLog, SpanStats, install

FLEET = "field"
RATE = 50.0                 # requests per second, open loop
METRICS_EVERY = 5           # every fifth request is GET /metrics
ASSESS_EVERY = 10.0
TICK_S = 0.25               # the server's shipped pacing
STEP_S = 1.0
FAULT_AT = 20.0
FAULT_LOSS_DB = 80.0
SETUP_STARTS = 3
#: The fleet's topology is the server's default field (``--seed 3``) on
#: every run; the benchmark seed picks the degraded link.  The assessment
#: probes the field's watched links, 18 to 22 of them depending on the
#: topology, and its duration sets the latency tail, which so varied by
#: seed more than the host's noise did.
FLEET_SEED = 3
REQUEST_TIMEOUT_S = 10.0
#: Latency recorded for a failed request: beyond any the client can time.
FAILED_LATENCY_MS = 2 * REQUEST_TIMEOUT_S * 1e3
TAIL = TAIL_Q["served_field_hybrid"]
#: Host slowness is taken over the request's lifetime widened by this.
SPEED_WINDOW_S = 0.25

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})? (\S+)$")


def fleet_inputs(seed: int) -> tuple[tuple[int, int], str]:
    """The seed's fault: ``(link, plan JSON)`` on one of the fleet's
    watched links."""
    from repro.faults import FaultPlan, FaultSpec
    from repro.serve.health import nearest_neighbor_links
    from repro.workloads import thirty_node_field
    links = nearest_neighbor_links(thirty_node_field(seed=FLEET_SEED))
    link = random.Random(seed).choice(links)
    plan = FaultPlan(name="perfbench-degrade", specs=(
        FaultSpec(kind="link_degrade", at=FAULT_AT, link=link,
                  loss_db=FAULT_LOSS_DB),))
    return link, plan.to_param()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(plan: str):
    """Launch the server; returns ``(process, port, seconds to first 200)``."""
    port = _free_port()
    os.makedirs(OUT_DIR, exist_ok=True)
    began = time.perf_counter()
    with open(os.path.join(OUT_DIR, "server.log"), "ab") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", FLEET,
             "--mode", "hybrid", "--assess-every", str(ASSESS_EVERY),
             "--tick", str(TICK_S), "--step", str(STEP_S),
             "--seed", str(FLEET_SEED), "--port", str(port),
             "--faults", plan],
            env=program_env(), stdout=subprocess.DEVNULL, stderr=err)
    try:
        while True:
            if proc.poll() is not None:
                raise BenchError(f"server exited with {proc.returncode}")
            try:
                with urllib.request.urlopen(f"http://127.0.0.1:{port}/",
                                            timeout=2.0) as resp:
                    if resp.status == 200:
                        break
            except (urllib.error.URLError, ConnectionError):
                pass
            if time.perf_counter() - began > 120.0:
                raise BenchError("server did not answer within 120 s")
            time.sleep(0.005)
    except BaseException:
        stop_server(proc)
        raise
    return proc, port, time.perf_counter() - began


def stop_server(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


async def _one(port: int, path: str, due: float, record: dict,
               slots: asyncio.Semaphore, log: SpanLog | None) -> None:
    asked = time.perf_counter()
    async with slots:
        record["wait"] = time.perf_counter() - asked
        headers = f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        span = None
        if log is not None:
            trace = log.new_trace()
            span = log.open_beside("client.request", trace=trace)
            headers += f"{TRACE_HEADER}: {trace}\r\n"
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection("127.0.0.1", port),
                REQUEST_TIMEOUT_S)
            try:
                writer.write((headers + "\r\n").encode())
                record["raw"] = await asyncio.wait_for(reader.read(),
                                                       REQUEST_TIMEOUT_S)
            finally:
                writer.close()
        except (OSError, asyncio.TimeoutError) as exc:
            record["error"] = repr(exc)
        finally:
            if span is not None:
                log.close_beside(span)
    record["done"] = time.perf_counter()
    record["latency"] = record["done"] - due


async def load(port: int, seconds: float, log: SpanLog | None = None):
    """Open-loop ``RATE`` req/s for ``seconds``; returns one record each."""
    slots = asyncio.Semaphore(WORKERS)
    tasks, records = [], []
    start = time.perf_counter() + 0.01
    for i in range(max(1, int(seconds * RATE))):
        due = start + i / RATE
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        path = "/metrics" if i % METRICS_EVERY == METRICS_EVERY - 1 \
            else "/health"
        record = {"path": path, "due": due,
                  "late": time.perf_counter() - due}
        records.append(record)
        tasks.append(asyncio.create_task(
            _one(port, path, due, record, slots, log)))
    await asyncio.gather(*tasks)
    return records


def _sim_time(text: str) -> float | None:
    """The fleet's simulated clock from a Prometheus page (None: invalid)."""
    sim = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if m is None:
            return None
        try:
            value = float(m.group(3))
        except ValueError:
            return None
        if m.group(1) == "serve_fleet_sim_time_seconds":
            sim = value
    return sim


def check(records, link, host: Sampler | None = None) -> dict:
    """Validate every response; reduce the load to its numbers.

    With ``host``, each request's latency is also divided by the host
    slowness sampled around it (see ``hostspeed.py``)."""
    key = f"{link[0]}->{link[1]}"
    failed = 0
    fault_views = 0
    sims: list[tuple[float, float]] = []
    for r in records:
        ok = False
        raw = r.pop("raw", None)
        if raw is not None:
            head, _, body = raw.partition(b"\r\n\r\n")
            r["bytes"] = len(raw)
            if head.startswith(b"HTTP/1.1 200 "):
                ok = True
                if r["path"] == "/metrics":
                    sim = _sim_time(body.decode("utf-8", "replace"))
                    ok = sim is not None
                    if ok:
                        sims.append((r["done"], sim))
                else:
                    try:
                        view = json.loads(body)["fleets"][FLEET]
                    except (ValueError, KeyError):
                        ok = False
                    else:
                        assessed = view.get("assessed_at")
                        if assessed is not None and \
                                assessed >= FAULT_AT + ASSESS_EVERY:
                            fault_views += 1
                            status = view.get("links", {}).get(key, {})
                            ok = status.get("status", "green") != "green"
        if not ok:
            failed += 1
            r["latency"] = FAILED_LATENCY_MS / 1e3
            r["corrected"] = r["latency"]
        elif host is not None:
            r["corrected"] = r["latency"] / host.over(
                r["due"] - SPEED_WINDOW_S, r["done"] + SPEED_WINDOW_S)
    if not fault_views:
        failed += 1     # the run never saw the fault assessed
    lat_ms = [r["latency"] * 1e3 for r in records]
    corrected_ms = [r.get("corrected", r["latency"]) * 1e3 for r in records]
    speed = 0.0
    if len(sims) >= 2:
        (t0, s0), (t1, s1) = sims[0], sims[-1]
        speed = (s1 - s0) / (t1 - t0)
    return {
        "attempted": len(records) + 1,
        "failed": failed,
        "lat_p50_ms": quantile(corrected_ms, 0.50),
        "lat_tail_ms": quantile(corrected_ms, TAIL),
        "raw_p50_ms": quantile(lat_ms, 0.50),
        "raw_tail_ms": quantile(lat_ms, TAIL),
        "sim_speed": speed,
        "fault_views": fault_views,
        "gen_late_ms": quantile([r["late"] * 1e3 for r in records], 0.99),
        "conn_wait_ms": quantile([r.get("wait", 0.0) * 1e3
                                  for r in records], 0.99),
        "response_bytes": sum(r.get("bytes", 0) for r in records)
        / len(records),
    }


def _served_load(seed: int, seconds: float, setups: int):
    """Start the server ``setups`` times (keeping the last) and load it."""
    link, plan = fleet_inputs(seed)
    setup_times = []
    proc = None
    try:
        with Sampler() as host:
            for n in range(setups):
                began = time.perf_counter()
                proc, port, took = start_server(plan)
                setup_times.append(took / host.over(began, began + took))
                if n < setups - 1:
                    stop_server(proc)
        with Sampler() as host:
            records = asyncio.run(load(port, seconds))
        peak_mb = vm_hwm_mb(proc.pid)
    finally:
        if proc is not None:
            stop_server(proc)
    result = check(records, link, host)
    result.update(setup_s=median(setup_times), peak_rss_mb=peak_mb,
                  link=link)
    return result


def run_untraced(seed: int, seconds: float) -> dict:
    res = _served_load(seed, seconds, SETUP_STARTS)
    return {
        "metrics": {
            "setup_s": res["setup_s"],
            "sim_speed": res["sim_speed"],
            "peak_rss_mb": res["peak_rss_mb"],
            "lat_p50_ms": res["lat_p50_ms"],
            "lat_tail_ms": res["lat_tail_ms"],
        },
        "attempted": res["attempted"],
        "failed": res["failed"],
        "detail": {"requests": res["attempted"] - 1,
                   "tail_quantile": TAIL,
                   "raw_p50_ms": res["raw_p50_ms"],
                   "raw_tail_ms": res["raw_tail_ms"],
                   "error_rate": res["failed"] / res["attempted"],
                   "fault_link": list(res["link"]),
                   "fault_views": res["fault_views"],
                   "gen_late_p99_ms": res["gen_late_ms"],
                   "conn_wait_p99_ms": res["conn_wait_ms"]},
    }


async def _in_process(plan: str, seconds: float, log: SpanLog,
                      gc_clock: GcClock):
    from repro.serve import ServeApp, build_fleet
    fleet = build_fleet(FLEET, seed=FLEET_SEED, assess_every=ASSESS_EVERY,
                        fault_plan=plan, mode="hybrid")
    app = ServeApp([fleet], tick_s=TICK_S, step_s=STEP_S)
    medium, monitor = fleet.testbed.medium, fleet.monitor
    before = (monitor.counter("medium.transmissions"),
              medium.candidates_considered, medium.candidates_pruned)
    inst = install(log)
    try:
        gc_clock.active = True
        unit = log.open(UNIT_SPAN)
        await app.start(port=0)
        try:
            records = await load(app.port, seconds, log)
        finally:
            await app.stop()
        log.close(unit)
        gc_clock.active = False
    finally:
        inst.remove()
    after = (monitor.counter("medium.transmissions"),
             medium.candidates_considered, medium.candidates_pruned)
    delta = [b - a for a, b in zip(before, after)]
    return fleet, records, delta, inst.skipped


def _replay(plan: str, ticks: int) -> tuple[str, float]:
    """The same fleet advanced the same ticks without serving or tracing:
    its packet digest and the seconds its ``advance`` calls took."""
    from repro.serve import build_fleet
    fleet = build_fleet(FLEET, seed=FLEET_SEED, assess_every=ASSESS_EVERY,
                        fault_plan=plan, mode="hybrid")
    began = time.perf_counter()
    for _ in range(ticks):
        fleet.advance(STEP_S)
    took = time.perf_counter() - began
    return fleet.monitor.packet_digest(), took


def run_traced(seed: int, seconds: float) -> dict:
    """An untraced load on the real server (the client-side numbers),
    then the same load on ``ServeApp`` hosted in this process with the
    wrappers in place, then the traced fleet's ticks replayed untraced
    (the digest check and the overhead baseline)."""
    plain = _served_load(seed, seconds, 1)
    link, plan = fleet_inputs(seed)
    log = SpanLog()
    gc_clock = GcClock()
    with gc_clock:
        fleet, records, delta, skipped = asyncio.run(
            _in_process(plan, seconds, log, gc_clock))
    traced = check(records, link)
    tx, considered, pruned = delta
    replay_digest, replay_s = _replay(plan, fleet.ticks)
    same_world = fleet.monitor.packet_digest() == replay_digest
    stats = SpanStats(log)
    # Tracing overhead: the traced fleet's advance time against the same
    # ticks replayed untraced.
    overhead = stats.total_ms("FleetSupervisor.advance") / 1e3 / replay_s \
        - 1.0
    external = {"serve.response_bytes": plain["response_bytes"],
                "serve.gen_late_ms": plain["gen_late_ms"],
                "serve.conn_wait_ms": plain["conn_wait_ms"]}
    values, missing = layer_metrics(
        stats, tx=tx, units=1, considered=considered, pruned=pruned,
        gc_ns=gc_clock.ns, gc_collections=gc_clock.collections,
        overhead_frac=overhead, external=external)
    path = log.write(os.path.join(
        OUT_DIR, f"spans-served_field_hybrid-seed{seed}.npz"))
    return {
        "metrics": values,
        "attempted": plain["attempted"] + traced["attempted"] + 1,
        "failed": plain["failed"] + traced["failed"] + (not same_world),
        "detail": {"requests": len(records), "spans": len(log),
                   "traced_equals_untraced": same_world,
                   "min_self_ns": stats.min_self_ns(),
                   "open_spans": stats.open_spans,
                   "not_applicable": missing, "span_file": path,
                   "skipped_hooks": skipped},
    }
