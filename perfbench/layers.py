"""Per-layer metrics: their names, units, and how spans reduce to them.

Every traced run prints every metric below.  A metric whose boundary
is never crossed on a workload (no ``OnlineMonitor`` on ``city1k``, no
HTTP on the campaign) prints 0 and is listed with the reason under
``not_applicable`` in the run's detail line.
"""

from __future__ import annotations

from spans import SpanStats

#: Fault kinds of the diagnosis campaign, in report order.
KINDS = ("clock_drift", "interference_burst", "link_degrade", "node_crash",
         "node_reboot", "packet_corrupt", "queue_saturate")

UNIT_SPAN = "bench.unit"
#: The host-speed kernel run between timed steps (see ``hostspeed.py``).
CALIBRATE_SPAN = "bench.calibrate"

#: ``(name, unit, better)`` of every per-layer metric, in print order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("sim.self_frac", "frac", "lower"),
    ("radio.transmit_us", "us", "lower"),
    ("radio.complete_self_us", "us", "lower"),
    ("radio.cca_us", "us", "lower"),
    ("radio.cca_busy_frac", "frac", "lower"),
    ("radio.prr_us_per_tx", "us", "lower"),
    ("radio.candidates_per_tx", "count", "lower"),
    ("radio.pruned_frac", "frac", "higher"),
    ("radio.deliveries_per_tx", "count", "lower"),
    ("mac.rx_self_us", "us", "lower"),
    ("mac.send_calls", "count", "lower"),
    ("net.decodes_per_tx", "count", "lower"),
    ("net.decode_us", "us", "lower"),
    ("net.dispatch_self_us", "us", "lower"),
    ("kernel.beacon_self_us", "us", "lower"),
    ("diag.online.observe_us", "us", "lower"),
    ("diag.online.poll_ms", "ms", "lower"),
    ("diag.engine.run_ms_p50", "ms", "lower"),
    ("diag.engine.run_ms_p90", "ms", "lower"),
    ("diag.probe.run_ms", "ms", "lower"),
    ("diag.probe.fail_frac", "frac", "lower"),
    ("core.request_ms", "ms", "lower"),
    ("core.request_fail_frac", "frac", "lower"),
    ("serve.advance_ms_p50", "ms", "lower"),
    ("serve.advance_ms_max", "ms", "lower"),
    ("serve.assess_ms", "ms", "lower"),
    ("serve.health_render_ms", "ms", "lower"),
    ("serve.metrics_render_ms", "ms", "lower"),
    ("serve.response_bytes", "bytes", "lower"),
    ("serve.gen_late_ms", "ms", "lower"),
    ("serve.conn_wait_ms", "ms", "lower"),
    ("obs.trace_events_per_tx", "count", "lower"),
    ("campaign.cell_s_p50", "s", "lower"),
    ("campaign.cell_s_p90", "s", "lower"),
    ("campaign.busy_frac", "frac", "higher"),
    ("campaign.attempts_per_cell", "count", "lower"),
    ("campaign.cells_per_s", "1/s", "higher"),
    ("diag.quality.precision", "frac", "higher"),
    ("diag.quality.recall", "frac", "higher"),
    *[(f"diag.quality.{kind}.{part}", "count",
       "higher" if part == "tp" else "lower")
      for kind in KINDS for part in ("tp", "fp", "fn")],
    ("py.gc_ms", "ms", "lower"),
    ("py.gc_collections", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_frac", "frac", "lower"),
]

_SIMS = ["field100_passive", "city1k"]
_SERVED = ["served_field_hybrid"]
_CAMPAIGN = ["diagnosis_campaign"]

#: Which end-to-end metric each layer's metrics should move, and on
#: which workloads: written down before any change is measured.
MOVES: dict[str, dict] = {
    "sim.": {"moves": ["sim_speed"], "on": _SIMS},
    "radio.": {"moves": ["sim_speed"], "on": _SIMS,
               "note": "candidate pruning and caches matter most on city1k"},
    "mac.": {"moves": ["sim_speed"], "on": ["field100_passive"]},
    "net.": {"moves": ["sim_speed"], "on": _SIMS,
             "note": "about 12 decodes per transmission on the field, "
                     "10 on the city"},
    "kernel.": {"moves": ["sim_speed"], "on": _SIMS},
    "diag.online.": {"moves": ["sim_speed"], "on": ["field100_passive"],
                     "note": "no OnlineMonitor on city1k: a tap-only change "
                             "must read as no change there"},
    "diag.engine.": {"moves": ["sim_speed", "lat_tail_ms"],
                     "on": _CAMPAIGN + _SERVED},
    "diag.probe.": {"moves": ["sim_speed", "lat_tail_ms"],
                    "on": _CAMPAIGN + _SERVED},
    "core.": {"moves": ["sim_speed", "lat_tail_ms"],
              "on": _CAMPAIGN + _SERVED},
    "serve.advance_ms_p50": {"moves": ["lat_tail_ms"], "on": _SERVED},
    "serve.advance_ms_max": {"moves": ["lat_tail_ms"], "on": _SERVED},
    "serve.assess_ms": {"moves": ["lat_tail_ms"], "on": _SERVED},
    "serve.health_render_ms": {"moves": ["lat_p50_ms"], "on": _SERVED},
    "serve.metrics_render_ms": {"moves": ["lat_p50_ms"], "on": _SERVED},
    "serve.response_bytes": {"moves": ["lat_p50_ms"], "on": _SERVED},
    "serve.gen_late_ms": {"moves": [], "on": _SERVED,
                          "note": "checks the load generator; must stay ~0"},
    "serve.conn_wait_ms": {"moves": ["lat_tail_ms"], "on": _SERVED,
                           "note": "waits behind a blocked event loop"},
    "obs.": {"moves": ["sim_speed"], "on": _SERVED},
    "campaign.": {"moves": ["sim_speed", "lat_p50_ms", "lat_tail_ms"],
                  "on": _CAMPAIGN,
                  "note": "sim_speed on the campaign is proportional to "
                          "cells per second for a fixed seed"},
    "diag.quality.": {"moves": [], "on": _CAMPAIGN,
                      "note": "exact for a seed; diagnosis quality, not "
                              "speed"},
    "py.": {"moves": ["sim_speed", "peak_rss_mb"], "on": ["city1k"]},
    "trace.": {"moves": [], "on": _SIMS + _SERVED + _CAMPAIGN,
               "note": "checks the trace itself"},
}

#: Metrics the benchmark measures itself rather than from spans; a
#: workload that does not supply one gets it listed as not applicable.
EXTERNAL = {
    "serve.response_bytes": "no HTTP client on this workload",
    "serve.gen_late_ms": "no HTTP client on this workload",
    "serve.conn_wait_ms": "no HTTP client on this workload",
    "campaign.cell_s_p50": "no campaign on this workload",
    "campaign.cell_s_p90": "no campaign on this workload",
    "campaign.busy_frac": "no campaign on this workload",
    "campaign.attempts_per_cell": "no campaign on this workload",
    "campaign.cells_per_s": "no campaign on this workload",
    "diag.quality.precision": "no scored fault plan on this workload",
    "diag.quality.recall": "no scored fault plan on this workload",
    **{f"diag.quality.{kind}.{part}": "no scored fault plan on this "
       "workload" for kind in KINDS for part in ("tp", "fp", "fn")},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(st: SpanStats, *, tx: int, units: int, considered: int,
                  pruned: int, gc_ns: int, gc_collections: int,
                  overhead_frac: float, external: dict,
                  ) -> tuple[dict[str, float], dict[str, str]]:
    """Reduce one traced run to every per-layer metric.

    ``tx`` is the number of radio transmissions inside the traced
    units, ``units`` the number of traced units (repetitions, passes,
    load phases), ``considered``/``pruned`` the medium's candidate
    totals over them, and ``external`` the metrics the workload
    measured itself (client timings, pool statistics, scores).
    """
    counts = st.log.counts
    values: dict[str, float] = {}
    missing: dict[str, str] = {}

    def spans(metric: str, *names: str):
        if not st.count(*names):
            missing[metric] = "no " + " / ".join(names) + " calls"
        return names

    run = spans("sim.self_frac", "Environment.run")
    outer = st.outermost("Environment.run")
    values["sim.self_frac"] = _ratio(
        st.total_ms(*run, self_time=True),
        float(st.dur_ns[outer].sum()) / 1e6 if outer else 0.0)

    values["radio.transmit_us"] = st.mean_us(
        *spans("radio.transmit_us", "RadioMedium.transmit"))
    values["radio.complete_self_us"] = st.mean_us(
        *spans("radio.complete_self_us", "RadioMedium._complete"),
        self_time=True)
    cca = spans("radio.cca_us", "RadioMedium.cca_busy")
    values["radio.cca_us"] = st.mean_us(*cca)
    spans("radio.cca_busy_frac", *cca)
    values["radio.cca_busy_frac"] = _ratio(counts["radio.cca_busy"],
                                           st.count(*cca))
    values["radio.prr_us_per_tx"] = _ratio(
        st.total_ms(*spans("radio.prr_us_per_tx",
                           "packet_reception_ratio")) * 1e3, tx)
    if not tx:
        for name in ("radio.candidates_per_tx", "radio.pruned_frac",
                     "radio.deliveries_per_tx", "net.decodes_per_tx",
                     "obs.trace_events_per_tx"):
            missing[name] = "no radio transmissions"
    values["radio.candidates_per_tx"] = _ratio(considered, tx)
    values["radio.pruned_frac"] = _ratio(pruned, considered + pruned)
    deliver = spans("mac.rx_self_us", "Transceiver.deliver")
    values["radio.deliveries_per_tx"] = _ratio(st.count(*deliver), tx)
    values["mac.rx_self_us"] = st.mean_us(*deliver, self_time=True)
    values["mac.send_calls"] = _ratio(counts["CsmaMac.send"], units)
    if not counts["CsmaMac.send"]:
        missing["mac.send_calls"] = "no CsmaMac.send calls"

    decode = spans("net.decode_us", "Packet.from_bytes")
    values["net.decodes_per_tx"] = _ratio(st.count(*decode), tx)
    values["net.decode_us"] = st.mean_us(*decode)
    values["net.dispatch_self_us"] = st.mean_us(
        *spans("net.dispatch_self_us", "PortMap.dispatch",
               "PortMap.dispatch[beacon]"), self_time=True)
    values["kernel.beacon_self_us"] = st.mean_us(
        *spans("kernel.beacon_self_us", "PortMap.dispatch[beacon]"),
        self_time=True)

    values["diag.online.observe_us"] = st.mean_us(
        *spans("diag.online.observe_us", "OnlineMonitor.observe_beacon"))
    values["diag.online.poll_ms"] = st.mean_us(
        *spans("diag.online.poll_ms", "OnlineMonitor.poll")) / 1e3
    engine = spans("diag.engine.run_ms_p50", "DiagnosisEngine.run")
    spans("diag.engine.run_ms_p90", *engine)
    values["diag.engine.run_ms_p50"] = st.quantile_ms(engine[0], 0.5)
    values["diag.engine.run_ms_p90"] = st.quantile_ms(engine[0], 0.9)
    probe = spans("diag.probe.run_ms", "ProbeExecutor.run")
    spans("diag.probe.fail_frac", *probe)
    values["diag.probe.run_ms"] = st.mean_us(*probe) / 1e3
    values["diag.probe.fail_frac"] = _ratio(counts["diag.probe.fail"],
                                            st.count(*probe))
    request = spans("core.request_ms", "Workstation.request")
    spans("core.request_fail_frac", *request)
    values["core.request_ms"] = st.mean_us(*request) / 1e3
    values["core.request_fail_frac"] = _ratio(counts["core.request.fail"],
                                              st.count(*request))

    advance = spans("serve.advance_ms_p50", "FleetSupervisor.advance")
    spans("serve.advance_ms_max", *advance)
    values["serve.advance_ms_p50"] = st.quantile_ms(advance[0], 0.5)
    values["serve.advance_ms_max"] = st.max_ms(advance[0])
    values["serve.assess_ms"] = st.mean_us(
        *spans("serve.assess_ms", "HealthAssessor.assess")) / 1e3
    values["serve.health_render_ms"] = st.mean_us(
        *spans("serve.health_render_ms", "HealthAssessor.health")) / 1e3
    values["serve.metrics_render_ms"] = st.mean_us(
        *spans("serve.metrics_render_ms", "metrics_to_prometheus")) / 1e3

    values["obs.trace_events_per_tx"] = _ratio(counts["Tracer.emit"], tx)
    if tx and not counts["Tracer.emit"]:
        missing["obs.trace_events_per_tx"] = "tracer disabled"

    values["py.gc_ms"] = _ratio(gc_ns / 1e6, units)
    values["py.gc_collections"] = _ratio(gc_collections, units)
    values["trace.overhead_frac"] = overhead_frac
    values["trace.unattributed_frac"] = _ratio(
        st.total_ms(UNIT_SPAN, self_time=True), st.total_ms(UNIT_SPAN))

    for name, reason in EXTERNAL.items():
        if name in external:
            values[name] = float(external[name])
        else:
            values[name] = 0.0
            missing[name] = reason
    for name, _, _ in PER_LAYER:
        if name in missing:
            values[name] = 0.0
    return values, missing
