"""The scenario registry and the built-in campaign cells.

A *scenario* is a spawn-safe callable ``fn(seed, **params)`` that builds
a world, runs it, and returns either the :class:`~repro.kernel.testbed.
Testbed` (the runner snapshots its monitor) or a ``(testbed, values)``
pair where ``values`` is a JSON-able dict of scalar observables.
Scenarios are addressed by registry name or by a ``"module:function"``
reference, so worker processes can re-import them after a ``spawn``
start — never by closure.

The built-ins below are the cells the figure benches, the sweep benches
and the examples share: one traceroute experiment, one RSSI sweep at a
power level, one overhead measurement at a hop count, one protocol-
comparison ping run, one LQI-ablation run, and plain beaconing fields
for throughput/scaling work.
"""

from __future__ import annotations

import importlib
import typing as _t

__all__ = ["scenario", "resolve_scenario", "scenario_names"]

_SCENARIOS: dict[str, _t.Callable] = {}


def scenario(name: str) -> _t.Callable:
    """Decorator: register a scenario under ``name``."""
    def register(fn: _t.Callable) -> _t.Callable:
        if name in _SCENARIOS and _SCENARIOS[name] is not fn:
            raise ValueError(f"scenario {name!r} already registered")
        _SCENARIOS[name] = fn
        return fn
    return register


def resolve_scenario(ref: str) -> _t.Callable:
    """A scenario by registry name or ``"module:function"`` reference."""
    fn = _SCENARIOS.get(ref)
    if fn is not None:
        return fn
    if ":" in ref:
        module_name, _, qualname = ref.partition(":")
        module = importlib.import_module(module_name)
        obj: object = module
        for part in qualname.split("."):
            obj = getattr(obj, part)
        if not callable(obj):
            raise TypeError(f"{ref!r} resolved to non-callable {obj!r}")
        return obj
    raise KeyError(
        f"unknown scenario {ref!r}; registered: {scenario_names()} "
        "(or pass a 'module:function' reference)"
    )


def scenario_names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(_SCENARIOS)


# ---------------------------------------------------------------------------
# Built-in cells
# ---------------------------------------------------------------------------

@scenario("beacon_field")
def beacon_field(seed: int, *, nodes: int = 30, minutes: float = 1.0):
    """A full LiteView field beaconing for ``minutes`` simulated minutes.

    The throughput/scaling workload: no commands, just the kernel's
    beacon traffic over the vectorized medium.
    """
    from repro.core.deploy import deploy_liteview
    from repro.workloads import (
        hundred_node_field,
        thirty_node_field,
        thousand_node_city,
    )
    if nodes == 30:
        testbed = thirty_node_field(seed=seed)
    elif nodes == 100:
        testbed = hundred_node_field(seed=seed)
    elif nodes == 1000:
        testbed = thousand_node_city(seed=seed)
    else:
        raise ValueError(
            f"beacon_field supports 30, 100 or 1000 nodes, got {nodes}")
    deploy_liteview(testbed, warm_up=60.0 * minutes)
    return testbed, {
        "transmissions": testbed.monitor.counter("medium.transmissions"),
    }


@scenario("chain_beacons")
def chain_beacons(seed: int, *, nodes: int = 5, seconds: float = 20.0,
                  spacing: float = 60.0, fault_plan: object = None):
    """A small deterministic chain beaconing for ``seconds`` — the cheap
    cell the CI campaign smoke and the golden sharding tests use.

    ``fault_plan`` (canonical JSON or ``None``) injects faults before
    the run starts; ``None`` leaves the world byte-identical to the
    historical plan-free cell.
    """
    from repro.core.deploy import deploy_liteview
    from repro.faults import install_faults
    from repro.workloads import build_chain
    from repro.workloads.scenarios import QUIET_PROPAGATION
    testbed = build_chain(int(nodes), spacing=spacing, seed=seed,
                          propagation_kwargs=QUIET_PROPAGATION)
    install_faults(testbed, fault_plan)
    deploy_liteview(testbed, warm_up=seconds)
    return testbed, {
        "transmissions": testbed.monitor.counter("medium.transmissions"),
    }


@scenario("chaos_chain")
def chaos_chain(seed: int, *, nodes: int = 8, fault_plan: object = None,
                rounds: int = 4, length: int = 16, spacing: float = 60.0):
    """The chaos cell: a chain runs ping and traceroute *through* a fault
    plan and reports what the diagnosis tooling saw.

    Deployment warm-up takes the first 15 simulated seconds, so plans
    should schedule faults at ``at >= 15`` to hit the command phase.
    Commands may fail — that is the point — but they always return;
    values record delivery counts, traceroute reach, and the injector's
    activation tally.
    """
    from repro.core.deploy import deploy_liteview
    from repro.faults import install_faults
    from repro.workloads import build_chain
    from repro.workloads.scenarios import QUIET_PROPAGATION
    testbed = build_chain(int(nodes), spacing=spacing, seed=seed,
                          propagation_kwargs=QUIET_PROPAGATION)
    injector = install_faults(testbed, fault_plan)
    dep = deploy_liteview(testbed, warm_up=15.0)
    target = int(nodes)
    proc = testbed.env.process(
        dep.ping_services[1].ping(target, rounds=rounds, length=length,
                                  routing_port=10)
    )
    ping_result = testbed.env.run(until=proc)
    proc = testbed.env.process(
        dep.traceroute_services[1].traceroute(target, rounds=1,
                                              length=length,
                                              routing_port=10)
    )
    tr_result = testbed.env.run(until=proc)
    return testbed, {
        "ping_received": int(ping_result.received),
        "ping_rounds": int(rounds),
        "reached_target": bool(tr_result.reached_target),
        "hops_reported": len(tr_result.hops),
        "activations": dict(injector.activations) if injector else {},
    }


@scenario("diagnosis_sweep")
def diagnosis_sweep(seed: int, *, nodes: int = 8, fault_plan: object = None,
                    rounds: int = 6, length: int = 16,
                    spacing: float = 60.0, settle: float = 5.0):
    """The closed loop PRs 1–4 built toward: inject a fault plan, run
    the diagnosis engine, score its findings against the ground truth.

    A chain deploys (15 s warm-up), the world advances until every
    fault has activated plus ``settle`` seconds, then the engine
    surveys every adjacent link and the scorer computes precision and
    recall of the findings against the plan's active specs.  Values are
    JSON-able, so campaigns can grid over plans, chain sizes and probe
    budgets and aggregate diagnosis quality.
    """
    from repro.core.deploy import deploy_liteview
    from repro.diag import DiagnosisEngine, ProbePlan, score_findings
    from repro.faults import FaultPlan, install_faults
    from repro.workloads import build_chain
    from repro.workloads.scenarios import QUIET_PROPAGATION
    testbed = build_chain(int(nodes), spacing=spacing, seed=seed,
                          propagation_kwargs=QUIET_PROPAGATION)
    plan = FaultPlan.from_param(fault_plan)
    install_faults(testbed, plan)
    dep = deploy_liteview(testbed, warm_up=15.0)
    latest = max((s.at for s in plan.specs), default=0.0) if plan.is_active \
        else 0.0
    lead = latest + settle - testbed.env.now
    if lead > 0:
        testbed.warm_up(lead)
    diag_start = testbed.env.now
    pairs = tuple((i, i + 1) for i in range(1, int(nodes)))
    report = DiagnosisEngine(dep).run(
        ProbePlan(links=pairs, rounds=rounds, length=length))
    score = score_findings(report.findings, plan, at=diag_start)
    return testbed, {
        "precision": score["precision"],
        "recall": score["recall"],
        "tp": score["tp"], "fp": score["fp"], "fn": score["fn"],
        "n_faults": score["n_faults"],
        "n_findings": len(report.findings),
        "findings": [f.to_dict() for f in report.findings],
    }


def _detection_fault(kind: str, nodes: int, at: float):
    """The per-kind canonical fault the detection sweep injures with."""
    from repro.faults import FaultSpec
    mid = max(2, int(nodes) // 2)
    if kind == "node_crash":
        return FaultSpec(kind=kind, at=at, nodes=(mid,))
    if kind == "node_reboot":
        return FaultSpec(kind=kind, at=at, nodes=(mid,), duration=20.0)
    if kind == "link_degrade":
        return FaultSpec(kind=kind, at=at, link=(mid, mid + 1), loss_db=80.0)
    if kind == "interference_burst":
        return FaultSpec(kind=kind, at=at, channel=17, loss_db=40.0)
    if kind == "packet_corrupt":
        return FaultSpec(kind=kind, at=at, probability=0.9, nodes=(mid,))
    if kind == "queue_saturate":
        return FaultSpec(kind=kind, at=at, nodes=(mid,), capacity=1)
    if kind == "clock_drift":
        return FaultSpec(kind=kind, at=at, nodes=(mid,), drift=0.08)
    raise ValueError(f"unknown fault kind {kind!r}")




@scenario("detection_sweep")
def detection_sweep(seed: int, *, fault_kind: str = "link_degrade",
                    nodes: int = 8, modes: object = ("active", "passive",
                                                     "hybrid"),
                    at: float = 30.0, horizon: float = 90.0,
                    assess_every: float = 20.0, poll_every: float = 2.0,
                    rounds: int = 4, length: int = 16,
                    spacing: float = 60.0):
    """Active vs. passive vs. hybrid detection, head-to-head.

    For each mode, an identical chain (same seed) is injured with one
    canonical fault of ``fault_kind`` at ``at``; the world then advances
    to ``horizon`` in ``poll_every`` steps.  Passive/hybrid runs carry an
    attached :class:`~repro.diag.online.OnlineMonitor` (polled every
    step); active/hybrid runs additionally execute the watchlist probe
    plan every ``assess_every`` simulated seconds.  Each step's combined
    findings are scored against the ground truth, recording:

    * ``<mode>_precision`` / ``<mode>_recall`` — at the detection step
      (or the final step if the fault was never fully named);
    * ``<mode>_ttd`` — time-to-detect in simulated seconds from the
      fault's activation (-1.0 if never detected);
    * ``<mode>_probe_packets`` — probe transmissions the mode injected
      (:data:`~repro.diag.online.PROBE_PACKET_KINDS`); passive must
      report 0.

    The comparison the source paper could not produce: its active
    workflow graded against a listener that costs no airtime at all.
    """
    from repro.core.deploy import deploy_liteview
    from repro.diag import (
        DiagnosisEngine,
        OnlineMonitor,
        ProbePlan,
        merge_findings,
        score_findings,
    )
    from repro.diag.online import PROBE_PACKET_KINDS
    from repro.faults import FaultPlan, install_faults
    from repro.workloads import build_chain
    from repro.workloads.scenarios import QUIET_PROPAGATION
    if isinstance(modes, str):
        modes = tuple(m.strip() for m in modes.split(",") if m.strip())
    spec = _detection_fault(fault_kind, nodes, float(at))
    values: dict = {"fault_kind": fault_kind, "fault_at": float(at)}
    testbed = None
    for mode in modes:
        if mode not in ("active", "passive", "hybrid"):
            raise ValueError(f"unknown mode {mode!r}")
        testbed = build_chain(int(nodes), spacing=spacing, seed=seed,
                              propagation_kwargs=QUIET_PROPAGATION)
        plan = FaultPlan(name=f"sweep-{fault_kind}", specs=(spec,))
        install_faults(testbed, plan)
        online = None
        if mode != "active":
            online = OnlineMonitor(testbed).attach()
        dep = deploy_liteview(testbed, warm_up=15.0)
        engine = DiagnosisEngine(dep) if mode != "passive" else None
        pairs = tuple((i, i + 1) for i in range(1, int(nodes)))
        probe_plan = ProbePlan(links=pairs, rounds=int(rounds),
                               length=int(length), scans=(1,))
        monitor = testbed.monitor
        probes_before = sum(1 for r in monitor.packets
                            if r.kind in PROBE_PACKET_KINDS)
        next_assess = testbed.env.now + float(assess_every)
        active_findings: list = []
        detect_time, detect_score, last_score = None, None, None
        while testbed.env.now < float(horizon):
            testbed.run(until=min(float(horizon),
                                  testbed.env.now + float(poll_every)))
            if engine is not None and testbed.env.now >= next_assess:
                if online is not None:
                    online.pause()  # mask self-inflicted probe congestion
                active_findings = list(engine.run(probe_plan).findings)
                if online is not None:
                    online.resume()
                next_assess += float(assess_every)
            findings = list(active_findings)
            if online is not None:
                # Subject-level dedup: hybrid must not double-name a
                # pair both the probes and the listener flagged.
                findings = merge_findings(findings, online.poll())
            now = testbed.env.now
            score = score_findings(findings, plan, at=now)
            last_score = score
            if (detect_time is None and score["n_faults"]
                    and score["recall"] >= 1.0):
                detect_time, detect_score = now, score
        final = detect_score if detect_score is not None else last_score
        probes_sent = sum(1 for r in monitor.packets
                          if r.kind in PROBE_PACKET_KINDS) - probes_before
        values[f"{mode}_precision"] = final["precision"]
        values[f"{mode}_recall"] = final["recall"]
        values[f"{mode}_ttd"] = (round(detect_time - spec.at, 6)
                                 if detect_time is not None else -1.0)
        values[f"{mode}_probe_packets"] = probes_sent
        values[f"{mode}_findings"] = final["n_findings"]
    return testbed, values


@scenario("mobile_city_survey")
def mobile_city_survey(seed: int, *, districts_x: int = 4,
                       districts_y: int = 3, per_district: int = 9,
                       patrols: int = 2, speed_mps: float = 12.0,
                       seconds: float = 60.0, mobility_plan: object = None,
                       rounds: int = 6, length: int = 16,
                       pitch: float = 1500.0):
    """Patrol nodes traversing a city while diagnosis runs: the
    churn-vs-fault discrimination cell.

    ``patrols`` surveyor nodes walk the full width of a
    ``districts_x × districts_y`` city at ``speed_mps`` (or follow an
    explicit ``mobility_plan`` — canonical JSON, a first-class campaign
    parameter like fault plans).  Mid-patrol, the diagnosis engine
    probes static intra-district links the surveyors pass through.  No
    fault is injected, so *every* finding is a false positive; the
    recorded precision baseline asserts that mobility-induced link
    churn is not misreported as ``link_degrade``-style faults
    (``link_findings`` — broken/lossy/asymmetric — should be 0).

    Values also record how much geometry actually changed
    (``mobility_updates``, ``repositions``) and the spatial-pruning
    fraction, proving motion did not degrade candidate pruning back to
    the dense regime.
    """
    from repro.core.deploy import deploy_liteview
    from repro.diag import DiagnosisEngine, ProbePlan, score_findings
    from repro.faults import FaultPlan
    from repro.radio import MobilityPlan, MobilitySpec, install_mobility
    from repro.workloads import build_city
    from repro.workloads.scenarios import QUIET_PROPAGATION

    testbed = build_city(int(districts_x), int(districts_y),
                         int(per_district), pitch=pitch, seed=seed,
                         propagation_kwargs=QUIET_PROPAGATION)
    width = (int(districts_x) - 1) * pitch + 240.0
    patrol_ids = []
    for k in range(int(patrols)):
        row = k % int(districts_y)
        y = row * pitch + 40.0 + 12.0 * k
        patrol_ids.append(testbed.add_node(f"patrol-{k}", (-60.0, y)).id)
    if mobility_plan is None:
        travel = width / float(speed_mps)
        plan = MobilityPlan(name="city-patrol", specs=tuple(
            MobilitySpec(kind="waypoint", at=15.0, nodes=(nid,),
                         waypoints=((travel, width - 60.0,
                                     (k % int(districts_y)) * pitch
                                     + 40.0 + 12.0 * k),))
            for k, nid in enumerate(patrol_ids)))
    else:
        plan = MobilityPlan.from_param(mobility_plan)
    driver = install_mobility(testbed, plan)
    dep = deploy_liteview(testbed, warm_up=15.0)
    # Advance to mid-patrol, then probe while the churn is live.
    testbed.run(until=15.0 + float(seconds) / 2.0)
    diag_start = testbed.env.now
    # Probe static links with comfortable geometry (well inside the
    # quiet-propagation range): losses on these can only come from the
    # patrol churn, never from marginal static placement.
    pairs = tuple(
        (i, i + 1) for i in range(1, int(per_district))
        if testbed.medium.distance(i, i + 1) <= 70.0)
    report = DiagnosisEngine(dep).run(
        ProbePlan(links=pairs, rounds=int(rounds), length=int(length)))
    end = 15.0 + float(seconds)
    if testbed.env.now < end:
        testbed.run(until=end)
    # Ground truth is the empty plan: every finding is a false positive.
    score = score_findings(report.findings, FaultPlan(enabled=False),
                           at=diag_start)
    monitor = testbed.monitor
    medium = testbed.medium
    pruned = medium.candidates_pruned
    total = medium.candidates_considered + pruned
    link_kinds = ("broken_link", "lossy_link", "asymmetric_link")
    return testbed, {
        "patrol_ids": list(patrol_ids),
        "moved_nodes": len(driver.updates) if driver else 0,
        "mobility_updates": monitor.counter("mobility.updates"),
        "repositions": monitor.counter("medium.repositions"),
        "pruned_fraction": (pruned / total) if total else 0.0,
        "n_findings": len(report.findings),
        "link_findings": sum(1 for f in report.findings
                             if f.kind in link_kinds),
        "false_positives": score["fp"],
        "findings": [f.to_dict() for f in report.findings],
    }


@scenario("fig5_traceroute")
def fig5_traceroute(seed: int, *, attempts: int = 6, length: int = 32):
    """Figure 5 — one 'typical experiment': the first traceroute over the
    8-hop chain whose eight per-hop reports all arrive.

    Reports travel with no retransmission, so an invocation occasionally
    loses one; ``attempts`` bounds the retries within the one world.
    Values: the per-hop arrival series plus completeness flags.
    """
    from repro.core.deploy import deploy_liteview
    from repro.workloads import eight_hop_chain
    testbed = eight_hop_chain(seed=seed)
    dep = deploy_liteview(testbed, warm_up=15.0)
    service = dep.traceroute_services[1]
    result, used = None, 0
    for attempt in range(attempts):
        proc = testbed.env.process(
            service.traceroute(9, rounds=1, length=length, routing_port=10)
        )
        result = testbed.env.run(until=proc)
        used = attempt + 1
        if result.reached_target and len(result.arrival_series_ms()) == 8:
            break
    series = result.arrival_series_ms()
    return testbed, {
        "series": [[h, d] for h, d in series],
        "complete": len(series) == 8,
        "reached_target": bool(result.reached_target),
        "attempts_used": used,
    }


@scenario("fig6_rssi_sweep")
def fig6_rssi_sweep(seed: int, *, power: int = 25, attempts: int = 8,
                    length: int = 32):
    """Figure 6 — per-hop forward/backward RSSI readings along the pinned
    corridor chain at one PA ``power`` level.

    Values: ``readings`` as ``[[hop, rssi_fwd, rssi_bwd], ...]`` from the
    first traceroute whose eight hop reports all arrive.
    """
    from repro.core.deploy import deploy_liteview
    from repro.workloads import corridor_chain
    testbed = corridor_chain(9, seed=seed)
    dep = deploy_liteview(testbed, warm_up=15.0)
    service = dep.traceroute_services[1]
    for node in testbed.nodes():
        node.radio.set_power_level(int(power))
    for _ in range(attempts):
        proc = testbed.env.process(
            service.traceroute(9, rounds=1, length=length, routing_port=10)
        )
        result = testbed.env.run(until=proc)
        readings = sorted(
            (h.hop_index, h.link.rssi_forward, h.link.rssi_backward)
            for h in result.hops
        )
        if len(readings) == 8:
            return testbed, {
                "readings": [list(r) for r in readings], "complete": True,
            }
    return testbed, {"readings": [list(r) for r in readings],
                     "complete": False}


@scenario("fig7_overhead")
def fig7_overhead(seed: int, *, hops: int = 8, probes: int = 3,
                  length: int = 32):
    """Figure 7 — control-packet cost of a traceroute over ``hops`` hops.

    Runs complete (target-reaching) traceroutes until ``probes`` costs
    are collected and reports their median, the way the bench and the
    paper summarise one chain length.
    """
    from repro.analysis import packets_between
    from repro.core.deploy import deploy_liteview
    from repro.workloads import build_chain
    from repro.workloads.scenarios import QUIET_PROPAGATION
    testbed = build_chain(hops + 1, spacing=60.0, seed=seed,
                          propagation_kwargs=QUIET_PROPAGATION)
    dep = deploy_liteview(testbed, warm_up=15.0)
    service = dep.traceroute_services[1]
    costs: list[int] = []
    guard = probes * 8
    while len(costs) < probes and guard:
        guard -= 1
        start = testbed.env.now
        proc = testbed.env.process(
            service.traceroute(hops + 1, rounds=1, length=length,
                               routing_port=10)
        )
        result = testbed.env.run(until=proc)
        if result.reached_target:
            costs.append(len(packets_between(
                testbed.monitor, start, testbed.env.now)))
    costs.sort()
    return testbed, {
        "costs": costs,
        "median_packets": costs[len(costs) // 2] if costs else None,
    }


@scenario("protocol_ping")
def protocol_ping(seed: int, *, protocol: str = "geographic",
                  rounds: int = 8, chain: int = 5, length: int = 16):
    """One protocol-comparison cell: the identical multi-hop ping command
    measured over one of the co-installed routing protocols.

    All four protocols are installed side by side (the paper's §IV-A.1
    setup); ``protocol`` picks which port the unmodified ping binary
    probes.  The collection tree has no reply path, so its cell measures
    one-way delivery instead.
    """
    from repro.analysis import packets_between
    from repro.core.deploy import deploy_liteview
    from repro.net import (
        TREE_PORT,
        DsdvRouting,
        FloodingProtocol,
        GeographicForwarding,
        TreeRouting,
        WellKnownPorts,
    )
    from repro.workloads import build_chain
    from repro.workloads.scenarios import QUIET_PROPAGATION
    ports = {
        "geographic": WellKnownPorts.GEOGRAPHIC,
        "dsdv": WellKnownPorts.DSDV,
        "tree": TREE_PORT,
        "flooding": WellKnownPorts.FLOODING,
    }
    if protocol not in ports:
        raise ValueError(f"unknown protocol {protocol!r} "
                         f"(one of {sorted(ports)})")
    testbed = build_chain(chain, spacing=60.0, seed=seed,
                          propagation_kwargs=QUIET_PROPAGATION)
    target = chain
    for node in testbed.nodes():
        node.install_protocol(GeographicForwarding)
        node.install_protocol(DsdvRouting)
        node.install_protocol(TreeRouting, root=target)
        node.install_protocol(FloodingProtocol)
    dep = deploy_liteview(testbed, protocol=None, warm_up=40.0)
    port = ports[protocol]
    start = testbed.env.now
    if protocol == "tree":
        got: list[object] = []
        testbed.node(target).stack.ports.subscribe(
            66, lambda p, a: got.append(p), name="collect")
        proto = testbed.node(1).protocol_on(port)
        for _ in range(rounds):
            proto.send(target, 66, b"collected-data", kind="tree")
            testbed.warm_up(0.2)
        received, mean_rtt = len(got), None
    else:
        service = dep.ping_services[1]
        proc = testbed.env.process(
            service.ping(target, rounds=rounds, length=length,
                         routing_port=port)
        )
        result = testbed.env.run(until=proc)
        received, mean_rtt = result.received, result.mean_rtt_ms
    packets = packets_between(testbed.monitor, start, testbed.env.now)
    return testbed, {
        "received": received, "rounds": rounds,
        "mean_rtt_ms": mean_rtt, "packets": len(packets),
    }


@scenario("lqi_ablation")
def lqi_ablation(seed: int, *, min_lqi: float = 90.0, rounds: int = 20,
                 chain: int = 7, spacing: float = 46.0):
    """The routing layer's link-quality-filter ablation: multi-hop pings
    over a chain whose two-hop 'shortcuts' sit in the gray region.

    Values: delivered round count, mean RTT of delivered rounds, and the
    non-beacon radio-packet cost of the whole run.
    """
    from repro.analysis import packets_between
    from repro.core.commands.ping import install_ping
    from repro.net import GeographicForwarding
    from repro.workloads import build_chain
    from repro.workloads.scenarios import QUIET_PROPAGATION
    testbed = build_chain(chain, spacing=spacing, seed=seed,
                          propagation_kwargs=QUIET_PROPAGATION)
    testbed.install_protocol_everywhere(
        GeographicForwarding, min_lqi=min_lqi
    )
    pings = {n.id: install_ping(n) for n in testbed.nodes()}
    testbed.warm_up(20.0)
    start = testbed.env.now
    delivered, rtts = 0, []
    for _ in range(rounds):
        proc = testbed.env.process(
            pings[1].ping(chain, rounds=1, length=16, routing_port=10)
        )
        result = testbed.env.run(until=proc)
        if result.received:
            delivered += 1
            rtts.append(result.rounds[0].rtt_ms)
    packets = packets_between(testbed.monitor, start, testbed.env.now)
    return testbed, {
        "delivered": delivered, "rounds": rounds,
        "mean_rtt_ms": (sum(rtts) / len(rtts)) if rtts else None,
        "packets": len(packets),
    }
