"""Canned testbed scenarios matching the paper's evaluation setups.

* :func:`eight_hop_chain` — "a testbed of eight hops in diameter"
  (Figures 5, 6, 7).
* :func:`thirty_node_field` — "a testbed composed of thirty MicaZ nodes"
  (§III-B.3), as a jittered 6×5 grid.
* :func:`hundred_node_field` — a 10×10 jittered grid for the long-duration
  link studies related work runs at scale; opened up by the vectorized
  medium (see docs/PERFORMANCE.md).
* All use deterministic propagation unless asked otherwise, so benches
  regenerate identical figures run over run.
"""

from __future__ import annotations

from repro.kernel.testbed import Testbed
from repro.workloads.topologies import build_chain, build_city, build_grid

__all__ = [
    "eight_hop_chain",
    "thirty_node_field",
    "hundred_node_field",
    "thousand_node_city",
    "corridor_chain",
    "QUIET_PROPAGATION",
    "REALISTIC_PROPAGATION",
]

#: Deterministic propagation: no shadowing or fading draws.  Scenario
#: realism (asymmetry, gray links) is opted into via ``realistic=True``.
QUIET_PROPAGATION = {"shadowing_sigma_db": 0.0, "fading_sigma_db": 0.0}

#: Mild, realistic stochastic propagation for diagnosis scenarios.
REALISTIC_PROPAGATION = {"shadowing_sigma_db": 3.0, "fading_sigma_db": 0.8}


def eight_hop_chain(seed: int = 1, *, spacing: float = 60.0,
                    realistic: bool = False) -> Testbed:
    """Nine nodes in a line: the paper's 8-hop-diameter testbed."""
    return build_chain(
        9, spacing=spacing, seed=seed,
        propagation_kwargs=(REALISTIC_PROPAGATION if realistic
                            else QUIET_PROPAGATION),
    )


def corridor_chain(n_nodes: int = 9, *, spacing: float = 22.0,
                   seed: int = 1, wall_loss_db: float = 25.0,
                   shadowing_sigma_db: float = 2.0) -> Testbed:
    """A dense indoor chain whose path is pinned to adjacency.

    The paper's Figure 6 probes the *same* 8-hop path at PA levels 10
    and 25.  At low power that needs short links; at high power short
    links would let greedy forwarding skip hops.  Real indoor testbeds
    resolve this with walls: non-adjacent nodes are separated by
    additional obstruction loss.  We model exactly that by pinning
    ``wall_loss_db`` of extra shadowing on every non-adjacent directed
    pair, while adjacent links keep mild random (asymmetric) shadowing.
    """
    testbed = build_chain(
        n_nodes, spacing=spacing, seed=seed,
        propagation_kwargs={
            "shadowing_sigma_db": shadowing_sigma_db,
            "fading_sigma_db": 0.8,
        },
    )
    ids = [node.id for node in testbed.nodes()]
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if a != b and abs(i - j) >= 2:
                base = testbed.propagation.link_shadowing_db(a, b)
                testbed.propagation.set_link_shadowing_db(
                    a, b, base + wall_loss_db
                )
    return testbed


def thirty_node_field(seed: int = 1, *, spacing: float = 45.0,
                      realistic: bool = True) -> Testbed:
    """Thirty nodes as a jittered 6×5 grid — the §III-B.3 testbed."""
    return build_grid(
        6, 5, spacing=spacing, jitter=spacing * 0.15, seed=seed,
        propagation_kwargs=(REALISTIC_PROPAGATION if realistic
                            else QUIET_PROPAGATION),
    )


def hundred_node_field(seed: int = 1, *, spacing: float = 45.0,
                       realistic: bool = True) -> Testbed:
    """One hundred nodes as a jittered 10×10 grid.

    Larger than anything in the paper itself: this is the scale of the
    WSN-link measurement studies in related work (Fu et al.), and exists
    to exercise — and benchmark — the medium's vectorized hot path on a
    topology where every transmission has ~99 candidate receivers.
    """
    return build_grid(
        10, 10, spacing=spacing, jitter=spacing * 0.15, seed=seed,
        propagation_kwargs=(REALISTIC_PROPAGATION if realistic
                            else QUIET_PROPAGATION),
    )


def thousand_node_city(seed: int = 1, *, districts: int = 5,
                       per_district: int = 40, pitch: float = 1500.0,
                       spacing: float = 45.0, bridges: bool = True,
                       realistic: bool = True) -> Testbed:
    """A 1k-node city: clustered districts, sparse inter-district bridges.

    The default is 5×5 districts of 40 nodes plus 40 bridge relays —
    1040 nodes, an order of magnitude past :func:`hundred_node_field`.
    Districts sit ``pitch`` metres apart, beyond the conservative radio
    range of the realistic propagation model, so every transmission has
    ~40 in-range candidates out of >1000 attached radios: the scenario
    exists to exercise — and benchmark — the medium's spatial-index
    pruning (>90% of receivers skipped per transmission).

    ``bridges=False`` drops the relays, leaving ``districts²`` mutually
    unreachable radio islands.
    """
    return build_city(
        districts, districts, per_district,
        pitch=pitch, spacing=spacing, bridges=bridges, seed=seed,
        propagation_kwargs=(REALISTIC_PROPAGATION if realistic
                            else QUIET_PROPAGATION),
    )
