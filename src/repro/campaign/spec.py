"""Declarative campaign specifications and deterministic seed derivation.

The paper's evaluation is not one simulation but a *campaign* of them:
dozens of independent seeded trials over a parameter grid (power levels,
hop counts, protocols, LQI thresholds).  A :class:`Campaign` declares
that grid once — scenario, base parameters, swept parameters, replicate
count, master seed — and :meth:`Campaign.expand` turns it into the flat,
ordered list of :class:`RunSpec` cells the runner executes.

The determinism contract lives here: a run's seed is a pure function of
``(campaign seed, scenario, parameter tuple, replicate index)``, hashed
with SHA-256.  It never depends on expansion order, worker count or
shard assignment, so a campaign sharded across processes is bit-for-bit
identical to the same campaign run serially — the property the golden
determinism suite asserts.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import typing as _t
from dataclasses import dataclass, field

__all__ = ["RunSpec", "Campaign", "CampaignShard", "derive_seed",
           "canonical_params"]

#: Seeds are 63-bit non-negative ints (RngRegistry requires >= 0).
_SEED_BITS = 63


def canonical_params(params: _t.Mapping[str, object]) -> tuple:
    """Parameters as a sorted, hashable ``((name, value), ...)`` tuple.

    Values must be JSON-representable scalars/lists so the encoding — and
    therefore every derived seed and cache key — is stable across
    processes and Python versions.
    """
    return tuple(sorted(params.items()))


def _canonical_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace variation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(campaign_seed: int, scenario: str,
                params: _t.Mapping[str, object], replicate: int) -> int:
    """The seed for one run, independent of execution order.

    SHA-256 over the canonical JSON encoding of the identifying tuple,
    truncated to 63 bits.  Two campaigns sharing a cell (same scenario,
    params, replicate, campaign seed) derive the same seed; changing any
    component decorrelates the whole stream family.
    """
    payload = _canonical_json([
        int(campaign_seed), str(scenario),
        sorted((str(k), v) for k, v in params.items()), int(replicate),
    ])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> (64 - _SEED_BITS)


@dataclass(frozen=True)
class RunSpec:
    """One cell of a campaign: a scenario, its parameters, and a seed."""

    scenario: str
    params: tuple = ()          # canonical ((name, value), ...) tuple
    replicate: int = 0
    seed: int = 0
    campaign: str = ""

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    def cell_key(self) -> str:
        """Stable id of the parameter cell (replicates share it)."""
        return _canonical_json(sorted((str(k), v) for k, v in self.params))

    def label(self) -> str:
        """Human-readable one-liner for progress output."""
        parts = [f"{k}={v}" for k, v in self.params]
        parts.append(f"rep={self.replicate}")
        return f"{self.scenario}({', '.join(parts)})"

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario, "params": [list(p) for p in self.params],
            "replicate": self.replicate, "seed": self.seed,
            "campaign": self.campaign,
        }

    @classmethod
    def from_dict(cls, data: _t.Mapping) -> "RunSpec":
        return cls(
            scenario=data["scenario"],
            params=tuple((k, v) for k, v in data["params"]),
            replicate=int(data["replicate"]), seed=int(data["seed"]),
            campaign=data.get("campaign", ""),
        )


@dataclass(frozen=True)
class Campaign:
    """A declarative set of runs: grid × repeats over one scenario.

    ``scenario`` names a registered scenario (see
    :mod:`repro.campaign.scenarios`) or a ``"module:function"`` dotted
    reference importable by worker processes.  ``base_params`` apply to
    every run; ``grid`` maps parameter names to value lists and expands
    to their cartesian product; each cell is repeated ``repeats`` times
    with replicate indices ``0..repeats-1``.

    ``fault_plan`` makes chaos a first-class campaign dimension: the
    plan (a :class:`~repro.faults.spec.FaultPlan`, its canonical JSON,
    or a mapping) is folded into every cell as an ordinary
    ``fault_plan`` parameter, so derived seeds and cache keys change
    with the plan automatically and sharded execution stays
    bit-identical to serial.  ``None`` (the default) adds nothing —
    cell encodings, seeds and caches are exactly the plan-free ones.
    """

    name: str
    scenario: str
    seed: int = 0
    base_params: _t.Mapping[str, object] = field(default_factory=dict)
    grid: _t.Mapping[str, _t.Sequence[object]] = field(default_factory=dict)
    repeats: int = 1
    fault_plan: object = None

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        overlap = set(self.base_params) & set(self.grid)
        if overlap:
            raise ValueError(
                f"parameters {sorted(overlap)} appear in both base_params "
                "and grid"
            )
        if self.fault_plan is not None and (
                "fault_plan" in self.base_params or "fault_plan" in self.grid):
            raise ValueError(
                "pass the fault plan either as Campaign.fault_plan or as a "
                "'fault_plan' parameter, not both"
            )

    def check_params(self) -> None:
        """Fail fast on parameters the scenario cannot take.

        Binds ``seed`` plus every base, grid and fault-plan parameter
        name against the scenario's signature, so a typo is one
        ``TypeError`` naming the parameter, not a traceback in every
        cell.  An unresolvable scenario raises what
        :func:`~repro.campaign.scenarios.resolve_scenario` raises.
        """
        from repro.campaign.scenarios import resolve_scenario

        names = set(self.base_params) | set(self.grid)
        if self.fault_plan is not None:
            names.add("fault_plan")
        fn = resolve_scenario(self.scenario)
        try:
            inspect.signature(fn).bind(0, **dict.fromkeys(names))
        except TypeError as exc:
            raise TypeError(
                f"scenario {self.scenario!r} rejects the parameters: {exc}"
            ) from None

    def _fault_params(self) -> dict:
        """The injected ``fault_plan`` cell parameter (empty when none)."""
        if self.fault_plan is None:
            return {}
        from repro.faults.spec import FaultPlan
        return {"fault_plan": FaultPlan.from_param(self.fault_plan).to_param()}

    def cells(self) -> list[dict]:
        """The parameter dicts of the grid's cartesian product, in
        deterministic (sorted-name, given-value-order) order."""
        names = sorted(self.grid)
        fault_params = self._fault_params()
        out = []
        for combo in itertools.product(*(self.grid[n] for n in names)):
            params = dict(self.base_params)
            params.update(fault_params)
            params.update(zip(names, combo))
            out.append(params)
        return out or [dict(self.base_params) | fault_params]

    def expand(self) -> list[RunSpec]:
        """The flat ordered run list: every grid cell × every replicate."""
        specs = []
        for params in self.cells():
            canonical = canonical_params(params)
            for replicate in range(self.repeats):
                specs.append(RunSpec(
                    scenario=self.scenario, params=canonical,
                    replicate=replicate,
                    seed=derive_seed(self.seed, self.scenario, params,
                                     replicate),
                    campaign=self.name,
                ))
        return specs

    def shard(self, index: int, of: int) -> "CampaignShard":
        """Shard ``index`` (0-based) of ``of`` — the scale-out unit.

        The partition is deterministic and purely positional: expansion
        position ``i`` belongs to shard ``i % of``.  Round-robin over
        the expansion order interleaves replicates and grid cells, so
        every shard carries a representative (and therefore comparably
        expensive) slice of the campaign rather than a contiguous block
        of one parameter region.  Seeds and cache keys are content-
        addressed per cell, so shards can run on different machines,
        with different worker counts, in any order — and
        :func:`~repro.campaign.results.merge_shards` reassembles a
        result byte-identical to the unsharded serial run.
        """
        if of < 1:
            raise ValueError(f"shard count must be >= 1, got {of}")
        if not 0 <= index < of:
            raise ValueError(
                f"shard index must be in [0, {of}), got {index}")
        return CampaignShard(campaign=self, index=index, of=of)

    def __len__(self) -> int:
        n_cells = 1
        for values in self.grid.values():
            n_cells *= len(values)
        return n_cells * self.repeats


@dataclass(frozen=True)
class CampaignShard:
    """One machine's deterministic slice of a campaign.

    Behaves like a campaign for the runner (``name``, ``expand()``,
    ``len()``): ``run_campaign(campaign.shard(k, of))`` executes only
    the cells whose expansion position is ``k`` modulo ``of``.  The
    shard identity travels on the :class:`~repro.campaign.results.
    CampaignResult` (``shard=(k, of)``) so merges can sanity-check the
    partition they are reassembling.
    """

    campaign: Campaign
    index: int
    of: int

    @property
    def name(self) -> str:
        return self.campaign.name

    @property
    def shard_key(self) -> tuple[int, int]:
        return (self.index, self.of)

    def expand(self) -> list[RunSpec]:
        """This shard's cells, in campaign expansion order."""
        return [spec for i, spec in enumerate(self.campaign.expand())
                if i % self.of == self.index]

    def __len__(self) -> int:
        total = len(self.campaign)
        return (total - self.index + self.of - 1) // self.of
