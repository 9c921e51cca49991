"""Campaign expansion and the deterministic seed-derivation contract."""

import pytest

from repro.campaign import Campaign, RunSpec, derive_seed


def test_grid_times_repeats_expansion_order():
    camp = Campaign(
        name="c", scenario="chain_beacons", seed=3,
        base_params={"seconds": 5.0},
        grid={"nodes": [3, 4], "spacing": [50.0, 60.0]}, repeats=2,
    )
    specs = camp.expand()
    assert len(specs) == len(camp) == 2 * 2 * 2
    # Cells iterate in sorted-parameter-name, given-value order; within a
    # cell, replicates count up.
    cells = [(s.params, s.replicate) for s in specs]
    assert cells[0] == ((("nodes", 3), ("seconds", 5.0), ("spacing", 50.0)), 0)
    assert cells[1] == ((("nodes", 3), ("seconds", 5.0), ("spacing", 50.0)), 1)
    assert cells[2] == ((("nodes", 3), ("seconds", 5.0), ("spacing", 60.0)), 0)
    assert specs[-1].params == (("nodes", 4), ("seconds", 5.0),
                                ("spacing", 60.0))


def test_seed_depends_only_on_identity_not_order():
    """The seed of a cell is the same whatever else the campaign sweeps —
    so shard order and worker count can never change any run's world."""
    small = Campaign(name="a", scenario="s", seed=9, grid={"p": [1]},
                     repeats=1)
    large = Campaign(name="b", scenario="s", seed=9,
                     grid={"p": [5, 3, 1, 2]}, repeats=4)
    seed_small = small.expand()[0].seed
    matching = [s for s in large.expand()
                if s.params == (("p", 1),) and s.replicate == 0]
    assert len(matching) == 1
    assert matching[0].seed == seed_small


def test_seed_components_all_matter():
    base = derive_seed(1, "s", {"p": 1}, 0)
    assert derive_seed(2, "s", {"p": 1}, 0) != base      # campaign seed
    assert derive_seed(1, "t", {"p": 1}, 0) != base      # scenario
    assert derive_seed(1, "s", {"p": 2}, 0) != base      # params
    assert derive_seed(1, "s", {"p": 1}, 1) != base      # replicate
    # Param *order* must not matter — the encoding is canonical.
    assert derive_seed(1, "s", {"a": 1, "b": 2}, 0) == \
        derive_seed(1, "s", {"b": 2, "a": 1}, 0)


def test_seed_values_pinned():
    """Regression-pin a few derived seeds: any change to the derivation
    breaks every cache entry and golden campaign fixture, so it must be
    deliberate."""
    assert derive_seed(0, "chain_beacons", {}, 0) == \
        2525379836886945390
    assert derive_seed(7, "chain_beacons", {"nodes": 3, "seconds": 10.0},
                       0) == 8966165095890916921
    assert derive_seed(7, "chain_beacons", {"nodes": 3, "seconds": 10.0},
                       1) == 563282250921262799


def test_seeds_are_valid_and_distinct():
    camp = Campaign(name="c", scenario="s", seed=123,
                    grid={"x": list(range(8))}, repeats=8)
    seeds = [s.seed for s in camp.expand()]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < 2 ** 63 for s in seeds)


def test_base_and_grid_params_must_not_overlap():
    with pytest.raises(ValueError):
        Campaign(name="c", scenario="s", base_params={"x": 1},
                 grid={"x": [1, 2]})


def test_runspec_roundtrips_through_dict():
    spec = Campaign(name="c", scenario="s", seed=2,
                    grid={"x": [1]}, repeats=1).expand()[0]
    assert RunSpec.from_dict(spec.to_dict()) == spec


def test_check_params_binds_base_grid_and_fault_plan_names():
    Campaign(name="c", scenario="chain_beacons", base_params={"seconds": 5.0},
             grid={"nodes": [3, 4]}).check_params()
    # A fault plan is a parameter too: a scenario without one rejects it.
    with pytest.raises(TypeError, match="fault_plan"):
        Campaign(name="c", scenario="fig5_traceroute",
                 fault_plan={"enabled": False}).check_params()
    # module:function references still resolve outside the server.
    Campaign(name="c", scenario="tests.campaign._pool_scenarios:sleepy",
             base_params={"duration": 0.0}).check_params()


def test_campaign_cli_rejects_unknown_parameter_before_running(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", "--scenario", "chain_beacons", "--param", "node=3"])
    assert exit_info.value.code != 0
    assert "'node'" in str(exit_info.value.code)
    # Nothing ran: the run banner is printed only after validation.
    assert "runs" not in capsys.readouterr().err
