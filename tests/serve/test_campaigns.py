"""Campaigns over HTTP: launch, poll, digest parity with local runs.

``POST /campaigns`` coordinates the campaign off the event loop (cells
execute in warm-pool worker processes), so the served digest must be
identical to calling :func:`run_campaign` directly — the serve layer is
plumbing, never a second execution semantics.
"""

import asyncio
import threading

import repro.campaign
from repro.campaign import Campaign, run_campaign
from repro.serve import ServeApp, build_fleet

from tests.serve.conftest import fetch_json

BODY = {
    "scenario": "chain_beacons", "name": "served", "seed": 9,
    "base_params": {"seconds": 5.0}, "grid": {"nodes": [3, 4]},
    "workers": 1,
}
LOCAL = Campaign(
    name="served", scenario="chain_beacons", seed=9,
    base_params={"seconds": 5.0}, grid={"nodes": [3, 4]},
)


def make_app():
    fleet = build_fleet("chain:5", seed=7, assess_every=20.0, warm_up=10.0)
    return ServeApp([fleet])


async def poll_until_settled(port, name, timeout=60.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while True:
        status, record = await fetch_json(port, f"/campaigns/{name}")
        assert status == 200
        if record["status"] != "running":
            return record
        assert asyncio.get_event_loop().time() < deadline, record
        await asyncio.sleep(0.05)


def test_posted_campaign_runs_to_the_local_digest():
    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            status, reply = await fetch_json(
                app.port, "/campaigns", "POST", BODY)
            assert status == 202
            assert reply["accepted"] is True
            assert reply["status_url"] == "/campaigns/served"
            assert reply["campaign"]["total"] == 2
            record = await poll_until_settled(app.port, "served")
            assert record["status"] == "done", record
            assert record["runs"] == 2 and record["failed"] == 0
            assert record["failures"] == []
            assert record["digest"] == run_campaign(LOCAL,
                                                    workers=1).digest()
            status, listing = await fetch_json(app.port, "/campaigns")
            assert status == 200
            assert [c["name"] for c in listing["campaigns"]] == ["served"]
        finally:
            await app.stop()

    asyncio.run(main())


def test_sharded_campaign_over_http():
    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            body = dict(BODY, name="half", shard=[0, 2])
            status, reply = await fetch_json(
                app.port, "/campaigns", "POST", body)
            assert status == 202
            assert reply["campaign"]["shard"] == [0, 2]
            assert reply["campaign"]["total"] == 1
            record = await poll_until_settled(app.port, "half")
            assert record["status"] == "done", record
            assert record["runs"] == 1
            local = run_campaign(LOCAL.shard(0, 2), workers=1)
            assert record["digest"] == local.digest()
        finally:
            await app.stop()

    asyncio.run(main())


def test_campaign_validation_and_lookup_errors():
    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            for bad in (
                {},                                   # no scenario
                {"scenario": "no-such-scenario"},     # unknown scenario
                # A valid module:function scenario: CLI and API only.
                {"scenario": "tests.campaign._pool_scenarios:sleepy"},
                dict(BODY, grid={"node": [3, 4]}),    # unknown parameter
                dict(BODY, repeats=0),                # invalid repeats
                dict(BODY, shard=[5, 2]),             # index out of range
            ):
                status, reply = await fetch_json(
                    app.port, "/campaigns", "POST", bad)
                assert status == 400, (bad, reply)
            status, _ = await fetch_json(app.port, "/campaigns/ghost")
            assert status == 404
        finally:
            await app.stop()

    asyncio.run(main())


def test_negative_workers_normalized_to_serial():
    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            body = dict(BODY, name="neg", workers=-3)
            status, reply = await fetch_json(
                app.port, "/campaigns", "POST", body)
            assert status == 202
            # Clamped to >= 1, never passed through as a bogus count
            # that would silently degrade inside the worker thread.
            assert reply["campaign"]["workers"] == 1
            record = await poll_until_settled(app.port, "neg")
            assert record["status"] == "done", record
            assert record["digest"] == run_campaign(LOCAL,
                                                    workers=1).digest()
        finally:
            await app.stop()

    asyncio.run(main())


def test_duplicate_running_campaign_is_conflict(monkeypatch):
    # The coordinator waits for the test's go-ahead before running any
    # cell, so the campaign is still running at the second POST by
    # construction (a short campaign could otherwise settle first).
    release = threading.Event()
    real_run_campaign = repro.campaign.run_campaign

    def gated_run_campaign(*args, **kwargs):
        release.wait(timeout=60.0)
        return real_run_campaign(*args, **kwargs)

    monkeypatch.setattr(repro.campaign, "run_campaign", gated_run_campaign)

    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            slow = dict(BODY, name="dup",
                        base_params={"seconds": 30.0},
                        grid={"nodes": [3, 4, 5]})
            status, _ = await fetch_json(app.port, "/campaigns", "POST",
                                         slow)
            assert status == 202
            status, _ = await fetch_json(app.port, "/campaigns", "POST",
                                         slow)
            assert status == 409
            release.set()
            record = await poll_until_settled(app.port, "dup")
            assert record["status"] == "done"
            # Settled campaigns may be re-posted (a re-run).
            status, _ = await fetch_json(app.port, "/campaigns", "POST",
                                         slow)
            assert status == 202
            await poll_until_settled(app.port, "dup")
        finally:
            release.set()
            await app.stop()

    asyncio.run(main())
