"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures, asserts the
*shape* the paper reports (who wins, what grows, where limits fall), and
writes the regenerated data to ``benchmarks/results/`` so EXPERIMENTS.md
can quote it.

Timing runs additionally write ``BENCH_simulator.json`` — a
machine-readable {bench: {mean_s, stddev_s, ops_per_s, rounds}} dump — so
the perf trajectory is tracked across PRs, not just in prose.  That file
is a *latest* view (each session overwrites the benches it ran); the full
history lives in ``benchmarks/results/bench_history.jsonl``, one line per
measuring session stamped with the commit it ran against.
"""

import datetime
import json
import pathlib
import subprocess

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_simulator.json"
HISTORY_JSONL = RESULTS_DIR / "bench_history.jsonl"

#: Derived scalar metrics benches record alongside the raw timings
#: (e.g. ``parallel_speedup_vs_serial``) — merged into BENCH_simulator
#: only when a measuring session actually collected stats, so smoke
#: runs never clobber real numbers.
EXTRA_METRICS: dict = {}

#: Result tables rendered from recorded metrics, written to
#: ``results/`` by the same session finish that merges ``EXTRA_METRICS``
#: — so a table and its JSON entry always come from one measurement.
MEASURED_REPORTS: dict = {}


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).parent, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


@pytest.fixture(scope="session")
def report():
    """Write one experiment's regenerated table to the results dir."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return write


@pytest.fixture(scope="session")
def report_measured():
    """Like ``report``, but for a table of ``record_metric`` values: it
    is written only by a measuring session, together with the metrics,
    so a smoke run never leaves a table the JSON does not back."""

    def write(name: str, text: str) -> None:
        MEASURED_REPORTS[name] = text

    return write


@pytest.fixture(scope="session")
def record_metric():
    """Record a derived metric into ``BENCH_simulator.json``.

    ``record_metric("parallel_speedup_vs_serial", value, workers=4)``
    lands as ``{"value": ..., "workers": 4}`` under that name, next to
    the per-bench timing stats, once the measuring session finishes.
    """

    def record(name: str, value, **extra) -> None:
        EXTRA_METRICS[name] = {"value": value, **extra}

    return record


def pytest_sessionfinish(session, exitstatus):
    """Dump per-bench timing stats as JSON after a measuring run.

    With ``--benchmark-disable`` (the CI smoke mode) benches execute but
    collect no stats; the file is left untouched so a smoke run never
    clobbers real numbers.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    results = {}
    for bench in getattr(bench_session, "benchmarks", ()):
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        mean = stats.mean
        results[bench.name] = {
            "mean_s": mean,
            "stddev_s": stats.stddev,
            "min_s": stats.min,
            "ops_per_s": (1.0 / mean) if mean else None,
            "rounds": stats.rounds,
        }
    if not results:
        return
    results.update(EXTRA_METRICS)
    merged = {}
    if BENCH_JSON.exists():
        try:
            merged = json.loads(BENCH_JSON.read_text())
        except ValueError:
            merged = {}
    merged.update(results)
    BENCH_JSON.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    for name, text in MEASURED_REPORTS.items():
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    entry = {
        "commit": _git_commit(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "benches": results,
    }
    with HISTORY_JSONL.open("a") as history:
        history.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"\n[bench stats for {len(results)} benches merged "
          f"into {BENCH_JSON}; history appended to {HISTORY_JSONL}]")
