"""Self-test: every workload at smoke size, untraced and traced.

    python3 -m pytest perfbench/tests -q

Runs the benchmark exactly as a user would (one process per run, from
the checkout root) and checks its output contract rather than any
number: every named metric is printed with its unit and a finite value,
span self times are non-negative, and the traced run reports
``trace.unattributed_frac``.  Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402

#: Smoke length per workload: one repetition / pass; the served run
#: must last until an assessment after the injected fault has rendered.
SMOKE_SECONDS = {"field100_passive": 1, "city1k": 1,
                 "served_field_hybrid": 8, "diagnosis_campaign": 1}


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    """Run the benchmark in a session of its own; the result also lists
    (``left``) every process of that session still running the moment
    it exits.  Output goes to files, not pipes, so that waiting for the
    run does not also wait for whatever still holds its output open."""
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--seed", "3",
             "--seconds", str(SMOKE_SECONDS[workload]),
             "--trace", str(trace)],
            cwd=cwd, stdout=out, stderr=err, start_new_session=True)
        try:
            proc.wait(timeout=300)
        finally:
            left = still_running(session=proc.pid)
            proc.kill()
            proc.wait()
        out.seek(0)
        err.seek(0)
        result = subprocess.CompletedProcess(proc.args, proc.returncode,
                                             out.read(), err.read())
    result.left = left
    return result


def still_running(session: int) -> list[str]:
    """Command lines of the live (not zombie) processes in ``session``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            if int(fields[3]) != session or fields[0] == "Z":
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                found.append(fh.read().replace(b"\0", b" ").decode())
        except OSError:
            continue
    return found


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return json.loads(lines[-1]), detail


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.left == []
    result, detail = parse(proc)
    expected = {name: unit for name, unit, _ in PER_LAYER} if trace \
        else END_TO_END
    assert result["correct"] is True, detail
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"]), name
    if trace:
        assert detail["traced_equals_untraced"] is True
        assert detail["min_self_ns"] >= 0
        assert os.path.exists(detail["span_file"])
        assert "trace.unattributed_frac" in result["metrics"]
        assert 0.0 <= result["metrics"]["trace.unattributed_frac"]["value"] \
            <= 1.0
    else:
        assert all(result["metrics"][name]["value"] > 0
                   for name in END_TO_END)


def test_fails_without_the_program(tmp_path):
    """Holding only the benchmark's own files, a run must fail."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("field100_passive", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
