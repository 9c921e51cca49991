"""Shared helpers: locating the program, statistics, memory readings.

The benchmark runs from the root of a checkout.  The program under test
is the ``repro`` package in ``src/``; it is imported from there and
nowhere else, so a checkout without ``src/`` fails instead of silently
measuring some other installed copy.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKERS = 2

#: The latency tail each workload reports as ``lat_tail_ms``: a
#: percentile with at least ten samples beyond it in a 20-second run
#: (about 400 steps on the field and 200 on the city, 1,000 requests),
#: and the slowest of the campaign's six or so passes.  On the field,
#: p95 (20 beyond) spreads less from run to run than p97.5 did.
TAIL_Q = {"field100_passive": 0.95, "city1k": 0.95,
          "served_field_hybrid": 0.99, "diagnosis_campaign": 1.0}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


def use_program() -> None:
    """Put ``src/`` first on ``sys.path`` and check ``repro`` comes from it."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"program package not found under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import repro
    where = os.path.realpath(os.path.dirname(repro.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"repro imported from {where}, not from {SRC}")


def keep_temp_inside() -> None:
    """Send temporary files (the warm pool's forkserver socket) to
    ``perfbench/out/tmp`` rather than the system temp directory, when the
    socket path stays inside the 107-byte ``AF_UNIX`` limit."""
    tmp = os.path.join(OUT_DIR, "tmp")
    if len(tmp) + len("/pymp-xxxxxxxx/listener-xxxxxxxx") < 100:
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = None


def program_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def adopt_orphans() -> None:
    """Become the reaper of every process our children leave behind
    (Linux ``PR_SET_CHILD_SUBREAPER``), so :func:`end_children` can
    wait for the whole tree, not only for direct children."""
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def end_children(timeout_s: float = 20.0) -> None:
    """Stop every process this one started and wait until each has
    ended: the multiprocessing helpers (forkserver, resource tracker),
    then any child or adopted orphan, killed if still running after
    ``timeout_s``."""
    if "multiprocessing" in sys.modules:
        from multiprocessing import forkserver, resource_tracker, util
        # Unlink the pool's semaphores now: done at interpreter exit,
        # it would start a fresh resource tracker that outlives us.
        util._run_finalizers(0)
        forkserver._forkserver._stop()
        resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")
