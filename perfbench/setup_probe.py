"""Set a workload up in a fresh process and report when it is ready.

``python3 perfbench/setup_probe.py WORKLOAD SEED`` imports the program,
builds what the workload's first unit of work needs, prints ``ready``
and exits.  The caller times it from process start to that line, which
is the benchmark's ``setup_s`` (imports included).  The served
workload's set-up is the server itself and does not use this script.
"""

from __future__ import annotations

import sys

from common import WORKERS, end_children, use_program


def main(workload: str, seed: int) -> int:
    use_program()
    if workload == "diagnosis_campaign":
        import campaign_load
        from repro.campaign import get_warm_pool
        campaign_load.build_campaign(seed)
        pool = get_warm_pool(WORKERS)
        try:
            if pool.warm() < WORKERS:
                print("warm pool did not start", file=sys.stderr)
                return 1
            print("ready", flush=True)
        finally:
            campaign_load.stop_pools()
        return 0
    import simload
    simload.build(workload, seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1], int(sys.argv[2]))
    finally:
        end_children()
    sys.exit(code)
