"""Record the reference digests the simulation workloads are checked by.

    python3 perfbench/record_reference.py FIRST LAST [SEED ...]

Runs one untraced repetition of ``field100_passive`` and ``city1k`` for
every seed from FIRST to LAST (inclusive) plus any further seeds given,
and merges their packet digests (and, on the field, the canonical
online-findings digest) into ``perfbench/reference.json``.  Re-record
only when a change is meant to alter the simulated world; a change
that only makes it faster must leave every digest as it is.
"""

from __future__ import annotations

import json
import sys

from common import use_program


def main(argv: list[str]) -> int:
    use_program()
    import simload
    first, last, *extra = (int(a) for a in argv)
    seeds = sorted(set(range(first, last + 1)) | set(extra))
    try:
        with open(simload.REFERENCE_PATH) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for workload in simload.SIM_SECONDS:
        entries = table.setdefault(workload, {})
        for seed in seeds:
            testbed, online = simload.build(workload, seed)
            simload.run_rep(workload, testbed, online)
            entries[str(seed)] = simload.digests(testbed, online)
            del testbed, online
            simload.release_world()
            print(f"{workload} seed {seed}: {entries[str(seed)]}",
                  flush=True)
        table[workload] = dict(sorted(entries.items(), key=lambda kv:
                                      int(kv[0])))
    with open(simload.REFERENCE_PATH, "w") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
