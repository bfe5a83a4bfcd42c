"""One repetition of a workload in a fresh interpreter.

Usage: ``python3 perfbench/child.py '<workload as JSON>' <seed>``.

Set-up ends once the package is imported and the workload's problem and
transform are resolved; the CPU seconds this process has used by then are
its set-up time.  It then runs the coarse rungs (this warms up, and gives a
reference for their rows) and times one full repetition.  It prints one
JSON line: set-up time, the repetition's wall and CPU time, its span on the
system-wide monotonic clock, row digests, estimate table, peak RSS, pool
starts and the coarse rows that differ between the two runs.
"""

import json
import resource
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402  (needs the paths above)
from workloads import SCRATCH, Workload, cpu_seconds, run_repetition  # noqa: E402


def main(spec, seed):
    wl = Workload(**json.loads(spec))
    wl.resolve()
    setup = cpu_seconds()
    coarse = wl.coarse()
    ref = run_repetition(coarse, int(seed), SCRATCH)
    start = monotonic()
    with layers.PoolMeter() as pools:
        rep = run_repetition(wl, int(seed), SCRATCH)
    end = monotonic()
    differ = [
        rid for rid in coarse.row_ids()
        if not rid.startswith("fit_") and rep.digests.get(rid) != ref.digests.get(rid)
    ]
    print(json.dumps({
        "setup_s": setup,
        "wall_s": rep.wall_s,
        "cpu_s": rep.cpu_s,
        "span": [start, end],
        "digests": rep.digests,
        "table": rep.table,
        "errors": ref.errors + rep.errors,
        "differ": differ,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pool_starts": pools.starts,
    }))


if __name__ == "__main__":
    main(*sys.argv[1:])
