"""Benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder-ex1 --seed 1 --seconds 18 --trace 0

Human-readable lines come first, each starting with ``#``; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  See README.md in this directory.
"""

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adaptive_em").is_dir():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure  # needs the package on the path

    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(measure.WORKLOADS)}")
    if args.trace:
        result = measure.traced(args.workload, args.seed)
    else:
        result = measure.untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
