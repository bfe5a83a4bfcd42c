"""Time one benchmark workload's batch job from two source trees, alternating.

Usage, with checkouts of the two trees in ``$A`` and ``$B``:

    python3 scripts/ab_jobs.py $A $B --workload ladder-ex1 --pairs 7

Each tree's package is imported under its own module name (the package uses
only relative imports), so both run in one interpreter.  A pair runs the
workload's batch job once from each tree, in alternating order: the pooled
``_coupled_job`` for ``ladder-ex1`` and ``_verify_job`` for ``transform-ex2``,
at the sizes in ``perfbench/workloads.py`` (this script's tree) and package
seed 1000, in one process without workers.  Both trees' outputs must be
byte-identical; the script exits 1 if they differ.  Prints each tree's
median CPU seconds and the median and quartiles over pairs of B's time
divided by A's: a ratio inside the quartiles of a tree run against itself
is not resolved.
Separate processes on a busy machine drift apart by tens of percent;
alternating in one process cancels most of that drift.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# the benchmark's workload table; importing it needs this tree's package
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402

SEED = 1000
# name: (example, deltas, samples)
WORKLOADS = {
    name: (w.example, w.delta_values(), w.samples) for name, w in workloads.WORKLOADS.items()
}


def load_tree(root: Path, name: str):
    """Import ``root/src/adaptive_em`` as the package ``name``."""
    pkg = root / "src" / "adaptive_em"
    # a module of an earlier tree loaded under this name must not be reused
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def make_job(package, workload: str):
    """A zero-argument call of the workload's batch job over every sample."""
    example, deltas, samples = WORKLOADS[workload]
    entry = package.get_example(example)
    if workload == "ladder-ex1":
        payload = (entry.problem, deltas, SEED)
        return lambda: package.montecarlo._coupled_job(payload, 0, samples)
    payload = (entry.problem, entry.transform(), deltas, SEED)
    return lambda: package.montecarlo._verify_job(payload, 0, samples)


def timed(job):
    c0 = time.process_time()
    out = job()
    return time.process_time() - c0, [np.ascontiguousarray(v).tobytes() for v in out]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="ladder-ex1")
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    jobs = [
        make_job(load_tree(root.resolve(), f"_ab_tree_{i}"), args.workload)
        for i, root in enumerate((args.tree_a, args.tree_b))
    ]
    cpu = ([], [])
    for p in range(args.pairs):
        order = (0, 1) if p % 2 == 0 else (1, 0)
        outs = {}
        for i in order:
            s, outs[i] = timed(jobs[i])
            cpu[i].append(s)
        if outs[0] != outs[1]:
            print(f"pair {p}: the outputs differ", file=sys.stderr)
            return 1
        print(f"pair {p}: A {cpu[0][-1]:.3f} s  B {cpu[1][-1]:.3f} s", flush=True)
    q1, med, q3 = np.percentile([b / a for a, b in zip(*cpu)], [25, 50, 75])
    print(f"{args.workload}: outputs identical over {args.pairs} pairs")
    print(f"A median {statistics.median(cpu[0]):.3f} s, B median {statistics.median(cpu[1]):.3f} s")
    print(f"median B/A {med:.4f} [quartiles {q1:.4f}, {q3:.4f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
