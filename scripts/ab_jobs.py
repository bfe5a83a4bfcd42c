"""Time one benchmark workload's batch job from two source trees, alternating.

Usage, with checkouts of the two trees in ``$A`` and ``$B``:

    python3 scripts/ab_jobs.py $A $B --workload ladder-ex1 --pairs 7

Each tree's package is imported under its own module name (the package uses
only relative imports), so both run in one interpreter; tree A is loaded a
second time, after B, as A'.  A pair runs the workload's batch job once from
each of A, B and A', forward or reversed in alternate pairs: the pooled
``_coupled_job`` for ``ladder-ex1`` and ``_verify_job`` for ``transform-ex2``,
at the sizes in ``perfbench/workloads.py`` (this script's tree) and package
seed 1000, in one process without workers.  All outputs must be
byte-identical; the script exits 1 if they differ.  Prints each load's
median CPU seconds and the median and quartiles over pairs of B's time
divided by A's, and beside it the A/A read A'/A: a tree loaded later can
run slower by itself (about 2 % has been seen), so a B/A that A'/A matches
shows the load order, not the change.
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


def load_trees(tree_a: Path, tree_b: Path, prefix: str) -> list:
    """Packages A, B and A' (A loaded again, after B), in that order."""
    return [
        load_tree(root.resolve(), f"{prefix}{i}")
        for i, root in enumerate((tree_a, tree_b, tree_a))
    ]


def alternate(runs, pairs: int, show, header: str) -> int:
    """Time the runs of A, B and A' in alternating order; print and return the exit code.

    Each run is a zero-argument call returning seconds and the output; a
    pair runs all three, forward in even pairs and reversed in odd ones.
    ``show`` formats seconds, and ``header`` opens the summary.
    """
    names = ("A", "B", "A'")
    cpu = ([], [], [])
    for p in range(pairs):
        outs = []
        for i in (0, 1, 2) if p % 2 == 0 else (2, 1, 0):
            s, out = runs[i]()
            cpu[i].append(s)
            outs.append(out)
        if any(out != outs[0] for out in outs):
            print(f"pair {p}: the outputs differ", file=sys.stderr)
            return 1
        print(f"pair {p}: " + "  ".join(f"{n} {show(c[-1])}" for n, c in zip(names, cpu)), flush=True)
    print(header)
    print(", ".join(f"{n} median {show(statistics.median(c))}" for n, c in zip(names, cpu)))
    for i, label in ((1, "B/A"), (2, "A'/A, the A/A read")):
        q1, med, q3 = np.percentile([x / a for a, x in zip(cpu[0], cpu[i])], [25, 50, 75])
        print(f"median {label} {med:.4f} [quartiles {q1:.4f}, {q3:.4f}]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="ladder-ex1")
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    jobs = [make_job(pkg, args.workload) for pkg in load_trees(args.tree_a, args.tree_b, "_ab_tree_")]
    return alternate(
        [lambda job=job: timed(job) for job in jobs],
        args.pairs,
        lambda s: f"{s:.3f} s",
        f"{args.workload}: outputs identical over {args.pairs} pairs",
    )


if __name__ == "__main__":
    sys.exit(main())
