"""Time the transform's coefficient kernel from two source trees, alternating.

Usage, with checkouts of the two trees in ``$A`` and ``$B``:

    python3 scripts/ab_kernel.py $A $B --pairs 20 --calls 2000

Runs the ``transform-ex2`` batch job of ``scripts/ab_jobs.py`` once from
tree A (package seed 1000, the workload's sizes, one process) and records
the input of every ``Transform1D.transformed_coeffs`` call of its fixed-grid
pass.  ``--calls`` keeps that many of them, evenly spaced over the pass
(all of them by default).  Each tree builds the workload's transform, and a
pair replays the kept inputs through the ``transformed_coeffs`` of A, B and
A' (A loaded again, after B), in the alternating order of
``ab_jobs.alternate``, timing each whole replay in process time.  All
outputs must be byte-identical; the script exits 1 if they differ.  Prints
each load's median time per call and the median and quartiles over pairs of
B's time divided by A's, beside the A/A read A'/A.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab_jobs  # noqa: E402

WORKLOAD = "transform-ex2"


def capture(package) -> list:
    """The inputs of every ``transformed_coeffs`` call of the workload's job."""
    cls = package.Transform1D
    kernel = cls.transformed_coeffs
    inputs = []

    def recording(self, z):
        inputs.append(np.array(z, dtype=float))
        return kernel(self, z)

    cls.transformed_coeffs = recording
    try:
        ab_jobs.make_job(package, WORKLOAD)()
    finally:
        cls.transformed_coeffs = kernel
    return inputs


def replay(kernel, inputs):
    """Process seconds of one pass over ``inputs``, and its outputs' bytes."""
    c0 = time.process_time()
    outs = [kernel(z) for z in inputs]
    cpu = time.process_time() - c0
    return cpu, b"".join(np.ascontiguousarray(v).tobytes() for out in outs for v in out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--calls", type=int, default=None)
    args = parser.parse_args(argv)
    trees = ab_jobs.load_trees(args.tree_a, args.tree_b, "_ab_kernel_")
    inputs = capture(trees[0])
    if args.calls is not None and args.calls < len(inputs):
        inputs = [inputs[i] for i in np.linspace(0, len(inputs) - 1, args.calls).astype(int)]
    example = ab_jobs.WORKLOADS[WORKLOAD][0]
    kernels = [pkg.get_example(example).transform().transformed_coeffs for pkg in trees]
    return ab_jobs.alternate(
        [lambda kernel=kernel: replay(kernel, inputs) for kernel in kernels],
        args.pairs,
        lambda s: f"{s / len(inputs) * 1e6:.1f} us",
        f"{WORKLOAD} kernel: outputs identical over {len(inputs)} calls and {args.pairs} pairs"
        " (times per call)",
    )


if __name__ == "__main__":
    sys.exit(main())
