"""Record paired benchmark runs as a committed ``BENCH_<n>.json``.

Run ``perfbench/run.py`` untraced on the parent and on the change, one run
each per seed and workload, alternating the two sides, and save each run's
standard output as ``<side>-<workload>-<seed>.out`` in one directory, with
``<side>`` either ``parent`` or ``change``.  For example, with checkouts of
the two trees in ``$P`` and ``$C``, the parent first on even seeds:

    mkdir runs
    for s in $(seq 1 10); do for w in ladder-ex1 transform-ex2; do
        order="P C"; [ $((s % 2)) = 1 ] && order="C P"
        for side in $order; do
            name=parent; [ $side = C ] && name=change
            (cd ${!side} && python3 perfbench/run.py --workload $w --seed $s \\
                --seconds 50 --trace 0) > runs/$name-$w-$s.out
        done
    done; done
    python3 scripts/bench_record.py runs --commit <change> --parent <parent> \\
        --out BENCH_<n>.json

The last line of each output is the benchmark's JSON result.  For every
workload and every end-to-end metric that ``BENCHMARK.json`` bounds, the
record holds the median and quartiles of each side, the relative change of
the medians, and the number of seed pairs the change wins.  It also holds,
per side, whether every run was correct and how many operations failed.
"""

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_NAME = re.compile(r"(parent|change)-(.+)-(\d+)\.out")


def load_runs(run_dir: Path) -> dict:
    """Map (side, workload, seed) to the JSON result of that run."""
    runs = {}
    for path in sorted(run_dir.iterdir()):
        m = _NAME.fullmatch(path.name)
        if m is None:
            continue
        lines = path.read_text().strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise ValueError(f"{path} does not end in a result line; did the run finish?")
        runs[m.group(1), m.group(2), int(m.group(3))] = json.loads(lines[-1])
    return runs


def _spread(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(runs: dict, metrics: list) -> dict:
    """Per-workload medians, quartiles, pair wins and correctness."""
    out = {}
    for workload in sorted({w for _, w, _ in runs}):
        seeds = sorted(
            s for side, w, s in runs
            if side == "parent" and w == workload and ("change", w, s) in runs
        )
        if not seeds:
            raise ValueError(f"no complete parent/change pair for {workload}")
        sides = {
            side: [runs[side, workload, s] for s in seeds] for side in ("parent", "change")
        }
        entry = {"seeds": seeds, "metrics": {}}
        for side, results in sides.items():
            entry[side] = {
                "correct": all(r["correct"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
            }
        for metric in metrics:
            name = metric["name"]
            p = np.array([r["metrics"][name]["value"] for r in sides["parent"]])
            c = np.array([r["metrics"][name]["value"] for r in sides["change"]])
            sign = 1.0 if metric["better"] == "higher" else -1.0
            pm, cm = float(np.median(p)), float(np.median(c))
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": _spread(p),
                "change": _spread(c),
                "rel_change": (cm - pm) / pm,
                "change_wins": int(np.sum(sign * (c - p) > 0)),
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir", type=Path)
    parser.add_argument("--commit", required=True, help="What was measured as the change.")
    parser.add_argument("--parent", required=True, help="What was measured as the parent.")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = summarize(load_runs(args.run_dir), spec["end_to_end"])
    record = {
        "commit": args.commit,
        "parent": args.parent,
        "command": spec["command"] + [
            "--workload", "<w>", "--seed", "<s>", "--seconds", str(spec["run_seconds"]), "--trace", "0"
        ],
        "seeds": sorted({s for w in workloads.values() for s in w["seeds"]}),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
