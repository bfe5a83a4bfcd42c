"""Compare every output file of a fixed set of commands between two source trees.

Usage, with a checkout of the other tree in ``$OTHER``:

    python3 scripts/bit_identity.py $OTHER

Runs the commands in ``COMMANDS`` against this script's tree and against
``$OTHER``, in one fresh interpreter per tree with that tree's ``src`` first
on ``PYTHONPATH``, each command group writing to its own directory; the
``config`` and ``config-2d`` groups run the problems of ``CONFIGS``, written
next to them.  Then it
compares every file the two trees wrote, byte for byte, except
``report.json``, which is compared after dropping its ``wall_time``.  Prints
one verdict per file and exits 1 on any difference, on a file only one tree
wrote, or on a command that fails.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# config-file problems, by the placeholder that names them in COMMANDS; each
# tree's run writes them to <placeholder>.json in its output root.  config is
# the problem of tests/oracles.py: three breakpoints, expression branches and a
# state-dependent diffusion.  config_2d jumps only on its plane, in its first
# drift component, and has a state-dependent diffusion matrix, so it runs
# VectorField, MatrixField and Hyperplane
CONFIGS = {
    "config": {
        "dimension": 1,
        "surface": {"type": "points1d", "points": [-0.5, 0.25, 1.0]},
        "drift": {
            "breakpoints": [-0.5, 0.25, 1.0],
            "branches": ["1.0", "2*x", "-x*x", "sin(x) - 2"],
        },
        "diffusion": "1 + 0.25*sin(x)",
        "x0": [0.0],
        "horizon": 1.0,
        "eps0": 0.3,
        "sigma_sup": 1.25,
    },
    "config_2d": {
        "dimension": 2,
        "surface": {"type": "hyperplane", "normal": [0.6, 0.8], "offset": 0.3},
        "drift": ["where(0.6*x1 + 0.8*x2 < 0.3, 1.0, -1.0) - 0.5*x1", "sin(x1) - x2"],
        "diffusion": [["1 + 0.25*cos(x2)", "0.0"], ["0.2*x1", "0.5"]],
        "x0": [0.0, 0.0],
        "horizon": 1.0,
        "eps0": 0.3,
        "sigma_sup": 1.25,
    },
}

# output directory: the commands run in it, in order; {out} is that directory
COMMANDS = {
    "run-example1": [
        ["run", "example1", "--deltas", "2^-2..2^-8", "--samples", "256",
         "--dump-trajectories", "--out", "{out}"],
        ["fit", "{out}/report.csv", "--column", "msq", "--out", "{out}/fit_msq.json"],
        ["fit", "{out}/report.csv", "--column", "cost_mean", "--out", "{out}/fit_cost_mean.json"],
    ],
    "run-example2": [
        ["run", "example2", "--deltas", "2^-2..2^-7", "--samples", "300", "--seed", "5",
         "--out", "{out}"],
    ],
    "run-example3": [
        ["run", "example3", "--deltas", "2^-2..2^-6", "--samples", "600",
         "--occupation-epsilons", "0.1", "--workers", "2", "--out", "{out}"],
    ],
    "verify-example2": [
        ["verify-transform", "example2", "--samples", "600", "--out", "{out}"],
    ],
    "verify-example1": [
        ["verify-transform", "example1", "--deltas", "2^-5,2^-3,2^-4", "--samples", "300",
         "--seed", "4", "--out", "{out}"],
    ],
    "occupation-example2": [
        ["occupation", "example2", "--samples", "600", "--out", "{out}"],
    ],
    "config": [
        ["run", "--config", "{config}", "--deltas", "2^-2..2^-6", "--samples", "256",
         "--out", "{out}"],
        ["verify-transform", "--config", "{config}", "--samples", "300", "--out", "{out}"],
        ["occupation", "--config", "{config}", "--delta", "2^-4", "--epsilons", "0.05,0.1",
         "--workers", "2", "--out", "{out}"],
    ],
    "config-2d": [
        ["run", "--config", "{config_2d}", "--deltas", "2^-2..2^-6", "--samples", "256",
         "--occupation-epsilons", "0.05,0.1", "--out", "{out}"],
        ["occupation", "--config", "{config_2d}", "--delta", "2^-4", "--epsilons", "0.05,0.1",
         "--workers", "2", "--out", "{out}"],
    ],
}

# run in the fresh interpreter: argv[1] is the tree's src, argv[2] the jobs
_DRIVER = """
import json, sys
from pathlib import Path
import adaptive_em
from adaptive_em.cli import main
if Path(adaptive_em.__file__).resolve().parent.parent != Path(sys.argv[1]).resolve():
    sys.exit(f"imported {adaptive_em.__file__}, not the package under {sys.argv[1]}")
for args in json.loads(sys.argv[2]):
    main(args, standalone_mode=False)
"""


def run_tree(tree: Path, out: Path) -> bool:
    """Run every command from ``tree`` into ``out``; False if any fails."""
    src = tree / "src"
    out.mkdir(parents=True)
    configs = {key: out / f"{key}.json" for key in CONFIGS}
    for key, path in configs.items():
        path.write_text(json.dumps(CONFIGS[key], indent=2) + "\n")
    jobs = []
    for name, commands in COMMANDS.items():
        (out / name).mkdir()
        jobs += [[a.format(out=out / name, **configs) for a in cmd] for cmd in commands]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _DRIVER, str(src), json.dumps(jobs)],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode:
        print(f"{tree}: the commands failed (exit {done.returncode})\n{done.stderr}",
              file=sys.stderr)
    return done.returncode == 0


def same(a: Path, b: Path) -> bool:
    if a.name != "report.json":
        return filecmp.cmp(a, b, shallow=False)
    a_json, b_json = (json.loads(p.read_text()) for p in (a, b))
    a_json.pop("wall_time", None)
    b_json.pop("wall_time", None)
    return a_json == b_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "this", Path(tmp) / "other"]
        if not all([run_tree(ROOT, outs[0]), run_tree(args.other_tree.resolve(), outs[1])]):
            return 1
        files = [{p.relative_to(o) for p in o.rglob("*") if p.is_file()} for o in outs]
        ok = True
        for rel in sorted(files[0] | files[1]):
            if rel not in files[0] or rel not in files[1]:
                verdict = f"only in {'this tree' if rel in files[0] else 'the other tree'}"
            else:
                verdict = "identical" if same(outs[0] / rel, outs[1] / rel) else "DIFFERENT"
            ok &= verdict == "identical"
            print(f"{verdict:>20}  {rel}")
    print("every file identical" if ok else "the trees' outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
