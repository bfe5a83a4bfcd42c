"""The benchmark's workloads and how one repetition of a workload runs.

A repetition runs the workload's commands through the package's own click
entry point, in this process, writes their outputs to a scratch directory,
and reads them back as rows.  A row is one delta (a ``report.csv`` or
``verify.csv`` line) or one fit; its sha256 is what the correctness gate
compares.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import resource
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from adaptive_em import cli

FITS = ("msq", "cost_mean")
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_out"  # output of every repetition


@dataclass(frozen=True)
class Workload:
    """One set of commands; ``kind`` is ``ladder`` (run, then fits) or ``transform``."""

    name: str
    kind: str
    example: str
    deltas: str
    samples: int

    def delta_values(self):
        return cli.parse_deltas(self.deltas)

    def resolve(self):
        """Problem and transform, as the commands resolve them."""
        return cli._resolve_problem(self.example, None)

    def coarse(self):
        """The coarsest rungs at the same size; their rows equal the full run's."""
        deltas = self.delta_values()[: 3 if self.kind == "ladder" else 1]
        return replace(self, deltas=",".join(repr(d) for d in deltas))

    def commands(self, seed, out):
        common = ["--deltas", self.deltas, "--samples", str(self.samples),
                  "--seed", str(seed), "--workers", "1", "--out", str(out)]
        if self.kind == "transform":
            return [["verify-transform", self.example, *common]]
        run = ["run", self.example, *common]
        fits = [["fit", str(out / "report.csv"), "--column", c, "--out", str(out / f"fit_{c}.json")]
                for c in FITS]
        return [run, *fits]

    def row_ids(self):
        """Every row a repetition must produce, in output order."""
        keys = [repr(d) for d in self.delta_values()]
        if self.kind == "transform":
            return [f"verify.csv:{k}" for k in keys]
        return [f"report.csv:{k}" for k in keys] + [f"fit_{c}.json" for c in FITS]

    def lane_steps(self, table):
        """Lane-steps implied by the estimate table (fine runs, or the fixed grid)."""
        if self.kind == "transform":
            horizon = self.resolve()[0].horizon
            return sum(math.ceil(horizon / (d * d)) for d in self.delta_values()) * self.samples
        return sum(float(r["cost_mean"]) for r in table) * self.samples

    def finest_rse(self, table):
        """Relative standard error of the finest-delta estimate."""
        last = table[-1]
        if self.kind == "transform":
            return float(last["stderr"]) / float(last["mean_sq"])
        return float(last["msq_stderr"]) / float(last["msq"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ladder-ex1",
            kind="ladder",
            example="example1",
            deltas="2^-2..2^-8",
            samples=256,
        ),
        Workload(
            name="transform-ex2",
            kind="transform",
            example="example2",
            deltas="2^-3,2^-5,2^-7",
            samples=512,
        ),
    )
}


def _read_outputs(wl, out):
    """Rows (id -> bytes) and the parsed estimate table of one repetition."""
    rows = {}
    table_name = "verify.csv" if wl.kind == "transform" else "report.csv"
    table_path = out / table_name
    table = []
    if table_path.exists():
        lines = table_path.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            rec = dict(zip(header, line.split(",")))
            table.append(rec)
            rows[f"{table_name}:{repr(float(rec['delta']))}"] = line.encode()
    for c in FITS:
        path = out / f"fit_{c}.json"
        if path.exists():
            rows[path.name] = path.read_bytes()
    return rows, table


def cpu_seconds():
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@dataclass
class Repetition:
    wall_s: float
    cpu_s: float
    digests: dict  # row id -> sha256 hex
    table: list  # estimate rows as dicts of strings
    errors: list


def run_repetition(wl, seed, scratch, tracer=None):
    """Run the workload's commands once and collect their outputs.

    With a tracer, each command is recorded as a ``cli.command`` span.
    """
    out = Path(tempfile.mkdtemp(dir=scratch))
    errors = []
    try:
        sink = io.StringIO()
        c0, t0 = cpu_seconds(), perf_counter()
        with contextlib.redirect_stdout(sink):
            for argv in wl.commands(seed, out):
                span = tracer.open("cli.command") if tracer else None
                try:
                    cli.main.main(argv, standalone_mode=False)
                except SystemExit as exc:
                    if exc.code:
                        errors.append(f"{argv[0]} exited with {exc.code}")
                except Exception as exc:  # a failed command fails its rows
                    errors.append(f"{argv[0]}: {exc!r}")
                finally:
                    if tracer:
                        tracer.close(span)
        wall, cpu = perf_counter() - t0, cpu_seconds() - c0
        rows, table = _read_outputs(wl, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in rows.items()}
    return Repetition(wall, cpu, digests, table, errors)
