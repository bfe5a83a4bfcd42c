"""Command-line front end for the adaptive scheme experiments.

Subcommands run the coupled convergence/cost experiment, fit rate curves
to its output, estimate occupation times near the discontinuity surface,
and verify the scheme against the transformed-equation benchmark.  Output
schemas are pinned: run CSVs have exactly the columns
``delta,msq,msq_stderr,cost_mean,cost_stderr`` and fit JSONs exactly the
keys ``c1,c2,c3,residual_logspace,residual_rawspace``.  Exit codes: 0 on
success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import re
import sys
from pathlib import Path

import click
import numpy as np

from .brownian import BrownianPath
from .geometry import surface_from_config
from .montecarlo import (
    ExperimentConfig,
    _mean_stderr,
    occupation_values,
    run_experiment,
    verify_transform,
)
from .problems import _Lift1D, _LiftDiffusion1D, example_names, get_example
from .regression import SingularFitError, fit_rate
from .solver import SdeProblem, StepSizeParams, simulate_adaptive
from .transform1d import PiecewiseDrift1D, Transform1D

_EXPR_GLOBALS = {
    "abs": np.abs,
    "arctan": np.arctan,
    "cos": np.cos,
    "e": math.e,
    "exp": np.exp,
    "log": np.log,
    "maximum": np.maximum,
    "minimum": np.minimum,
    "pi": math.pi,
    "sign": np.sign,
    "sin": np.sin,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "where": np.where,
}


# the grammar of a config expression: numbers, names, arithmetic, single
# comparisons, unary operators, and calls to the functions in _EXPR_GLOBALS;
# conditions combine with numpy's elementwise & | ~, since `and`, `or`, `not`
# and chained comparisons call bool() on a batch, which raises
_EXPR_NODES = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.BitAnd, ast.BitOr,
    ast.UnaryOp, ast.UAdd, ast.USub, ast.Invert,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
)


def _check_expression(expr: str, variables) -> None:
    """Reject anything outside the config-expression grammar with a ValueError."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"expression {expr!r} is not valid: {exc.msg}") from None
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.BoolOp, ast.Not))
            or isinstance(node, ast.Compare) and len(node.ops) > 1
        ):
            raise ValueError(
                f"expression {expr!r} uses `and`, `or`, `not` or a chained comparison, "
                "which fail on a batch of points; combine conditions with &, | and ~"
            )
        if not isinstance(node, _EXPR_NODES):
            raise ValueError(
                f"expression {expr!r} uses {type(node).__name__}, which is not allowed"
            )
        if isinstance(node, ast.Constant) and type(node.value) not in (int, float):
            raise ValueError(f"expression {expr!r} has a non-numeric constant {node.value!r}")
        if isinstance(node, ast.Name) and node.id not in variables and node.id not in _EXPR_GLOBALS:
            raise ValueError(f"expression {expr!r} uses an unknown name {node.id!r}")
        if isinstance(node, ast.Call) and not (
            isinstance(node.func, ast.Name)
            and callable(_EXPR_GLOBALS.get(node.func.id))
            and not node.keywords
        ):
            raise ValueError(
                f"expression {expr!r} calls something other than a listed function"
            )


class ExpressionFunction:
    """Numpy expression over named variables, compiled lazily so it pickles.

    The expression is checked against the config-expression grammar when
    the function is built; see ``_check_expression``.
    """

    def __init__(self, expr: str, variables):
        self.variables = tuple(variables)
        _check_expression(expr, self.variables)
        self.expr = expr
        self._code = None

    def __getstate__(self):
        return {"expr": self.expr, "variables": self.variables}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._code = None

    def __call__(self, *args):
        if self._code is None:
            self._code = compile(self.expr, "<config expression>", "eval")
        env = dict(_EXPR_GLOBALS)
        env.update(zip(self.variables, args))
        return eval(self._code, {"__builtins__": {}}, env)


class VectorField:
    """Vector field with one expression per component in variables x1..xd."""

    def __init__(self, exprs):
        names = tuple(f"x{i + 1}" for i in range(len(exprs)))
        self.fns = tuple(ExpressionFunction(e, names) for e in exprs)

    def __call__(self, x):
        comps = tuple(x[..., i] for i in range(len(self.fns)))
        shape = x[..., 0].shape
        cols = [
            np.broadcast_to(np.asarray(f(*comps), dtype=float), shape)
            for f in self.fns
        ]
        return np.stack(cols, axis=-1)


class MatrixField:
    """Matrix field with one expression per entry in variables x1..xd."""

    def __init__(self, rows):
        d = len(rows)
        names = tuple(f"x{i + 1}" for i in range(d))
        self.fns = tuple(
            tuple(ExpressionFunction(e, names) for e in row) for row in rows
        )

    def __call__(self, x):
        comps = tuple(x[..., i] for i in range(len(self.fns)))
        shape = x[..., 0].shape
        rows = [
            np.stack(
                [
                    np.broadcast_to(np.asarray(f(*comps), dtype=float), shape)
                    for f in row
                ],
                axis=-1,
            )
            for row in self.fns
        ]
        return np.stack(rows, axis=-2)


def _parse_delta_token(token: str) -> float:
    m = re.fullmatch(r"2\^-(\d+)", token)
    if m:
        return 2.0 ** -int(m.group(1))
    try:
        return float(token)
    except ValueError:
        raise click.BadParameter(f"cannot parse delta {token!r}") from None


def parse_deltas(spec: str):
    """Parse ``2^-a..2^-b`` dyadic ranges or comma lists of deltas."""
    spec = spec.strip()
    m = re.fullmatch(r"2\^-(\d+)\.\.2\^-(\d+)", spec)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if b < a:
            raise click.BadParameter(f"range {spec!r} must go from coarse to fine")
        return tuple(2.0**-k for k in range(a, b + 1))
    return tuple(_parse_delta_token(tok) for tok in spec.split(","))


def parse_epsilons(spec: str):
    try:
        values = tuple(float(tok) for tok in spec.split(","))
    except ValueError:
        raise click.BadParameter(f"cannot parse epsilon list {spec!r}") from None
    if any(v <= 0 for v in values):
        raise click.BadParameter("epsilons must be positive")
    return values


def _drift_from_config(cfg: dict, dimension: int):
    drift = cfg["drift"]
    if dimension == 1:
        if isinstance(drift, str):
            return _Lift1D(ExpressionFunction(drift, ("x",))), None
        pw = PiecewiseDrift1D(
            breakpoints=tuple(float(b) for b in drift["breakpoints"]),
            branches=tuple(
                ExpressionFunction(e, ("x",)) for e in drift["branches"]
            ),
        )
        return _Lift1D(pw), pw
    return VectorField(list(drift)), None


def _diffusion_from_config(cfg: dict, dimension: int):
    diffusion = cfg["diffusion"]
    if dimension == 1:
        scalar = ExpressionFunction(diffusion, ("x",))
        return _LiftDiffusion1D(scalar), scalar
    return MatrixField(list(diffusion)), None


def problem_from_config(cfg: dict):
    """Build (SdeProblem, optional Transform1D) from a config dict.

    The schema mirrors SdeProblem: scalar fields ``dimension``, ``horizon``,
    ``x0``, ``eps0``, ``sigma_sup``, ``mu_sup``; a ``surface`` object with a
    geometry ``type``; and ``drift``/``diffusion`` as numpy expressions (in
    ``x`` for one dimension, ``x1..xd`` otherwise).  One-dimensional drifts
    may instead give ``{"breakpoints": [...], "branches": [...]}``, which
    also enables the transform benchmark.
    """
    try:
        dimension = int(cfg["dimension"])
        surface = surface_from_config(cfg["surface"])
        drift, pw = _drift_from_config(cfg, dimension)
        diffusion, scalar_sigma = _diffusion_from_config(cfg, dimension)
        problem = SdeProblem(
            dimension=dimension,
            drift=drift,
            diffusion=diffusion,
            surface=surface,
            x0=np.asarray(cfg["x0"], dtype=float),
            horizon=float(cfg["horizon"]),
            eps0=float(cfg["eps0"]),
            sigma_sup=float(cfg["sigma_sup"]),
            mu_sup=float(cfg["mu_sup"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad problem config: {exc}") from exc
    transform = None
    if pw is not None and scalar_sigma is not None:
        transform = Transform1D(pw, scalar_sigma, problem.eps0)
    return problem, transform


def _load_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}") from exc


def _resolve_problem(example, config_path):
    """Problem plus optional transform from an example name or config file."""
    if (example is None) == (config_path is None):
        raise click.UsageError("give exactly one of EXAMPLE or --config")
    if example is not None:
        try:
            entry = get_example(example)
        except KeyError:
            raise click.UsageError(
                f"unknown example {example!r}; choose from {', '.join(example_names())}"
            ) from None
        transform = None
        if entry.problem.dimension == 1:
            transform = entry.transform()
        return entry.problem, transform
    return problem_from_config(_load_config(config_path))


def _check_samples(ctx, param, value):
    if value < 2:
        raise click.BadParameter("need at least 2 samples")
    return value


def _dump_trajectory(problem, delta, master_seed, out_dir: Path):
    """Write the sample-0 fine-scheme trajectory for debugging."""
    path = BrownianPath(problem.dimension, master_seed, 0)
    params = StepSizeParams.for_problem(problem, delta)
    traj = simulate_adaptive(problem, params, path)
    target = out_dir / f"trajectory_delta_{delta!r}.csv"
    with open(target, "w") as fh:
        traj.to_csv(fh)
    click.echo(f"wrote {target}")


@click.group()
def main():
    """Adaptive Euler-Maruyama experiments for drift-discontinuous SDEs."""


@main.command("run")
@click.argument("example", required=False)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="Problem config JSON instead of a named example.")
@click.option("--deltas", default="2^-2..2^-6", show_default=True, help="Dyadic range 2^-a..2^-b or comma list.")
@click.option("--samples", default=1000, show_default=True, callback=_check_samples, help="Monte Carlo samples per delta.")
@click.option("--seed", default=0, show_default=True, help="Master seed for all sample streams.")
@click.option("--workers", default=1, show_default=True, help="Worker processes; results do not depend on this.")
@click.option("--occupation-epsilons", default=None, help="Comma list of tube half-widths to estimate alongside.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".", show_default=True, help="Output directory.")
@click.option("--dump-trajectories", is_flag=True, help="Also write the sample-0 trajectory per delta.")
def cmd_run(example, config_path, deltas, samples, seed, workers, occupation_epsilons, out_dir, dump_trajectories):
    """Estimate coupled mean-square differences and step counts per delta.

    Writes report.csv (pinned columns) and report.json to the output
    directory.  Rerunning with the same seed gives byte-identical CSVs
    for any worker count.
    """
    problem, _ = _resolve_problem(example, config_path)
    delta_values = parse_deltas(deltas)
    eps_values = parse_epsilons(occupation_epsilons) if occupation_epsilons else ()
    try:
        config = ExperimentConfig(
            problem=problem,
            deltas=delta_values,
            samples=samples,
            master_seed=seed,
            occupation_epsilons=eps_values,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        report = run_experiment(config, workers=workers)
        if dump_trajectories:
            for delta in delta_values:
                _dump_trajectory(problem, delta, seed, out)
    except Exception as exc:
        click.echo(f"run failed: {exc}", err=True)
        sys.exit(1)
    with open(out / "report.csv", "w") as fh:
        report.to_csv(fh)
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    click.echo(f"wrote {out / 'report.csv'} and {out / 'report.json'}")


@main.command("fit")
@click.argument("report_csv", type=click.Path(exists=True))
@click.option("--column", default="msq", show_default=True, help="Report column to fit against delta.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default="fit.json", show_default=True, help="Where to write the fit JSON.")
def cmd_fit(report_csv, column, out_path):
    """Fit c1 * log(1/delta)^c2 * delta^c3 to a column of a run report."""
    with open(report_csv) as fh:
        rows = list(csv.DictReader(fh))
    if not rows or "delta" not in rows[0]:
        raise click.UsageError(f"{report_csv} lacks a delta column")
    if column not in rows[0]:
        raise click.UsageError(f"{report_csv} lacks column {column!r}")
    deltas = [float(r["delta"]) for r in rows]
    values = [float(r[column]) for r in rows]
    try:
        fit = fit_rate(deltas, values)
    except (SingularFitError, ValueError) as exc:
        click.echo(f"fit failed: {exc}", err=True)
        sys.exit(1)
    payload = {
        "c1": fit.c1,
        "c2": fit.c2,
        "c3": fit.c3,
        "residual_logspace": fit.residual_logspace,
        "residual_rawspace": fit.residual_rawspace,
    }
    text = json.dumps(payload, indent=2)
    click.echo(text)
    with open(out_path, "w") as fh:
        fh.write(text + "\n")


@main.command("occupation")
@click.argument("example", required=False)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="Problem config JSON instead of a named example.")
@click.option("--epsilons", default="0.1,0.05", show_default=True, help="Comma list of tube half-widths.")
@click.option("--delta", default="2^-6", show_default=True, help="Step-size parameter.")
@click.option("--samples", default=1000, show_default=True, callback=_check_samples, help="Monte Carlo samples per epsilon.")
@click.option("--seed", default=0, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".", show_default=True)
def cmd_occupation(example, config_path, epsilons, delta, samples, seed, workers, out_dir):
    """Estimate time spent within epsilon of the discontinuity surface.

    Writes occupation.csv with one row per epsilon.
    """
    problem, _ = _resolve_problem(example, config_path)
    eps_values = parse_epsilons(epsilons)
    delta_value = _parse_delta_token(delta)
    try:
        params = StepSizeParams.for_problem(problem, delta_value)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["epsilon,occupation,occupation_stderr"]
    for eps in eps_values:
        try:
            vals = occupation_values(problem, params, eps, samples, seed, workers)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        except Exception as exc:
            click.echo(f"occupation failed: {exc}", err=True)
            sys.exit(1)
        mean, stderr = _mean_stderr(vals)
        lines.append(f"{eps!r},{mean!r},{stderr!r}")
    target = out / "occupation.csv"
    target.write_text("\n".join(lines) + "\n")
    click.echo(f"wrote {target}")


@main.command("verify-transform")
@click.argument("example", required=False)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="Problem config JSON instead of a named example.")
@click.option("--deltas", default="2^-3,2^-5,2^-7", show_default=True, help="Dyadic range or comma list.")
@click.option("--samples", default=4000, show_default=True, callback=_check_samples)
@click.option("--seed", default=0, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".", show_default=True)
def cmd_verify_transform(example, config_path, deltas, samples, seed, workers, out_dir):
    """Compare the adaptive scheme against the transformed-equation benchmark.

    Only one-dimensional problems with piecewise drift support the
    transform; writes verify.csv with per-delta mean squared gaps.
    """
    problem, transform = _resolve_problem(example, config_path)
    if problem.dimension != 1 or transform is None:
        raise click.UsageError(
            "transform verification needs a one-dimensional problem with piecewise drift"
        )
    delta_values = parse_deltas(deltas)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        rows = verify_transform(problem, transform, delta_values, samples, seed, workers)
    except Exception as exc:
        click.echo(f"verification failed: {exc}", err=True)
        sys.exit(1)
    lines = ["delta,mean_sq,stderr"]
    for row in rows:
        lines.append(f"{row['delta']!r},{row['mean_sq']!r},{row['stderr']!r}")
    target = out / "verify.csv"
    target.write_text("\n".join(lines) + "\n")
    click.echo(f"wrote {target}")


if __name__ == "__main__":
    main()
