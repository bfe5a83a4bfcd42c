"""Command-line front end for the adaptive scheme experiments.

Subcommands run the coupled convergence/cost experiment, fit rate curves
to its output, estimate occupation times near the discontinuity surface,
and verify the scheme against the transformed-equation benchmark.  Output
schemas are pinned: run CSVs have exactly the columns
``delta,msq,msq_stderr,cost_mean,cost_stderr`` and fit JSONs exactly the
keys ``c1,c2,c3,residual_logspace,residual_rawspace``.  Exit codes: 0 on
success, 2 on usage errors, 1 on runtime failure.  The estimator commands
pass their parsed options to ``run_experiment``, ``occupation_values`` and
``verify_transform`` as plain arguments and leave the numeric input rules to
them, so a ValueError they raise exits 2 and any other failure, such as a
lane that runs away, exits 1.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import dataclasses
import json
import logging
import math
import numbers
import operator
import re
import sys
from pathlib import Path

import click
import numpy as np

from . import _engine
from .geometry import surface_from_config
from .montecarlo import _mean_stderr, _write_csv, occupation_values, run_experiment, verify_transform
from .problems import ExampleEntry, _Lift1D, _LiftDiffusion1D, get_example
from .regression import SingularFitError, fit_rate
from .solver import SdeProblem, StepSizeParams
from .transform1d import PiecewiseDrift1D

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

# the arithmetic of constant subexpressions, as eval applies it; an integer power
# that may pass _MAX_CONST_BITS bits is refused unevaluated (9**9**9 runs for minutes)
_CONST_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod,
    ast.Pow: operator.pow, ast.BitAnd: operator.and_, ast.BitOr: operator.or_,
    ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Invert: operator.invert,
}
_MAX_CONST_BITS = 1 << 16


def _constant_value(node):
    """Value of a constant-only subtree, or None if it reads a name or calls."""
    if isinstance(node, ast.Constant):
        return node.value
    args = [_constant_value(n) for n in ast.iter_child_nodes(node) if isinstance(n, ast.expr)]
    if not isinstance(node, (ast.BinOp, ast.UnaryOp)) or None in args:
        return None
    a, b = args[0], args[-1]
    if (isinstance(node.op, ast.Pow) and type(a) is type(b) is int
            and abs(a) > 1 and b * a.bit_length() > _MAX_CONST_BITS):
        raise OverflowError(f"integer power with over {_MAX_CONST_BITS} bits")
    return _CONST_OPS[type(node.op)](*args)


def _check_expression(expr: str, variables) -> None:
    """Reject anything outside the config-expression grammar with a ValueError.

    So is a constant subexpression that divides by zero, overflows or is too
    large to compute: it would fail, or hang, on the first evaluation.
    """
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
    try:
        _constant_value(tree)
    except (ArithmeticError, TypeError) as exc:
        raise ValueError(f"expression {expr!r} has a constant that fails: {exc}") from None


class ExpressionFunction:
    """Numpy expression over named variables; it pickles as its text.

    The expression and its constant subexpressions are checked when the
    function is built; see ``_check_expression``.
    """

    def __init__(self, expr: str, variables):
        self.variables = tuple(variables)
        _check_expression(expr, self.variables)
        self.expr = expr
        self._code = compile(expr, "<config expression>", "eval")

    def __reduce__(self):
        return ExpressionFunction, (self.expr, self.variables)

    def __call__(self, *args):
        env = dict(_EXPR_GLOBALS)
        env.update(zip(self.variables, args))
        return eval(self._code, {"__builtins__": {}}, env)


class VectorField:
    """Vector field with one expression per component, in variables x1..xd.

    ``d`` is the number of expressions, not the config's ``dimension``, which
    ``SdeProblem`` checks before it evaluates the field.  A state of fewer
    components leaves a name unbound: a NameError on the first evaluation.
    """

    def __init__(self, exprs):
        names = tuple(f"x{i + 1}" for i in range(len(exprs)))
        self.fns = tuple(ExpressionFunction(e, names) for e in exprs)

    def __call__(self, x):
        comps = tuple(x[..., i] for i in range(x.shape[-1]))
        shape = x[..., 0].shape
        cols = [
            np.broadcast_to(np.asarray(f(*comps), dtype=float), shape)
            for f in self.fns
        ]
        return np.stack(cols, axis=-1)


class MatrixField:
    """Matrix field with one VectorField per row, in variables x1..xd."""

    def __init__(self, rows):
        self.rows = tuple(VectorField(row) for row in rows)

    def __call__(self, x):
        return np.stack([row(x) for row in self.rows], axis=-2)


# 2^-N, with N no longer than the 4300 digits int() reads; a longer N is not
# a delta, and the token is refused by name
_EXPONENT = r"2\^-(\d{1,4300})"


def _parse_delta_token(token: str) -> float:
    token = token.strip()
    m = re.fullmatch(_EXPONENT, token)
    if m:
        return 2.0 ** -int(m.group(1))
    try:
        return float(token)
    except ValueError:
        raise click.BadParameter(f"cannot parse delta {token!r}") from None


def parse_deltas(spec: str):
    """Parse ``2^-a..2^-b`` dyadic ranges or comma lists of deltas."""
    spec = spec.strip()
    m = re.fullmatch(rf"{_EXPONENT}\.\.{_EXPONENT}", spec)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if b < a:
            raise click.BadParameter(f"range {spec!r} must go from coarse to fine")
        if 2.0**-b == 0.0:  # before b - a + 1 floats are built
            raise click.BadParameter(f"range {spec!r} ends at 2^-{b}, which is 0 as a float")
        return tuple(2.0**-k for k in range(a, b + 1))
    return tuple(_parse_delta_token(tok) for tok in spec.split(","))


def parse_epsilons(spec: str):
    try:
        return tuple(float(tok) for tok in spec.split(","))
    except ValueError:
        raise click.BadParameter(f"cannot parse epsilon list {spec!r}") from None


def _check_numbers(cfg, *keys):
    """Refuse anything but a JSON number, or a list of them, at ``keys`` in ``cfg``.

    float() and numpy would read true as 1.0 and "0.5" as 0.5.  A missing
    key is left to the code that reads it.
    """
    for key in (k for k in keys if k in cfg):
        value = cfg[key]
        many = isinstance(value, list)
        entries = value if many else [value]
        if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in entries):
            what = "entries must be numbers" if many else "must be a number"
            raise ValueError(f"{key} {what}, not {value!r}")


def _drift_from_config(cfg: dict, dimension: int):
    drift = cfg["drift"]
    if dimension == 1:
        if isinstance(drift, str):
            return _Lift1D(ExpressionFunction(drift, ("x",)))
        _check_numbers(drift, "breakpoints")
        return _Lift1D(PiecewiseDrift1D(
            breakpoints=tuple(float(b) for b in drift["breakpoints"]),
            branches=tuple(
                ExpressionFunction(e, ("x",)) for e in drift["branches"]
            ),
        ))
    return VectorField(list(drift))


def _diffusion_from_config(cfg: dict, dimension: int):
    diffusion = cfg["diffusion"]
    if dimension == 1:
        return _LiftDiffusion1D(ExpressionFunction(diffusion, ("x",)))
    return MatrixField(list(diffusion))


def problem_from_config(cfg: dict):
    """Build (SdeProblem, transform factory) from a config dict.

    The schema mirrors SdeProblem: scalar fields ``dimension`` (an integer),
    ``horizon``, ``x0``, ``eps0``, ``sigma_sup``; a ``surface`` object with a
    geometry ``type``; and ``drift``/``diffusion`` as numpy expressions (in
    ``x`` for one dimension, ``x1..xd`` otherwise).  One-dimensional drifts
    may instead give ``{"breakpoints": [...], "branches": [...]}``, each jump
    on the surface, which enables the transform benchmark.  A drift that
    jumps must take that form, which ``SdeProblem.__post_init__`` checks: a
    drift given as one expression (``where``, ``sign``, ...) is not checked
    and must be continuous off the surface.  The factory is
    ``ExampleEntry.transform``; see ``problems.transform_of``.  A number, or
    an entry of a list of them, must be a JSON number: a bool or a string is
    refused.  Other keys, such as a drift bound left in an older config, are
    ignored.
    """
    try:
        dimension = cfg["dimension"]
        # int() alone would run 1.7 and true as one-dimensional problems
        if isinstance(dimension, bool) or dimension != int(dimension):
            raise ValueError(f"dimension must be an integer, not {dimension!r}")
        dimension = int(dimension)
        _check_numbers(cfg, "x0", "horizon", "eps0", "sigma_sup")
        _check_numbers(cfg["surface"], "points", "normal", "offset", "center", "radius")
        surface = surface_from_config(cfg["surface"])
        problem = SdeProblem(
            dimension=dimension,
            drift=_drift_from_config(cfg, dimension),
            diffusion=_diffusion_from_config(cfg, dimension),
            surface=surface,
            x0=np.asarray(cfg["x0"], dtype=float),
            horizon=float(cfg["horizon"]),
            eps0=float(cfg["eps0"]),
            sigma_sup=float(cfg["sigma_sup"]),
        )
    except (ArithmeticError, KeyError, NameError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad problem config: {exc}") from exc
    return problem, ExampleEntry("config", problem).transform


def _load_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}") from exc


def _resolve_problem(example, config_path):
    """Problem and its transform factory from an example name or config file.

    Only ``verify_transform`` builds the transform, so the other commands
    also run problems whose diffusion vanishes at a breakpoint.
    """
    if (example is None) == (config_path is None):
        raise click.UsageError("give exactly one of EXAMPLE or --config")
    if example is not None:
        try:
            entry = get_example(example)
        except KeyError as exc:
            raise click.UsageError(exc.args[0]) from None
        return entry.problem, entry.transform
    return problem_from_config(_load_config(config_path))


@contextlib.contextmanager
def _estimator_errors(command):
    """Exit 2 on an input the library rejects (ValueError), 1 on any other failure."""
    try:
        yield
    except click.ClickException:
        raise
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    except Exception as exc:
        click.echo(f"{command} failed: {exc}", err=True)
        sys.exit(1)


def _write_rows(out_dir, name, header, rows):
    """Write ``out_dir/name``, a CSV of ints and repr floats, which read back exactly."""
    target = Path(out_dir) / name
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w") as fh:
        _write_csv(fh, header, rows)
    click.echo(f"wrote {target}")


def _trajectory(problem, params, master_seed, index=0):
    """Grid times, states and step count of one path from a one-lane forward pass.

    The nodes are ``(0, x0)`` and then every step's end, so the last one is
    at or past the horizon, exactly as the estimators step the path.
    """
    times, states = [0.0], [problem.x0]

    def record(act, tc, wc, x, mu, sig, dist, dist_end, t_next, xn):
        times.append(t_next[0])
        states.append(xn[0])

    labels, keys, rung, _ = _engine.ladder_lanes([index], 1, master_seed)
    out = _engine.forward_pass(problem, (params,), rung, keys, labels, observe=record)
    return np.array(times), np.array(states), int(out["n"][0])


def _dump_trajectory(problem, delta, master_seed, out_dir: Path):
    """Write sample 0's path of a fresh forward pass at ``delta``, rows ``k,tau_k,x1..xd``.

    It is the sample-0 path of ``verify_transform``'s adaptive pass at ``delta``,
    not the fine run of ``run_experiment``, which is bridged against the coarse knots.
    """
    params = StepSizeParams.for_problem(problem, delta)
    times, states, _ = _trajectory(problem, params, master_seed)
    _write_rows(
        out_dir, f"trajectory_delta_{delta!r}.csv",
        ["k", "tau_k"] + [f"x{j + 1}" for j in range(problem.dimension)],
        ((k, t, *x) for k, (t, x) in enumerate(zip(times, states))),
    )


def _log_to_stderr(level):
    """Log the package at ``level`` to stderr, as bare messages; return the undo.

    Without it the package logs only warnings, through logging's last-resort
    handler, in the same format.
    """
    logger = logging.getLogger(__package__)
    handler = logging.StreamHandler()  # sys.stderr as it is now
    old_level = logger.level
    logger.setLevel(level)
    logger.addHandler(handler)

    def undo():
        logger.removeHandler(handler)
        logger.setLevel(old_level)

    return undo


@click.group()
@click.option("-v", "--log-level", type=click.Choice(["info", "warning", "error"], case_sensitive=False), default=None, help="Level of the adaptive_em log on stderr; by default warnings only. info adds each batch job's size and time.")
@click.pass_context
def main(ctx, log_level):
    """Adaptive Euler-Maruyama experiments for drift-discontinuous SDEs."""
    if log_level is not None:
        ctx.call_on_close(_log_to_stderr(log_level.upper()))


@main.command("run")
@click.argument("example", required=False)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="Problem config JSON instead of a named example.")
@click.option("--deltas", default="2^-2..2^-6", show_default=True, help="Dyadic range 2^-a..2^-b or comma list.")
@click.option("--samples", default=1000, show_default=True, help="Monte Carlo samples per delta.")
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
    with _estimator_errors("run"):
        problem, _ = _resolve_problem(example, config_path)
        delta_values = parse_deltas(deltas)
        eps_values = parse_epsilons(occupation_epsilons) if occupation_epsilons else ()
        report = run_experiment(problem, delta_values, samples, seed, workers, eps_values)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if dump_trajectories:
            for delta in delta_values:
                _dump_trajectory(problem, delta, seed, out)
        with open(out / "report.csv", "w") as fh:
            report.to_csv(fh)
        with open(out / "report.json", "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
        click.echo(f"wrote {out / 'report.csv'} and {out / 'report.json'}")


def _numeric_column(report_csv, rows, name):
    try:
        return [float(r[name]) for r in rows]
    except (TypeError, ValueError):
        raise click.UsageError(f"{report_csv} has a non-numeric cell in column {name!r}") from None


@main.command("fit")
@click.argument("report_csv", type=click.Path(exists=True))
@click.option("--column", default="msq", show_default=True, help="Report column to fit against delta.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default="fit.json", show_default=True, help="Where to write the fit JSON.")
def cmd_fit(report_csv, column, out_path):
    """Fit c1 * log(1/delta)^c2 * delta^c3 to a column of a run report."""
    try:
        with open(report_csv) as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise click.UsageError(f"cannot read report {report_csv}: {exc}") from exc
    if not rows or "delta" not in rows[0]:
        raise click.UsageError(f"{report_csv} lacks a delta column")
    if column not in rows[0]:
        raise click.UsageError(f"{report_csv} lacks column {column!r}")
    deltas = _numeric_column(report_csv, rows, "delta")
    values = _numeric_column(report_csv, rows, column)
    try:
        fit = fit_rate(deltas, values)
    except (SingularFitError, ValueError) as exc:
        click.echo(f"fit failed: {exc}", err=True)
        sys.exit(1)
    text = json.dumps(dataclasses.asdict(fit), indent=2)
    click.echo(text)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(text + "\n")


@main.command("occupation")
@click.argument("example", required=False)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="Problem config JSON instead of a named example.")
@click.option("--epsilons", default="0.1,0.05", show_default=True, help="Comma list of tube half-widths.")
@click.option("--delta", default="2^-6", show_default=True, help="Step-size parameter.")
@click.option("--samples", default=1000, show_default=True, help="Monte Carlo samples per epsilon.")
@click.option("--seed", default=0, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".", show_default=True)
def cmd_occupation(example, config_path, epsilons, delta, samples, seed, workers, out_dir):
    """Estimate time spent within epsilon of the discontinuity surface.

    Writes occupation.csv with one row per epsilon.
    """
    with _estimator_errors("occupation"):
        problem, _ = _resolve_problem(example, config_path)
        eps_values = parse_epsilons(epsilons)
        delta_value = _parse_delta_token(delta)
        vals = occupation_values(problem, delta_value, eps_values, samples, seed, workers)
        _write_rows(
            out_dir, "occupation.csv", ["epsilon", "occupation", "occupation_stderr"],
            ((eps, *_mean_stderr(row)) for eps, row in zip(eps_values, vals)),
        )


@main.command("verify-transform")
@click.argument("example", required=False)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="Problem config JSON instead of a named example.")
@click.option("--deltas", default="2^-3,2^-5,2^-7", show_default=True, help="Dyadic range or comma list.")
@click.option("--samples", default=4000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".", show_default=True)
def cmd_verify_transform(example, config_path, deltas, samples, seed, workers, out_dir):
    """Compare the adaptive scheme against the transformed-equation benchmark.

    Only one-dimensional problems with piecewise drift support the
    transform; writes verify.csv with per-delta mean squared gaps.
    """
    with _estimator_errors("verify-transform"):
        problem, _ = _resolve_problem(example, config_path)
        rows = verify_transform(problem, parse_deltas(deltas), samples, seed, workers)
        header = ["delta", "mean_sq", "stderr"]
        _write_rows(out_dir, "verify.csv", header, ([row[c] for c in header] for row in rows))


if __name__ == "__main__":
    main()
