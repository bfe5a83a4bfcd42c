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
from .geometry import Circle2D, Hyperplane, PointSet1D
from .montecarlo import _mean_stderr, _write_csv, occupation_values, run_experiment, verify_transform
from .problems import ExampleEntry, _Lift1D, _LiftDiffusion1D, get_example
from .regression import SingularFitError, fit_rate
from .solver import SdeProblem, StepSizeParams
from .transform1d import PiecewiseDrift1D

# the names an expression may read besides its variables: the numpy functions
# of these names, e and pi
_EXPR_GLOBALS = {
    **{name: getattr(np, name) for name in (
        "abs", "arctan", "cos", "exp", "log", "maximum", "minimum", "sign", "sin", "sqrt",
        "tanh", "where",
    )},
    "e": math.e, "pi": math.pi,
}

# the arithmetic of a config expression, as eval applies it, which also folds its
# constant subexpressions; an integer power that may pass _MAX_CONST_BITS bits is
# refused unevaluated (9**9**9 runs for minutes)
_CONST_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod,
    ast.Pow: operator.pow, ast.BitAnd: operator.and_, ast.BitOr: operator.or_,
    ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Invert: operator.invert,
}
_COMPARE_OPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_MAX_CONST_BITS = 1 << 16
_EVAL_GLOBALS = {"__builtins__": {}, **_EXPR_GLOBALS}


def _checked(node, expr, variables):
    """Check ``node`` against the grammar; its value if it is a constant subexpression, else None.

    The grammar: numbers, names, the operators of _CONST_OPS, single comparisons
    and calls to the functions in _EXPR_GLOBALS.  Conditions combine with numpy's
    elementwise & | ~, since `and`, `or`, `not` and chained comparisons call
    bool() on a batch, which raises.  A constant subexpression is evaluated, so
    one that fails raises its ArithmeticError or TypeError here.
    """
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):
            raise ValueError(f"expression {expr!r} has a non-numeric constant {node.value!r}")
        return node.value
    if isinstance(node, ast.Name):
        if node.id not in variables and node.id not in _EXPR_GLOBALS:
            raise ValueError(f"expression {expr!r} uses an unknown name {node.id!r}")
        return None
    if (isinstance(node, ast.BoolOp) or isinstance(node, ast.Compare) and len(node.ops) > 1
            or isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)):
        raise ValueError(
            f"expression {expr!r} uses `and`, `or`, `not` or a chained comparison, "
            "which fail on a batch of points; combine conditions with &, | and ~"
        )
    if isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and callable(_EXPR_GLOBALS.get(node.func.id))
                and not node.keywords):
            raise ValueError(f"expression {expr!r} calls something other than a listed function")
        op = None
    elif isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Compare)):
        op = node.ops[0] if isinstance(node, ast.Compare) else node.op
    else:
        raise ValueError(f"expression {expr!r} uses {type(node).__name__}, which is not allowed")
    if not isinstance(op, (type(None), *_CONST_OPS, *_COMPARE_OPS)):
        raise ValueError(f"expression {expr!r} uses {type(op).__name__}, which is not allowed")
    args = [_checked(n, expr, variables) for n in ast.iter_child_nodes(node) if isinstance(n, ast.expr)]
    if type(op) not in _CONST_OPS or None in args:
        return None
    a, b = args[0], args[-1]
    if (isinstance(op, ast.Pow) and type(a) is type(b) is int
            and abs(a) > 1 and b * a.bit_length() > _MAX_CONST_BITS):
        raise OverflowError(f"integer power with over {_MAX_CONST_BITS} bits")
    return _CONST_OPS[type(op)](*args)


class ExpressionFunction:
    """Numpy expression over named variables; it pickles as its text.

    It is checked against the grammar of ``_checked`` when it is built.
    """

    def __init__(self, expr: str, variables):
        self.variables = tuple(variables)
        self.expr = expr
        try:
            tree = ast.parse(expr, mode="eval")
            _checked(tree.body, expr, self.variables)
            self._code = compile(tree, "<config expression>", "eval")
        except SyntaxError as exc:
            raise ValueError(f"expression {expr!r} is not valid: {exc.msg}") from None
        except (ArithmeticError, TypeError) as exc:
            raise ValueError(f"expression {expr!r} has a constant that fails: {exc}") from None
        except RecursionError:
            # ast.parse, the recursive _checked and compile each give out on a
            # long enough chain of operators
            raise ValueError(f"expression {expr!r} is nested too deeply") from None

    def __reduce__(self):
        return ExpressionFunction, (self.expr, self.variables)

    def __call__(self, *args):
        return eval(self._code, _EVAL_GLOBALS, dict(zip(self.variables, args)))


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


def _is_number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _nonempty_list_of(shape):
    return lambda v: isinstance(v, list) and v != [] and all(map(_SHAPES[shape], v))


# the shapes a config value may have, by the words that name them.  float() and
# numpy would read true as 1.0 and "0.5" as 0.5, and a string where a list
# belongs as a list of its characters.  An integral float is an integer, as
# "dimension": 2.0 has always run; a list of numbers may be empty, as
# "breakpoints": [] is a drift without jumps
_SHAPES = {
    "an integer": lambda v: _is_number(v) and v % 1 == 0,
    "a number": _is_number,
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "an object": lambda v: isinstance(v, dict),
    "a string": lambda v: isinstance(v, str),
    "a list of strings": _nonempty_list_of("a string"),
    "a list of lists of strings": _nonempty_list_of("a list of strings"),
}


def _get(cfg, key, *shapes):
    """``cfg[key]`` if it has one of ``shapes``, else a ValueError that names ``key``.

    The message names the first shape, or the entries of a list where a list
    of numbers belongs.  A missing key raises ``KeyError(key)``.
    """
    value = cfg[key]
    if any(_SHAPES[shape](value) for shape in shapes):
        return value
    if isinstance(value, list) and "a list of numbers" in shapes:
        raise ValueError(f"{key} entries must be numbers, not {value!r}")
    raise ValueError(f"{key} must be {shapes[0]}, not {value!r}")


# each surface type: its class and the shape of each of its keys, which are
# the class's arguments
_SURFACES = {
    "points1d": (PointSet1D, {"points": "a list of numbers"}),
    "hyperplane": (Hyperplane, {"normal": "a list of numbers", "offset": "a number"}),
    "circle": (Circle2D, {"center": "a list of numbers", "radius": "a number"}),
}


def _surface_from_config(surface: dict):
    """Build the surface of a config's ``surface`` object, whose ``type`` keys ``_SURFACES``.

    A key of another type is ignored once its shape is checked.
    """
    kind = _get(surface, "type", "a string")
    if kind not in _SURFACES:
        raise ValueError(f"unknown surface type: {kind!r}")
    given = {key: _get(surface, key, shape)
             for _, shapes in _SURFACES.values() for key, shape in shapes.items() if key in surface}
    cls, shapes = _SURFACES[kind]
    return cls(**{key: given[key] for key in shapes})


def _drift_from_config(cfg: dict, dimension: int):
    if dimension != 1:
        return VectorField(_get(cfg, "drift", "a list of strings"))
    drift = _get(cfg, "drift", "a string", "an object")
    if isinstance(drift, str):
        return _Lift1D(ExpressionFunction(drift, ("x",)))
    return _Lift1D(PiecewiseDrift1D(
        breakpoints=_get(drift, "breakpoints", "a list of numbers"),
        branches=[ExpressionFunction(e, ("x",)) for e in _get(drift, "branches", "a list of strings")],
    ))


def _diffusion_from_config(cfg: dict, dimension: int):
    if dimension != 1:
        return MatrixField(_get(cfg, "diffusion", "a list of lists of strings"))
    return _LiftDiffusion1D(ExpressionFunction(_get(cfg, "diffusion", "a string"), ("x",)))


def problem_from_config(cfg: dict) -> SdeProblem:
    """Build the SdeProblem of a config dict.

    The schema mirrors SdeProblem: an integer ``dimension``; numbers
    ``horizon``, ``eps0`` and ``sigma_sup``; ``x0``, a list of numbers or,
    in one dimension, a number; a ``surface`` object whose ``type`` names a
    row of ``_SURFACES``; and ``drift``/``diffusion`` as numpy expressions
    (in ``x`` for one dimension, ``x1..xd`` otherwise): a string each in one
    dimension, else a non-empty list of strings and a non-empty list of
    non-empty lists of strings.  One-dimensional drifts may instead give
    ``{"breakpoints": [...], "branches": [...]}``, a list of numbers and a
    non-empty list of strings, each jump on the surface, which enables the
    transform benchmark (``problems.transform_of``).  A drift that jumps must
    take that form, which ``SdeProblem.__post_init__`` checks: a drift given
    as one expression (``where``, ``sign``, ...) is not checked and must be
    continuous off the surface.  ``_get`` reads every key and refuses a value
    of another shape by the key's name.  Other keys, such as a drift bound
    left in an older config, are ignored.
    """
    try:
        cfg = _get({"the config": cfg}, "the config", "an object")
        dimension = int(_get(cfg, "dimension", "an integer"))
        return SdeProblem(
            dimension=dimension,
            drift=_drift_from_config(cfg, dimension),
            diffusion=_diffusion_from_config(cfg, dimension),
            surface=_surface_from_config(_get(cfg, "surface", "an object")),
            x0=np.asarray(_get(cfg, "x0", "a number", "a list of numbers"), dtype=float),
            horizon=float(_get(cfg, "horizon", "a number")),
            eps0=float(_get(cfg, "eps0", "a number")),
            sigma_sup=float(_get(cfg, "sigma_sup", "a number")),
        )
    except (ArithmeticError, KeyError, NameError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad problem config: {exc}") from exc


def _load_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}") from exc


def _resolve_problem(example, config_path):
    """Problem and its transform factory from an example name or config file.

    No command reads the factory: the pair stays only because
    ``perfbench/workloads.py`` reads ``[0]``.  Only ``verify_transform``
    builds the transform, so the other commands also run problems whose
    diffusion vanishes at a breakpoint.
    """
    if (example is None) == (config_path is None):
        raise click.UsageError("give exactly one of EXAMPLE or --config")
    if example is None:
        entry = ExampleEntry("config", problem_from_config(_load_config(config_path)))
    else:
        try:
            entry = get_example(example)
        except KeyError as exc:
            raise click.UsageError(exc.args[0]) from None
    return entry.problem, entry.transform


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


def _dump_trajectory(problem, delta, master_seed, out_dir: Path):
    """Write sample 0's path of a one-lane forward pass at ``delta``, rows ``k,tau_k,x1..xd``.

    The nodes are ``(0, x0)`` and then every step's end, so the last one is
    at or past the horizon, exactly as the estimators step the path.  It is
    the sample-0 path of ``verify_transform``'s adaptive pass at ``delta``,
    not the fine run of ``run_experiment``, which is bridged against the
    coarse knots.
    """
    times, states = [0.0], [problem.x0]

    def record(act, tc, wc, x, mu, sig, dist, dist_end, t_next, xn):
        times.append(t_next[0])
        states.append(xn[0])

    labels, keys, rung, _ = _engine.ladder_lanes([0], 1, master_seed)
    params = StepSizeParams.for_problem(problem, delta)
    _engine.forward_pass(problem, (params,), rung, keys, labels, observe=record)
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
