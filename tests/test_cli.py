"""End-to-end checks of the command line interface."""

import dataclasses
import hashlib
import io
import json
import logging
import math
import re

import click
import numpy as np
import pytest
from click.testing import CliRunner
from oracles import BrownianPath, simulate_adaptive

from adaptive_em import _engine, cli, montecarlo
from adaptive_em.cli import (
    ExpressionFunction,
    main,
    parse_deltas,
    parse_epsilons,
    problem_from_config,
)
from adaptive_em.problems import get_example, transform_of
from adaptive_em.solver import SdeProblem, StepSizeParams


def _invoke(args):
    return CliRunner().invoke(main, args)


def _all_text(result):
    try:
        err = result.stderr
    except ValueError:
        err = ""
    return result.output + err


_CONFIG_1D = {
    "dimension": 1,
    "surface": {"type": "points1d", "points": [0.5]},
    "drift": {"breakpoints": [0.5], "branches": ["1.0", "-1.0"]},
    "diffusion": "1.0",
    "x0": [0.0],
    "horizon": 1.0,
    "eps0": 0.2,
    "sigma_sup": 1.0,
}

# field-by-field mirror of the example3 registry entry, written as expressions
_CONFIG_2D = {
    "dimension": 2,
    "surface": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
    "drift": [
        "where(x1*x1 + x2*x2 < 1.0, -x1, 1.0)",
        "where(x1*x1 + x2*x2 < 1.0, x2, 1.0)",
    ],
    "diffusion": [["0.5*x1", "0.0"], ["0.5*x2", "0.0"]],
    "x0": [0.5, 0.5],
    "horizon": 1.0,
    "eps0": 0.5,
    "sigma_sup": 0.75,
}


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    result = _invoke(
        ["run", "example2", "--deltas", "2^-2..2^-4", "--samples", "48",
         "--seed", "3", "--out", str(out)]
    )
    assert result.exit_code == 0, _all_text(result)
    return out


def test_help_lists_commands():
    result = _invoke(["--help"])
    assert result.exit_code == 0
    for name in ("run", "fit", "occupation", "verify-transform"):
        assert name in result.output


_REGIME_WARNINGS = (
    "outer band eps1=0.4901 exceeds eps0/4=0.1 at delta=0.5; proceeding outside the analyzed regime\n"
    "outer band eps1=0.6931 exceeds eps0/4=0.1 at delta=0.25; proceeding outside the analyzed regime\n"
)


@pytest.fixture
def bare_logging(monkeypatch):
    # cut off pytest's capturing handlers, as in a plain interpreter: the
    # package's warnings then reach stderr through logging's last resort
    monkeypatch.setattr(logging.getLogger("adaptive_em"), "propagate", False)


def test_stderr_without_log_level_holds_the_regime_warnings(tmp_path, bare_logging):
    result = _invoke(["run", "example1", "--deltas", "2^-2", "--samples", "4", "--out", str(tmp_path)])
    assert result.exit_code == 0, _all_text(result)
    assert result.stderr == _REGIME_WARNINGS


@pytest.mark.parametrize(
    "option, stderr",
    [
        (["--log-level", "warning"], re.escape(_REGIME_WARNINGS)),
        (["-v", "ERROR"], ""),
        (
            ["-v", "info"],
            re.escape(_REGIME_WARNINGS)
            + r"_coupled_job: 4 samples in 1 batches on 1 worker\(s\), \d+\.\d{3} s\n",
        ),
    ],
    ids=["warning", "error", "info"],
)
def test_log_level_sets_the_package_log(tmp_path, bare_logging, option, stderr):
    logger = logging.getLogger("adaptive_em")
    before = (logger.level, list(logger.handlers))
    result = _invoke(
        [*option, "run", "example1", "--deltas", "2^-2", "--samples", "4", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, _all_text(result)
    assert re.fullmatch(stderr, result.stderr), result.stderr
    # the level and the handler last only as long as the command
    assert (logger.level, logger.handlers) == before


def test_log_level_rejects_an_unknown_level():
    result = _invoke(["-v", "loud", "run", "example1"])
    assert result.exit_code == 2
    assert "loud" in result.stderr


def test_parse_deltas_dyadic_range():
    assert parse_deltas("2^-2..2^-4") == (0.25, 0.125, 0.0625)


def test_parse_deltas_comma_list():
    assert parse_deltas("0.25,2^-3") == (0.25, 0.125)


def test_parse_deltas_spaced_lists():
    assert parse_deltas("2^-2, 2^-3") == parse_deltas("0.25, 0.125") == parse_deltas("2^-2,2^-3")
    assert parse_deltas(" 2^-2 ,2^-3 ") == (0.25, 0.125)


def test_occupation_delta_may_carry_spaces(tmp_path):
    result = _invoke(["occupation", "example2", "--delta", " 2^-6", "--samples", "4",
                      "--out", str(tmp_path)])
    assert result.exit_code == 0, _all_text(result)
    assert (tmp_path / "occupation.csv").exists()


def test_parse_deltas_rejects_bad_token():
    with pytest.raises(click.BadParameter):
        parse_deltas("abc")


def test_parse_deltas_rejects_reversed_range():
    with pytest.raises(click.BadParameter):
        parse_deltas("2^-6..2^-2")


def test_parse_deltas_refuses_a_range_past_the_smallest_float():
    # 2.0**-1075 is 0.0; the range is refused before its floats are built
    for spec in ("2^-2..2^-1075", "2^-2..2^-1000000"):
        with pytest.raises(click.BadParameter, match=spec.replace("^", r"\^")):
            parse_deltas(spec)
    assert parse_deltas("2^-1073..2^-1074") == (2.0**-1073, 5e-324)
    result = _invoke(["run", "example1", "--deltas", "2^-2..2^-1000000"])
    assert result.exit_code == 2
    assert "which is 0 as a float" in _all_text(result)


_LONG_EXPONENT = "2^-" + "1" * 5000


@pytest.mark.parametrize("spec, token", [
    (f"0.25,{_LONG_EXPONENT}", _LONG_EXPONENT),
    (f"2^-2..{_LONG_EXPONENT}", f"2^-2..{_LONG_EXPONENT}"),
], ids=["list", "range"])
def test_delta_exponent_past_4300_digits_is_refused_by_name(spec, token):
    # int() reads at most 4300 digits; a longer exponent is not a delta
    with pytest.raises(click.BadParameter, match="cannot parse delta"):
        parse_deltas(spec)
    result = _invoke(["run", "example1", "--deltas", spec, "--samples", "4"])
    assert result.exit_code == 2
    assert f"cannot parse delta {token!r}" in _all_text(result)


def test_parse_epsilons():
    assert parse_epsilons("0.1,0.05") == (0.1, 0.05)
    with pytest.raises(click.BadParameter):
        parse_epsilons("0.1,abc")


def test_problem_from_config_round_trip():
    problem = problem_from_config(_CONFIG_1D)
    assert problem.dimension == 1
    assert transform_of(problem) is not None
    problem2 = problem_from_config(_CONFIG_2D)
    assert problem2.dimension == 2
    with pytest.raises(ValueError, match="piecewise"):
        transform_of(problem2)


def test_problem_from_config_rejects_missing_key():
    broken = dict(_CONFIG_1D)
    del broken["horizon"]
    with pytest.raises(click.UsageError):
        problem_from_config(broken)


# the inputs of a problem: a new one is a deliberate change to this table
_PROBLEM_FIELDS = ["dimension", "drift", "diffusion", "surface", "x0", "horizon", "eps0", "sigma_sup"]


def test_problem_inputs_are_pinned():
    assert [f.name for f in dataclasses.fields(SdeProblem)] == _PROBLEM_FIELDS
    assert sorted(_CONFIG_1D) == sorted(_PROBLEM_FIELDS)


@pytest.mark.parametrize("key", _PROBLEM_FIELDS)
def test_config_missing_a_required_key_exits_2(tmp_path, key):
    cfg = dict(_CONFIG_1D)
    del cfg[key]
    config = _write_config(tmp_path, cfg)
    result = _invoke(["run", "--config", str(config), "--samples", "4", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert f"bad problem config: {key!r}" in _all_text(result)
    assert not list(tmp_path.glob("*.csv"))


def test_config_leftover_drift_bound_is_ignored(tmp_path):
    tables = []
    for name, cfg in (("plain", _CONFIG_1D), ("older", dict(_CONFIG_1D, mu_sup=2.0))):
        config = _write_config(tmp_path, cfg, f"{name}.json")
        out = tmp_path / name
        result = _invoke(["run", "--config", str(config), "--deltas", "2^-2,2^-3",
                          "--samples", "16", "--out", str(out)])
        assert result.exit_code == 0, _all_text(result)
        tables.append((out / "report.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("dimension", [1.7, True, "1"])
def test_config_non_integral_dimension_exits_2(tmp_path, dimension):
    config = _write_config(tmp_path, dict(_CONFIG_1D, dimension=dimension))
    result = _invoke(["run", "--config", str(config), "--samples", "4", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "dimension must be an integer" in _all_text(result)
    assert not list(tmp_path.glob("*.csv"))


def _with(cfg, path, value):
    """``cfg`` with ``value`` at the key path ``path``, nested dicts copied."""
    head, *rest = path
    return dict(cfg, **{head: _with(cfg[head], rest, value) if rest else value})


_HYPERPLANE_2D = dict(_CONFIG_2D, surface={"type": "hyperplane", "normal": [1.0, 0.0], "offset": 0.0})


def test_config_dimension_sizes_no_field(tmp_path, monkeypatch):
    # the variables of a 2-D config's fields are x1, x2 whatever its dimension
    widths = []

    class Recording(cli.ExpressionFunction):
        def __init__(self, expr, variables):
            widths.append(len(variables))
            super().__init__(expr, variables)

    monkeypatch.setattr(cli, "ExpressionFunction", Recording)
    config = _write_config(tmp_path, dict(_CONFIG_2D, dimension=10**6))
    result = _invoke(["run", "--config", str(config), "--samples", "4", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "surface dimension does not match the problem" in _all_text(result)
    assert widths == [2] * 6


@pytest.mark.parametrize("cfg, path, value, message", [
    pytest.param(_CONFIG_1D, ("horizon",), True, "horizon must be a number, not True",
                 id="horizon"),
    pytest.param(_CONFIG_1D, ("eps0",), "0.5", "eps0 must be a number, not '0.5'", id="eps0"),
    pytest.param(_CONFIG_1D, ("sigma_sup",), False, "sigma_sup must be a number, not False",
                 id="sigma_sup"),
    pytest.param(_CONFIG_1D, ("x0",), [True], "x0 entries must be numbers, not [True]",
                 id="x0-entry"),
    pytest.param(_CONFIG_1D, ("x0",), "0.0", "x0 must be a number, not '0.0'", id="x0"),
    pytest.param(_CONFIG_1D, ("drift", "breakpoints"), ["0.5"],
                 "breakpoints entries must be numbers, not ['0.5']", id="breakpoints"),
    pytest.param(_CONFIG_1D, ("surface", "points"), [True],
                 "points entries must be numbers, not [True]", id="points"),
    pytest.param(_CONFIG_2D, ("surface", "center"), ["0.0", 0.0],
                 "center entries must be numbers, not ['0.0', 0.0]", id="center"),
    pytest.param(_CONFIG_2D, ("surface", "radius"), "1.0",
                 "radius must be a number, not '1.0'", id="radius"),
    pytest.param(_HYPERPLANE_2D, ("surface", "normal"), [True, 0],
                 "normal entries must be numbers, not [True, 0]", id="normal"),
    pytest.param(_HYPERPLANE_2D, ("surface", "offset"), False,
                 "offset must be a number, not False", id="offset"),
])
def test_config_bool_or_string_for_a_number_exits_2(tmp_path, cfg, path, value, message):
    # float() and numpy would read true as 1.0 and "0.5" as 0.5
    config = _write_config(tmp_path, _with(cfg, path, value))
    out = tmp_path / "out"
    result = _invoke(["run", "--config", str(config), "--deltas", "2^-2", "--samples", "4",
                      "--out", str(out)])
    assert result.exit_code == 2
    assert f"bad problem config: {message}" in _all_text(result)
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "surface, field",
    [
        ({"type": "circle", "center": [float("nan"), 0.0], "radius": 1.0}, "center"),
        ({"type": "hyperplane", "normal": [float("nan"), 0.0], "offset": 0.0}, "normal"),
    ],
)
def test_config_non_finite_surface_exits_2(tmp_path, surface, field):
    config = _write_config(tmp_path, dict(_CONFIG_2D, surface=surface))
    assert "NaN" in config.read_text()
    out = tmp_path / "out"
    result = _invoke(["run", "--config", str(config), "--samples", "4", "--out", str(out)])
    assert result.exit_code == 2
    assert f"{field} must be a finite" in _all_text(result)
    assert not list(tmp_path.rglob("*.csv"))


def test_problem_from_config_rejects_unknown_surface():
    broken = dict(_CONFIG_1D)
    broken["surface"] = {"type": "torus"}
    with pytest.raises(click.UsageError):
        problem_from_config(broken)


_ESCAPES = (
    "().__class__.__base__.__subclasses__().__len__() + 0*x",
    "x.__class__",
    "(lambda: 1)() + x",
    "[v for v in (1, 2)][0] + x",
    "x[0]",
    "__import__('os').getcwd()",
    "'text'",
    "pi(x)",
    "sin(x=x)",
    "y + x",
    "x if x else 1.0",
    "x > 0 and x < 1",
    "(x < 0) or (x > 1)",
    "not x > 0",
    "0 < x < 1",
    "where(-1 <= x <= 1, x, 0.0)",
)


@pytest.mark.parametrize("expr", _ESCAPES)
def test_config_expression_outside_grammar_is_rejected(expr):
    with pytest.raises(ValueError, match="expression") as info:
        ExpressionFunction(expr, ("x",))
    assert repr(expr) in str(info.value)
    broken = dict(_CONFIG_1D, diffusion=expr)
    with pytest.raises(click.UsageError, match="bad problem config"):
        problem_from_config(broken)


@pytest.mark.parametrize("expr", ["9**9**9 + x", "1/0 + x"])
def test_config_expression_with_failing_constant_is_rejected(expr):
    # 9**9**9 would build a Python int of about 1.2e9 bits on first evaluation
    broken = dict(_CONFIG_1D, diffusion=expr)
    with pytest.raises(click.UsageError, match="bad problem config"):
        problem_from_config(broken)


def test_config_branch_failing_at_its_breakpoint_is_rejected(tmp_path):
    # the drift's limits are read at the breakpoint with a Python float
    broken = dict(_CONFIG_1D, drift={"breakpoints": [0.5], "branches": ["1/(x-0.5)", "-1.0"]})
    with pytest.raises(click.UsageError, match="bad problem config"):
        problem_from_config(broken)
    config = _write_config(tmp_path, broken)
    result = _invoke(["run", "--config", str(config), "--samples", "4", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "bad problem config" in _all_text(result)


# the diffusion vanishes at the breakpoint: the scheme runs, the transform does not exist
_CONFIG_DEGENERATE = dict(_CONFIG_1D, diffusion="x-0.5", sigma_sup=2.0)


def test_degenerate_diffusion_runs_without_a_transform(tmp_path):
    config = _write_config(tmp_path, _CONFIG_DEGENERATE)
    result = _invoke(
        ["run", "--config", str(config), "--deltas", "2^-2,2^-3",
         "--samples", "16", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, _all_text(result)
    assert len((tmp_path / "report.csv").read_text().splitlines()) == 3
    result = _invoke(
        ["occupation", "--config", str(config), "--delta", "2^-3", "--epsilons", "0.05",
         "--samples", "16", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, _all_text(result)


def test_verify_transform_rejects_degenerate_diffusion(tmp_path):
    config = _write_config(tmp_path, _CONFIG_DEGENERATE)
    result = _invoke(
        ["verify-transform", "--config", str(config), "--samples", "4", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "diffusion vanishes at breakpoint 0.5" in _all_text(result)
    assert not (tmp_path / "verify.csv").exists()


@pytest.mark.parametrize("diffusion, message", [
    ("1e-200", "diffusion vanishes at breakpoint 0.5"),  # its square underflows to 0
    ("1/(x - 0.5)", "float division by zero"),
], ids=["underflow", "division"])
def test_verify_transform_config_without_a_transform_exits_2(tmp_path, diffusion, message):
    config = _write_config(tmp_path, dict(_CONFIG_1D, diffusion=diffusion))
    result = _invoke(
        ["verify-transform", "--config", str(config), "--samples", "4", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert message in _all_text(result)
    assert not (tmp_path / "verify.csv").exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("drift", ["-x1", "x2", "1.0"]),
        ("diffusion", [["0.5*x1", "0.0", "0.0"], ["0.5*x2", "0.0", "0.0"]]),
        # a name past the state's components
        ("drift", ["-x1", "x2", "x3"]),
        ("diffusion", [["0.5*x1", "0.0", "x3"], ["0.5*x2", "0.0", "0.0"]]),
    ],
)
def test_config_field_of_wrong_size_is_rejected(tmp_path, field, value):
    config = _write_config(tmp_path, dict(_CONFIG_2D, **{field: value}))
    result = _invoke(["run", "--config", str(config), "--samples", "4", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "bad problem config" in _all_text(result)


def _run_config_exits_2(tmp_path, cfg, message):
    config = _write_config(tmp_path, cfg)
    out = tmp_path / "out"
    result = _invoke(["run", "--config", str(config), "--deltas", "2^-2", "--samples", "4",
                      "--out", str(out)])
    assert result.exit_code == 2, _all_text(result)
    assert f"bad problem config: {message}" in _all_text(result)
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("surface", [[0.5], None, "points1d", 1.0],
                         ids=["list", "null", "string", "number"])
def test_config_surface_that_is_not_an_object_exits_2(tmp_path, surface):
    # a list would reach surface_from_config's .get: an AttributeError, which exits 1
    _run_config_exits_2(tmp_path, dict(_CONFIG_1D, surface=surface),
                        f"surface must be an object, not {surface!r}")


@pytest.mark.parametrize("cfg", [[_CONFIG_1D], "config", 1.0, None],
                         ids=["list", "string", "number", "null"])
def test_config_that_is_not_an_object_exits_2(tmp_path, cfg):
    _run_config_exits_2(tmp_path, cfg, f"the config must be an object, not {cfg!r}")


@pytest.mark.parametrize("cfg, path, value, message", [
    # a string where a list belongs would be read as a list of its characters
    pytest.param(_CONFIG_2D, ("diffusion",), "1.0",
                 "diffusion must be a list of lists of strings, not '1.0'", id="2d-diffusion-string"),
    pytest.param(_CONFIG_2D, ("diffusion",), ["1.0", "0.0"],
                 "diffusion must be a list of lists of strings, not ['1.0', '0.0']",
                 id="2d-diffusion-row"),
    pytest.param(_CONFIG_2D, ("drift",), "x1", "drift must be a list of strings, not 'x1'",
                 id="2d-drift-string"),
    pytest.param(_CONFIG_2D, ("drift",), ["-x1", 1.0],
                 "drift must be a list of strings, not ['-x1', 1.0]", id="2d-drift-number"),
    pytest.param(_CONFIG_1D, ("drift", "branches"), "1.0",
                 "branches must be a list of strings, not '1.0'", id="branches-string"),
    pytest.param(_CONFIG_1D, ("drift", "branches"), [1.0, "-1.0"],
                 "branches must be a list of strings, not [1.0, '-1.0']", id="branch-number"),
    pytest.param(_CONFIG_1D, ("diffusion",), 1.0, "diffusion must be a string, not 1.0",
                 id="1d-diffusion-number"),
    pytest.param(_CONFIG_1D, ("drift",), ["1.0"], "drift must be a string, not ['1.0']",
                 id="1d-drift-list"),
])
def test_config_expression_of_the_wrong_shape_exits_2(tmp_path, cfg, path, value, message):
    _run_config_exits_2(tmp_path, _with(cfg, path, value), message)


def test_config_expression_grammar_accepts_operators_and_listed_calls():
    f = ExpressionFunction(
        "where((x1 < 0) & ~(x2 >= 1), -abs(x1) ** 2 // 1 % 3, sqrt(maximum(x2, 0)) / pi)",
        ("x1", "x2"),
    )
    assert float(f(-2.0, 0.0)) == 2.0  # -(2 ** 2) // 1 % 3
    assert float(f(1.0, 4.0)) == 2.0 / math.pi
    batch = f(np.array([-2.0, 1.0, -2.0]), np.array([0.0, 4.0, 1.0]))
    assert list(batch) == [2.0, 2.0 / math.pi, 1.0 / math.pi]
    g = ExpressionFunction("where((x > 0) & ~(x >= 1) | (x == 5), 1.0, 0.0)", ("x",))
    assert list(g(np.array([-1.0, 0.5, 1.0, 5.0]))) == [0.0, 1.0, 0.0, 1.0]


def test_run_writes_report_files(report_dir):
    lines = (report_dir / "report.csv").read_text().splitlines()
    assert lines[0] == "delta,msq,msq_stderr,cost_mean,cost_stderr"
    assert len(lines) == 4
    payload = json.loads((report_dir / "report.json").read_text())
    assert payload["samples"] == 48
    assert payload["master_seed"] == 3
    assert payload["wall_time"] > 0
    deltas = [row["delta"] for row in payload["rows"]]
    assert deltas == [0.25, 0.125, 0.0625]
    for row in payload["rows"]:
        assert row["msq"] >= 0.0
        assert row["cost_mean"] >= 1.0


def test_run_is_reproducible(report_dir, tmp_path):
    result = _invoke(
        ["run", "example2", "--deltas", "2^-2..2^-4", "--samples", "48",
         "--seed", "3", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, _all_text(result)
    assert (tmp_path / "report.csv").read_bytes() == (report_dir / "report.csv").read_bytes()


def test_run_worker_count_does_not_change_results(tmp_path):
    args = ["run", "example2", "--deltas", "2^-2,2^-3", "--samples", "520", "--seed", "9"]
    one = tmp_path / "w1"
    two = tmp_path / "w2"
    r1 = _invoke(args + ["--workers", "1", "--out", str(one)])
    r2 = _invoke(args + ["--workers", "2", "--out", str(two)])
    assert r1.exit_code == 0, _all_text(r1)
    assert r2.exit_code == 0, _all_text(r2)
    assert (one / "report.csv").read_bytes() == (two / "report.csv").read_bytes()


def test_run_occupation_epsilons(tmp_path):
    result = _invoke(
        ["run", "example1", "--deltas", "2^-2", "--samples", "16",
         "--occupation-epsilons", "0.1,0.05", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, _all_text(result)
    payload = json.loads((tmp_path / "report.json").read_text())
    entries = payload["rows"][0]["occupation"]
    assert [e["epsilon"] for e in entries] == [0.1, 0.05]
    for e in entries:
        assert 0.0 <= e["mean"] <= 1.0
        assert e["stderr"] >= 0.0


def test_run_rejects_wide_occupation_epsilon(tmp_path):
    # the same (0, eps0/2) rule as the occupation command; example1 has eps0 = 0.4
    result = _invoke(
        ["run", "example1", "--deltas", "2^-2", "--samples", "4",
         "--occupation-epsilons", "5", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "outside (0, eps0/2)" in _all_text(result)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "args, written",
    [
        (["occupation", "example1", "--epsilons", "-0.1"], "occupation.csv"),
        (["run", "example1", "--deltas", "2^-2", "--occupation-epsilons", "-0.1"], "report.csv"),
    ],
)
def test_negative_epsilon_is_rejected_by_the_library_rule(tmp_path, args, written):
    # the CLI parses the numbers; the (0, eps0/2) rule has its one copy in the library
    result = _invoke([*args, "--samples", "4", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "epsilon -0.1 outside (0, eps0/2)" in _all_text(result)
    assert not (tmp_path / written).exists()


def test_run_dump_trajectories(tmp_path):
    # each dumped CSV is the sequential oracle's sample-0 trajectory to the byte
    for name in ("example1", "example2", "example3"):
        prob = get_example(name).problem
        out = tmp_path / name
        result = _invoke(
            ["run", name, "--deltas", "2^-2,2^-5", "--samples", "2", "--seed", "7",
             "--dump-trajectories", "--out", str(out)]
        )
        assert result.exit_code == 0, _all_text(result)
        for delta in (0.25, 0.03125):
            text = (out / f"trajectory_delta_{delta!r}.csv").read_text()
            buf = io.StringIO()
            params = StepSizeParams.for_problem(prob, delta)
            simulate_adaptive(prob, params, BrownianPath(prob.dimension, 7, 0)).to_csv(buf)
            assert text == buf.getvalue()
            lines = text.splitlines()
            assert lines[0] == "k,tau_k," + ",".join(f"x{j + 1}" for j in range(prob.dimension))
            assert len(lines) > 2
            assert float(lines[-1].split(",")[1]) >= prob.horizon


def test_run_config_problem_matches_registry_example(tmp_path):
    config = _write_config(tmp_path, _CONFIG_2D)
    from_config = tmp_path / "from_config"
    from_name = tmp_path / "from_name"
    args = ["run", "--deltas", "2^-3", "--samples", "48", "--seed", "5"]
    r1 = _invoke(args + ["--config", str(config), "--out", str(from_config)])
    r2 = _invoke(["run", "example3"] + args[1:] + ["--out", str(from_name)])
    assert r1.exit_code == 0, _all_text(r1)
    assert r2.exit_code == 0, _all_text(r2)
    assert (from_config / "report.csv").read_bytes() == (from_name / "report.csv").read_bytes()


def test_run_piecewise_config(tmp_path):
    config = _write_config(tmp_path, _CONFIG_1D)
    result = _invoke(
        ["run", "--config", str(config), "--deltas", "2^-2,2^-3",
         "--samples", "32", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, _all_text(result)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) == 3


def test_piecewise_config_gives_the_same_bytes_across_processes(tmp_path):
    # 600 samples make two batches, so --workers 2 sends the config's
    # expressions to worker processes by pickling them
    config = _write_config(tmp_path, _CONFIG_1D)
    common = ["--config", str(config), "--deltas", "2^-2,2^-3", "--samples", "600", "--seed", "3"]
    for command, name in (("run", "report.csv"), ("verify-transform", "verify.csv")):
        tables = []
        for workers in ("1", "2"):
            out = tmp_path / f"{command}_{workers}"
            result = _invoke([command, *common, "--workers", workers, "--out", str(out)])
            assert result.exit_code == 0, _all_text(result)
            tables.append((out / name).read_bytes())
        assert tables[0] == tables[1]


def test_run_rejects_unknown_example():
    result = _invoke(["run", "example9"])
    assert result.exit_code == 2
    assert "unknown example" in _all_text(result)


def test_run_requires_exactly_one_problem_source(tmp_path):
    result = _invoke(["run"])
    assert result.exit_code == 2
    assert "exactly one" in _all_text(result)
    config = _write_config(tmp_path, _CONFIG_1D)
    result = _invoke(["run", "example1", "--config", str(config)])
    assert result.exit_code == 2
    assert "exactly one" in _all_text(result)


def test_run_rejects_single_sample():
    result = _invoke(["run", "example1", "--samples", "1"])
    assert result.exit_code == 2
    assert "at least 2 samples" in _all_text(result)


def test_run_rejects_bad_delta_token():
    result = _invoke(["run", "example1", "--deltas", "abc"])
    assert result.exit_code == 2


def test_run_rejects_reversed_range():
    result = _invoke(["run", "example1", "--deltas", "2^-6..2^-2"])
    assert result.exit_code == 2
    assert "coarse to fine" in _all_text(result)


def test_run_rejects_out_of_range_delta():
    result = _invoke(["run", "example1", "--deltas", "0.5", "--samples", "4"])
    assert result.exit_code == 2


_DELTA_OPTIONS = [("run", "--deltas"), ("occupation", "--delta"), ("verify-transform", "--deltas")]

# a delta whose square underflows to 0, or is so small that the step budget
# 10 * horizon / delta**2 overflows; 1e-200 keeps the bare command ids
_TINY_DELTAS = {
    "1e-200": "delta 1e-200 is so small that delta**2 underflows to 0",
    "1e-160": "delta 1e-160 is too small for horizon 1.0: the step budget",
    "1e-154": "delta 1e-154 is too small for horizon 1.0: the step budget",
    # finite budgets, but delta**2 is at most half an ulp of the horizon, so
    # a lane's time may stop advancing
    "1e-153": "delta 1e-153 is too small for horizon 1.0: a step of delta**2",
    "1e-9": "delta 1e-09 is too small for horizon 1.0: a step of delta**2",
}


@pytest.mark.parametrize("command, option, delta", [
    pytest.param(c, o, d, id=f"{c}-{o}" if d == "1e-200" else f"{c}-{o}-{d}")
    for d in _TINY_DELTAS for c, o in _DELTA_OPTIONS
])
def test_delta_whose_square_underflows_exits_2(tmp_path, caplog, monkeypatch, command, option, delta):
    # rejected before the regime warning or any batch
    monkeypatch.setattr(montecarlo, "_map_batches", None)
    result = _invoke([command, "example2", option, delta, "--samples", "4",
                      "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert _TINY_DELTAS[delta] in _all_text(result)
    assert not caplog.records
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, option", _DELTA_OPTIONS)
def test_config_horizon_that_overflows_the_step_budget_exits_2(
    tmp_path, caplog, monkeypatch, command, option
):
    # 10 * 1e307 / 2^-4 is not finite: rejected before the regime warning at 2^-2
    monkeypatch.setattr(montecarlo, "_map_batches", None)
    config = _write_config(tmp_path, dict(_CONFIG_1D, horizon=1e307))
    out = tmp_path / "out"
    result = _invoke([command, "--config", str(config), option, "2^-2", "--samples", "4",
                      "--out", str(out)])
    assert result.exit_code == 2
    assert "delta 0.25 is too small for horizon 1e+307" in _all_text(result)
    assert not caplog.records
    assert not out.exists()


@pytest.mark.parametrize("command, option", _DELTA_OPTIONS)
def test_config_horizon_that_stalls_the_step_exits_2(tmp_path, caplog, monkeypatch, command, option):
    # half an ulp of 1e17 is 8, so t + 2^-4 == t near the horizon: the
    # budget is finite, but a lane in the inner band would never advance
    monkeypatch.setattr(montecarlo, "_map_batches", None)
    config = _write_config(tmp_path, dict(_CONFIG_1D, horizon=1e17))
    out = tmp_path / "out"
    result = _invoke([command, "--config", str(config), option, "2^-2", "--samples", "4",
                      "--out", str(out)])
    assert result.exit_code == 2
    assert "delta 0.25 is too small for horizon 1e+17: a step of delta**2" in _all_text(result)
    assert not caplog.records
    assert not out.exists()


@pytest.mark.parametrize("command, option", _DELTA_OPTIONS)
def test_config_drift_jump_off_the_surface_exits_2(tmp_path, caplog, monkeypatch, command, option):
    # the scheme would refine around -0.7 and step over the jump at 0.5
    monkeypatch.setattr(montecarlo, "_map_batches", None)
    config = _write_config(tmp_path, dict(_CONFIG_1D, surface={"type": "points1d", "points": [-0.7]}))
    out = tmp_path / "out"
    result = _invoke([command, "--config", str(config), option, "2^-2", "--samples", "32",
                      "--out", str(out)])
    assert result.exit_code == 2
    assert "the drift jumps at breakpoint 0.5, which is not on the surface" in _all_text(result)
    assert not caplog.records
    assert not list(tmp_path.rglob("*.csv"))
    assert not out.exists()


def test_config_breakpoint_without_a_jump_may_lie_off_the_surface(tmp_path):
    cfg = dict(_CONFIG_1D, drift={"breakpoints": [-0.7, 0.5], "branches": ["1.0", "1.0", "-1.0"]})
    problem = problem_from_config(cfg)
    assert problem.surface.points == (0.5,)
    assert transform_of(problem)._alphas.tolist() == [0.0, 1.0]
    config = _write_config(tmp_path, cfg)
    result = _invoke(["run", "--config", str(config), "--deltas", "2^-2", "--samples", "8",
                      "--out", str(tmp_path)])
    assert result.exit_code == 0, _all_text(result)


def test_report_json_rows_give_both_runs_band_radii(report_dir):
    rows = json.loads((report_dir / "report.json").read_text())["rows"]
    problem = get_example("example2").problem
    deltas = tuple(row["delta"] for row in rows)
    _, n_fine, n_coarse = _engine.coupled_pair(problem, deltas, np.arange(48), 3)
    for r, row in enumerate(rows):
        for run, delta, steps in (("fine", row["delta"], n_fine[:, r]),
                                  ("coarse", 2.0 * row["delta"], n_coarse[:, r])):
            p = StepSizeParams.for_problem(problem, delta)
            assert row[run] == {
                "eps1": p.eps1, "eps2": p.eps2, "framework_valid": p.framework_valid,
                "steps_total": int(steps.sum()), "steps_max": int(steps.max()),
            }
    # JSON only: the CSV keeps its pinned columns
    header = (report_dir / "report.csv").read_text().splitlines()[0]
    assert header == "delta,msq,msq_stderr,cost_mean,cost_stderr"


@pytest.mark.parametrize("command", ["run", "occupation", "verify-transform"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_commands_reject_fewer_than_one_worker(tmp_path, command, workers):
    result = _invoke(
        [command, "example1", "--samples", "4", "--workers", workers, "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "at least 1 worker" in _all_text(result)
    assert not any(tmp_path.iterdir())


# a drift that turns infinite a few steps after the state passes 0.5; the
# jump-free breakpoint keeps the transform well defined
_CONFIG_RUNAWAY = dict(
    _CONFIG_1D,
    drift={"breakpoints": [0.5], "branches": ["1.0", "1.0 + 1e6*(x-0.5)**3"]},
    diffusion="0.1",
)


@pytest.mark.parametrize(
    "command, extra",
    [("run", []), ("occupation", ["--epsilons", "0.05"]), ("verify-transform", [])],
)
def test_runaway_lane_fails_each_estimator_command(tmp_path, command, extra):
    # a non-finite state is a failed run (exit 1), not a usage error
    config = _write_config(tmp_path, _CONFIG_RUNAWAY)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        result = _invoke(
            [command, "--config", str(config), "--samples", "8", "--out", str(out)] + extra
        )
    assert result.exit_code == 1
    assert f"{command} failed: non-finite state" in _all_text(result)
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "args, name, digest",
    [
        (["occupation", "example1", "--epsilons", "0.1,0.05", "--delta", "2^-4"],
         "occupation.csv", "db4ad33c998bbc8b17d0aacc32b8c43472d74258faeab1348245e199046cca86"),
        (["verify-transform", "example2", "--deltas", "2^-3,2^-5"],
         "verify.csv", "38dcf18a8f203af776451dae95fabd537b54fceb7633dd4b83f2e3b9a9d4337d"),
    ],
)
def test_estimator_csv_bytes_are_pinned(tmp_path, args, name, digest):
    result = _invoke(args + ["--samples", "64", "--out", str(tmp_path)])
    assert result.exit_code == 0, _all_text(result)
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


_OPTIONS = {
    "run": ["example", "--config", "--deltas", "--samples", "--seed", "--workers",
            "--occupation-epsilons", "--out", "--dump-trajectories"],
    "fit": ["report_csv", "--column", "--out"],
    "occupation": ["example", "--config", "--epsilons", "--delta", "--samples", "--seed",
                   "--workers", "--out"],
    "verify-transform": ["example", "--config", "--deltas", "--samples", "--seed",
                         "--workers", "--out"],
}


def test_command_options_are_pinned():
    # a new knob is a deliberate change to this table
    assert {name: [opt for p in cmd.params for opt in p.opts]
            for name, cmd in main.commands.items()} == _OPTIONS


def test_fit_on_generated_report(report_dir, tmp_path):
    out = tmp_path / "fit.json"
    result = _invoke(["fit", str(report_dir / "report.csv"), "--out", str(out)])
    assert result.exit_code == 0, _all_text(result)
    payload = json.loads(result.output)
    assert set(payload) == {"c1", "c2", "c3", "residual_logspace", "residual_rawspace"}
    assert json.loads(out.read_text()) == payload


def test_fit_creates_a_missing_output_directory(report_dir, tmp_path):
    report = str(report_dir / "report.csv")
    assert _invoke(["fit", report, "--out", str(tmp_path / "fit.json")]).exit_code == 0
    nested = tmp_path / "missing" / "dir" / "fit.json"
    result = _invoke(["fit", report, "--out", str(nested)])
    assert result.exit_code == 0, _all_text(result)
    assert nested.read_bytes() == (tmp_path / "fit.json").read_bytes()


def test_fit_recovers_exact_power_law(tmp_path):
    csv_path = tmp_path / "report.csv"
    deltas = (0.25, 0.125, 0.0625, 0.03125)
    rows = ["delta,msq"] + [f"{d!r},{0.5 * d * d!r}" for d in deltas]
    csv_path.write_text("\n".join(rows) + "\n")
    result = _invoke(["fit", str(csv_path), "--out", str(tmp_path / "fit.json")])
    assert result.exit_code == 0, _all_text(result)
    payload = json.loads(result.output)
    assert payload["c3"] == pytest.approx(2.0, abs=1e-6)
    assert payload["c1"] == pytest.approx(0.5, rel=1e-6)
    assert payload["residual_logspace"] == pytest.approx(0.0, abs=1e-10)


def test_fit_rejects_missing_column(report_dir):
    result = _invoke(["fit", str(report_dir / "report.csv"), "--column", "bogus"])
    assert result.exit_code == 2
    assert "lacks column" in _all_text(result)


@pytest.mark.parametrize("column,body", [
    ("msq", "0.25,1.0\n0.125,abc\n0.0625,0.1\n"),
    ("delta", "0.25,1.0\nquarter,0.5\n0.0625,0.1\n"),
    ("msq", "0.25,1.0\n0.125\n0.0625,0.1\n"),
])
def test_fit_rejects_non_numeric_cell(tmp_path, column, body):
    csv_path = tmp_path / "report.csv"
    csv_path.write_text("delta,msq\n" + body)
    result = _invoke(["fit", str(csv_path)])
    assert result.exit_code == 2
    text = _all_text(result)
    assert "report.csv" in text and f"column {column!r}" in text


def test_fit_rejects_missing_delta_column(tmp_path):
    csv_path = tmp_path / "report.csv"
    csv_path.write_text("foo,bar\n1.0,2.0\n")
    result = _invoke(["fit", str(csv_path)])
    assert result.exit_code == 2
    assert "delta column" in _all_text(result)


@pytest.mark.parametrize("body", [
    pytest.param(None, id="directory"),
    pytest.param(b"delta,msq\n0.25,\xff\n", id="not-utf8"),
    pytest.param(b"delta,msq\n0.25," + b"1" * 200_000 + b"\n", id="csv-error"),
])
def test_fit_unreadable_report_exits_2(tmp_path, body):
    path = tmp_path / "report.csv"
    if body is None:
        path.mkdir()
    else:
        path.write_bytes(body)
    result = _invoke(["fit", str(path), "--out", str(tmp_path / "fit.json")])
    assert result.exit_code == 2, _all_text(result)
    assert f"cannot read report {path}" in _all_text(result)
    assert not (tmp_path / "fit.json").exists()


def test_fit_fails_on_short_report(tmp_path):
    csv_path = tmp_path / "report.csv"
    csv_path.write_text("delta,msq\n0.25,1.0\n0.125,2.0\n")
    result = _invoke(["fit", str(csv_path)])
    assert result.exit_code == 1
    assert "fit failed" in _all_text(result)


def test_occupation_command(tmp_path):
    result = _invoke(
        ["occupation", "example1", "--epsilons", "0.12,0.05", "--delta", "2^-3",
         "--samples", "40", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, _all_text(result)
    lines = (tmp_path / "occupation.csv").read_text().splitlines()
    assert lines[0] == "epsilon,occupation,occupation_stderr"
    assert len(lines) == 3
    wide = [float(tok) for tok in lines[1].split(",")]
    narrow = [float(tok) for tok in lines[2].split(",")]
    assert wide[0] == 0.12 and narrow[0] == 0.05
    # indicator tubes are nested, so the estimate is monotone in epsilon
    assert wide[1] >= narrow[1] >= 0.0
    assert wide[1] <= 1.0


def test_occupation_runs_every_epsilon_in_one_job(tmp_path, monkeypatch, caplog):
    # one pooled job for all epsilons: one process pool, one regime warning
    from adaptive_em import montecarlo

    starts = []

    class CountingPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            starts.append(1)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    with caplog.at_level(logging.WARNING, logger="adaptive_em"):
        result = _invoke(
            ["occupation", "example3", "--epsilons", "0.1,0.05,0.2", "--samples", "600",
             "--workers", "2", "--out", str(tmp_path)]
        )
    assert result.exit_code == 0, _all_text(result)
    assert len(starts) == 1
    hits = [r for r in caplog.records if "analyzed regime" in r.getMessage()]
    assert len(hits) == 1
    lines = (tmp_path / "occupation.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0.1", "0.05", "0.2"]


def test_occupation_rejects_wide_epsilon():
    result = _invoke(["occupation", "example1", "--epsilons", "0.3", "--samples", "4"])
    assert result.exit_code == 2


def test_verify_transform_command(tmp_path):
    result = _invoke(
        ["verify-transform", "example2", "--deltas", "2^-2,2^-4",
         "--samples", "64", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, _all_text(result)
    lines = (tmp_path / "verify.csv").read_text().splitlines()
    assert lines[0] == "delta,mean_sq,stderr"
    assert len(lines) == 3
    for line in lines[1:]:
        _, mean_sq, stderr = (float(tok) for tok in line.split(","))
        assert 0.0 < mean_sq < 1.0
        assert stderr >= 0.0


@pytest.mark.parametrize("delta", ["1.5", "0", "nan"])
def test_verify_transform_rejects_out_of_range_delta(tmp_path, delta):
    result = _invoke(
        ["verify-transform", "example1", "--deltas", f"0.25,{delta}",
         "--samples", "4", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "delta must lie in (0, 1)" in _all_text(result)
    assert not (tmp_path / "verify.csv").exists()


def test_verify_transform_needs_one_dimension():
    result = _invoke(["verify-transform", "example3", "--samples", "4"])
    assert result.exit_code == 2
    assert "one-dimensional" in _all_text(result)


def test_verify_transform_needs_piecewise_drift(tmp_path):
    cfg = dict(_CONFIG_1D)
    cfg["drift"] = "-x"
    config = _write_config(tmp_path, cfg)
    result = _invoke(["verify-transform", "--config", str(config), "--samples", "4"])
    assert result.exit_code == 2
    assert "piecewise" in _all_text(result)


def test_config_with_steep_branches_loads(tmp_path):
    # slope 200 on both sides of the jump at 0, whose strength is 1
    cfg = dict(_CONFIG_1D, surface={"type": "points1d", "points": [0.0]},
               drift={"breakpoints": [0.0], "branches": ["1 - 200*x", "-1 - 200*x"]})
    problem = problem_from_config(cfg)
    assert problem.drift.f.left_limits == (1.0,) and problem.drift.f.right_limits == (-1.0,)
    assert transform_of(problem)._alphas.tolist() == [1.0]
    config = _write_config(tmp_path, cfg)
    result = _invoke(["run", "--config", str(config), "--deltas", "2^-2", "--samples", "8",
                      "--out", str(tmp_path)])
    assert result.exit_code == 0, _all_text(result)
