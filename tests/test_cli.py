"""End-to-end checks of the command line interface."""

import json
import math

import click
import numpy as np
import pytest
from click.testing import CliRunner

from adaptive_em.cli import (
    ExpressionFunction,
    main,
    parse_deltas,
    parse_epsilons,
    problem_from_config,
)


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
    "mu_sup": 2.0,
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
    "mu_sup": 1.5,
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


def test_parse_deltas_dyadic_range():
    assert parse_deltas("2^-2..2^-4") == (0.25, 0.125, 0.0625)


def test_parse_deltas_comma_list():
    assert parse_deltas("0.25,2^-3") == (0.25, 0.125)


def test_parse_deltas_rejects_bad_token():
    with pytest.raises(click.BadParameter):
        parse_deltas("abc")


def test_parse_deltas_rejects_reversed_range():
    with pytest.raises(click.BadParameter):
        parse_deltas("2^-6..2^-2")


def test_parse_epsilons():
    assert parse_epsilons("0.1,0.05") == (0.1, 0.05)
    with pytest.raises(click.BadParameter):
        parse_epsilons("0.1,abc")
    with pytest.raises(click.BadParameter):
        parse_epsilons("-0.1")


def test_problem_from_config_round_trip():
    problem, transform = problem_from_config(_CONFIG_1D)
    assert problem.dimension == 1
    assert transform is not None
    problem2, transform2 = problem_from_config(_CONFIG_2D)
    assert problem2.dimension == 2
    assert transform2 is None


def test_problem_from_config_rejects_missing_key():
    broken = dict(_CONFIG_1D)
    del broken["horizon"]
    with pytest.raises(click.UsageError):
        problem_from_config(broken)


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


def test_run_dump_trajectories(tmp_path):
    result = _invoke(
        ["run", "example1", "--deltas", "2^-2,2^-3", "--samples", "2",
         "--dump-trajectories", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, _all_text(result)
    for name in ("trajectory_delta_0.25.csv", "trajectory_delta_0.125.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "k,tau_k,x1"
        assert len(lines) > 2


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


def test_fit_on_generated_report(report_dir, tmp_path):
    out = tmp_path / "fit.json"
    result = _invoke(["fit", str(report_dir / "report.csv"), "--out", str(out)])
    assert result.exit_code == 0, _all_text(result)
    payload = json.loads(result.output)
    assert set(payload) == {"c1", "c2", "c3", "residual_logspace", "residual_rawspace"}
    assert json.loads(out.read_text()) == payload


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


def test_fit_rejects_missing_delta_column(tmp_path):
    csv_path = tmp_path / "report.csv"
    csv_path.write_text("foo,bar\n1.0,2.0\n")
    result = _invoke(["fit", str(csv_path)])
    assert result.exit_code == 2
    assert "delta column" in _all_text(result)


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
