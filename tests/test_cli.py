import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import fracint
from fracint import cli, engines
from fracint.cli import main
from fracint.operator import DEFAULT_COMPOSE_GRID, DEFAULT_SUM_N
from fracint.quadrature import DEFAULT_ABS_TOL, DEFAULT_BUDGET, DEFAULT_REL_TOL

from _reference import FOUR_OVER_3SQRTPI


def run(args):
    return main(args)


def blocks_of(text):
    """Split a multi-block CSV into lists of lines."""
    return [block.splitlines() for block in text.strip().split("\n\n")]


def rows_of(block):
    header = block[0].split(",")
    return [dict(zip(header, line.split(","))) for line in block[1:]]


SETTINGS = {"--out", "--config", "--abs-tol", "--rel-tol", "--budget"}
INPUTS = {"--f", "--alpha", "--t"}

# every flag each subcommand offers; a flag that nothing reads must not be here
OPTIONS = {
    "gamma": {"--x", "--out"},
    "transform": {"--alpha", "--t", "--samples", "--out"},
    "compute": INPUTS | SETTINGS | {"--n", "--method"},
    "compare": INPUTS | SETTINGS | {"--n", "--tolerance"},
    "strips": INPUTS | {"--n-strips", "--samples", "--svg", "--out"},
    "regions": INPUTS | SETTINGS | {"--samples", "--svg"},
    "curves": (INPUTS - {"--t"}) | SETTINGS | {
        "--n", "--method", "--t-start", "--t-stop", "--t-step", "--marker-t",
    },
    "semigroup": INPUTS | SETTINGS | {"--n", "--method", "--beta", "--grid"},
}


def subparser(command):
    (subparsers,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return subparsers.choices[command]


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_options(command):
    offered = {
        option
        for action in subparser(command)._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    assert offered == OPTIONS[command]


@pytest.mark.parametrize("argv", (
    ["gamma", "--x", "0.5"],
    ["compute", "--method", "cavalieri", "--alpha", "0.85", "--t", "1e6", "--n", "1000"],
))
def test_console_script_entry_point(argv):
    # run [project.scripts] fracint the way its generated wrapper does
    tomllib = pytest.importorskip("tomllib")
    src = os.path.dirname(os.path.dirname(fracint.__file__))
    with open(os.path.join(os.path.dirname(src), "pyproject.toml"), "rb") as fh:
        module, function = tomllib.load(fh)["project"]["scripts"]["fracint"].split(":")
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    completed = subprocess.run(
        [sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    assert (completed.returncode, completed.stderr) == (0, "")
    assert completed.stdout


class TestGammaCommand:
    def test_half(self, capsys):
        assert run(["gamma", "--x", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "1.77245385090552"

    def test_integer(self, capsys):
        assert run(["gamma", "--x", "5"]) == 0
        assert capsys.readouterr().out.strip() == "24"

    def test_pole_exits_2(self, capsys):
        assert run(["gamma", "--x", "-2"]) == 2
        assert "pole at non-positive integer" in capsys.readouterr().err

    def test_far_negative_argument(self, capsys):
        assert run(["gamma", "--x", "-171.7"]) == 0
        assert capsys.readouterr().out.strip() == "8.52725457277733e-311"


class TestTransformCommand:
    def test_blocks_and_endpoints(self, tmp_path):
        out = tmp_path / "transform.csv"
        assert run(["transform", "--alpha", "0.5", "--t", "4", "--samples", "9",
                    "--out", str(out)]) == 0
        g_block, h_block = blocks_of(out.read_text())
        assert g_block[0] == "tau,g"
        assert h_block[0] == "x,h"
        g_rows = rows_of(g_block)
        assert float(g_rows[0]["g"]) == 0.0
        assert float(g_rows[-1]["tau"]) == 4.0
        h_rows = rows_of(h_block)
        assert float(h_rows[-1]["h"]) == pytest.approx(4.0, rel=1e-11)

    def test_degenerate_order_rejected(self, capsys):
        assert run(["transform", "--alpha", "0", "--t", "4"]) == 2

    @pytest.mark.parametrize("samples", ("-1", "0", "1"))
    def test_too_few_samples_exit_2(self, samples, capsys):
        assert run(["transform", "--alpha", "0.5", "--t", "4", "--samples", samples]) == 2
        assert capsys.readouterr().err == (
            f"fracint: need at least 2 samples per curve, got {samples}\n"
        )


class TestComputeCommand:
    def test_header_and_anchor_value(self, tmp_path):
        out = tmp_path / "compute.csv"
        assert run(["compute", "--f", "pow:1:1", "--alpha", "0.5", "--t", "1",
                    "--method", "transformed", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,t,method,value,oracle,abs_err,rel_err,n_evals,seconds"
        row = rows_of(lines)[0]
        assert row["method"] == "transformed"
        assert float(row["value"]) == pytest.approx(FOUR_OVER_3SQRTPI, rel=1e-6)
        assert float(row["oracle"]) == pytest.approx(FOUR_OVER_3SQRTPI, rel=1e-12)
        assert float(row["rel_err"]) <= 1e-9
        assert int(row["n_evals"]) >= 1

    def test_direct_sqrt_row(self, tmp_path):
        out = tmp_path / "compute.csv"
        assert run(["compute", "--f", "pow:1:0.5", "--alpha", "1", "--t", "4",
                    "--method", "direct", "--out", str(out)]) == 0
        row = rows_of(out.read_text().strip().splitlines())[0]
        assert float(row["value"]) == pytest.approx(16.0 / 3.0, rel=1e-6)

    def test_identity_row_uses_oracle_path(self, tmp_path):
        out = tmp_path / "compute.csv"
        assert run(["compute", "--f", "pow:1:1", "--alpha", "0", "--t", "7",
                    "--method", "oracle", "--out", str(out)]) == 0
        row = rows_of(out.read_text().strip().splitlines())[0]
        assert float(row["value"]) == 7.0

    def test_bad_integrand_exits_2(self, capsys):
        assert run(["compute", "--f", "sin:1:1"]) == 2

    def test_budget_exhaustion_exits_3(self, capsys):
        assert run(["compute", "--f", "pow:1:0.5", "--alpha", "0.3", "--t", "10",
                    "--method", "direct", "--budget", "64"]) == 3

    @pytest.mark.parametrize("method", ("oracle", "transformed"))
    def test_overflowing_horizon_exits_3(self, method, capsys):
        # t**(p+alpha) = 1e130**2.5 is beyond the largest double
        assert run(["compute", "--f", "pow:1:2", "--alpha", "0.5", "--t", "1e130",
                    "--method", method]) == 3
        assert capsys.readouterr().err.startswith("fracint: ")

    def test_underflowing_strip_width_exits_2(self, capsys):
        # width 1e-320 over 100 000 strips rounds the step to zero
        assert run(["compute", "--alpha", "1", "--t", "1e-320", "--method", "cavalieri"]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_partition_ending_at_its_width_exits_0(self, capsys):
        # Gamma(alpha+1) * width rounds above t**alpha by more than 1e-12 here
        assert run(["compute", "--method", "cavalieri", "--alpha", "0.85", "--t", "1e6",
                    "--n", "1000"]) == 0

    def test_overflowing_strip_sum_exits_3_with_one_line(self, capsys):
        # the strip sum of 8e307 over a width of 2.26 overflows in the dot product
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["compute", "--method", "cavalieri", "--f", "pow:8e307:0",
                        "--alpha", "0.5", "--t", "4"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("fracint: ") and err.count("\n") == 1

    @pytest.mark.parametrize("tolerances", (
        ["--abs-tol", "nan"],
        ["--rel-tol", "nan"],
        ["--abs-tol", "-1", "--rel-tol", "-1"],
    ))
    def test_unmeetable_tolerances_exit_2(self, tolerances, capsys):
        assert run(["compute", "--alpha", "0.5", "--t", "1"] + tolerances) == 2
        assert "tolerances must be >= 0" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run(["compute", "--frobnicate", "1"])
        assert info.value.code == 2


class TestCompareCommand:
    def test_structure_and_consistency(self, tmp_path):
        out = tmp_path / "compare.json"
        assert run(["compare", "--f", "pow:1:1", "--alpha", "0.5,1", "--t", "1,2",
                    "--n", "20000", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["consistent"] is True
        assert set(payload["results"]) == {
            "alpha=0.5,t=1", "alpha=0.5,t=2", "alpha=1,t=1", "alpha=1,t=2",
        }
        entry = payload["results"]["alpha=0.5,t=1"]
        for key in ("direct", "stieltjes", "cavalieri", "transformed", "oracle"):
            assert key in entry
        assert len(entry["deltas"]) == 6
        assert entry["consistent"] is True
        assert entry["oracle"] == pytest.approx(FOUR_OVER_3SQRTPI, rel=1e-12)

    def test_identity_rows_agree_exactly(self, tmp_path):
        out = tmp_path / "compare.json"
        assert run(["compare", "--alpha", "0", "--t", "2", "--out", str(out)]) == 0
        entry = json.loads(out.read_text())["results"]["alpha=0,t=2"]
        assert all(d == 0.0 for d in entry["deltas"].values())

    def test_tight_tolerance_flags_inconsistency(self, tmp_path):
        out = tmp_path / "compare.json"
        assert run(["compare", "--alpha", "0.5", "--t", "1", "--n", "100",
                    "--tolerance", "1e-12", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["consistent"] is False

    @pytest.mark.parametrize("tolerance", ("nan", "-1", "inf"))
    def test_unusable_tolerance_exits_2(self, tolerance, tmp_path, capsys):
        out = tmp_path / "compare.json"
        assert run(["compare", "--alpha", "0.5", "--t", "1", "--n", "100",
                    "--tolerance", tolerance, "--out", str(out)]) == 2
        assert "tolerance must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestStripsCommand:
    def test_csv_and_svg(self, tmp_path):
        csv_path = tmp_path / "strips.csv"
        svg_path = tmp_path / "strips.svg"
        assert run(["strips", "--f", "pow:1:1", "--alpha", "0.8", "--t", "10",
                    "--n-strips", "5", "--samples", "40",
                    "--out", str(csv_path), "--svg", str(svg_path)]) == 0
        boundary_block, area_block = blocks_of(csv_path.read_text())
        assert boundary_block[0] == "boundary_index,y,x"
        assert area_block[0] == "strip_index,area"
        rows = rows_of(boundary_block)
        assert {row["boundary_index"] for row in rows} == {"0", "1", "2", "3", "4", "5"}
        last = [row for row in rows if row["boundary_index"] == "5"][-1]
        assert float(last["x"]) == pytest.approx(10.0, rel=1e-9)
        assert float(last["y"]) == pytest.approx(10.0, rel=1e-9)
        assert len(rows_of(area_block)) == 5

        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        assert root.get("viewBox") == "0 0 800 600"

    def test_order_one_vertical_lines(self, tmp_path):
        csv_path = tmp_path / "strips.csv"
        assert run(["strips", "--f", "pow:1:1", "--alpha", "1", "--t", "10",
                    "--n-strips", "5", "--samples", "20", "--out", str(csv_path)]) == 0
        boundary_block, _ = blocks_of(csv_path.read_text())
        for index in range(6):
            xs = [float(r["x"]) for r in rows_of(boundary_block)
                  if r["boundary_index"] == str(index)]
            assert np.allclose(xs, 2.0 * index, atol=1e-10)

    def test_non_monotone_integrand_exits_2(self):
        assert run(["strips", "--f", "pow:1:0", "--alpha", "0.5", "--t", "2"]) == 2

    def test_n_abbreviates_n_strips(self, capsys):
        assert run(["strips", "--alpha", "0.5", "--t", "2", "--n", "10"]) == 0
        _, area_block = blocks_of(capsys.readouterr().out)
        assert len(rows_of(area_block)) == 10

    def test_runs_no_quadrature(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("strips integrated")

        monkeypatch.setattr(engines, "adaptive_quadrature", refuse)
        assert run(["strips", "--f", "pow:1:0.5", "--alpha", "0.5", "--t", "2",
                    "--samples", "8"]) == 0
        _, area_block = blocks_of(capsys.readouterr().out)
        assert len(rows_of(area_block)) == 5

    @pytest.mark.parametrize("flag", ("--config", "--abs-tol", "--rel-tol", "--budget"))
    def test_settings_flags_are_refused(self, flag):
        with pytest.raises(SystemExit) as info:
            run(["strips", "--alpha", "0.5", "--t", "2", flag, "1"])
        assert info.value.code == 2


class TestRegionsCommand:
    def test_blocks(self, tmp_path):
        out = tmp_path / "regions.csv"
        assert run(["regions", "--f", "pow:1:0.5", "--alpha", "0,1", "--t", "4",
                    "--samples", "16", "--out", str(out)]) == 0
        outline_block, area_block = blocks_of(out.read_text())
        assert outline_block[0] == "alpha,t,part,x,y"
        assert area_block[0] == "alpha,t,area"
        areas = {row["alpha"]: float(row["area"]) for row in rows_of(area_block)}
        assert areas["0.00000000000e+00"] == pytest.approx(2.0, rel=1e-9)
        assert areas["1.00000000000e+00"] == pytest.approx(16.0 / 3.0, rel=1e-9)
        parts = {row["part"] for row in rows_of(outline_block)}
        assert parts == {"f", "edge"}

    def test_budget_reaches_the_areas(self, capsys):
        assert run(["regions", "--budget", "15"]) == 3
        assert "budget 15 exhausted" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ("-1", "0", "1"))
    def test_identity_order_with_too_few_samples_exits_2(self, samples, capsys):
        assert run(["regions", "--alpha", "0", "--t", "2", "--samples", samples]) == 2
        assert "need at least 2 samples per curve" in capsys.readouterr().err


class TestCurvesCommand:
    def test_blocks_and_identity_curve(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run(["curves", "--f", "pow:1:0.5", "--alpha", "0,0.4", "--t-start", "0",
                    "--t-stop", "4", "--t-step", "0.5", "--out", str(out)]) == 0
        curve_block, marker_block = blocks_of(out.read_text())
        assert curve_block[0] == "alpha,t,value"
        assert marker_block[0] == "alpha,t,area_marker"
        rows = rows_of(curve_block)
        sqrt_curve = [r for r in rows if float(r["alpha"]) == 0.0]
        for row in sqrt_curve:
            # 12-significant-digit CSV formatting bounds the round trip
            assert float(row["value"]) == pytest.approx(float(row["t"]) ** 0.5, rel=1e-11)
        assert len(rows) == 2 * 9
        assert len(rows_of(marker_block)) == 2 * 5

    def test_markers_fall_on_curves(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run(["curves", "--f", "pow:1:1", "--alpha", "0.6", "--t-start", "2",
                    "--t-stop", "10", "--t-step", "2", "--out", str(out)]) == 0
        curve_block, marker_block = blocks_of(out.read_text())
        curve = {row["t"]: float(row["value"]) for row in rows_of(curve_block)}
        for row in rows_of(marker_block):
            assert float(row["area_marker"]) == pytest.approx(curve[row["t"]], rel=1e-6)

    def test_bad_step_exits_2(self):
        assert run(["curves", "--t-step", "0"]) == 2

    def test_budget_reaches_the_markers(self, capsys):
        # the default oracle route ignores the budget; the marker areas use it
        assert run(["curves", "--budget", "15"]) == 3
        assert "budget 15 exhausted" in capsys.readouterr().err

    def test_markers_need_no_strip_geometry(self, capsys):
        # a constant has no strip region, yet its order-alpha integral is defined
        assert run(["curves", "--f", "pow:1:0", "--alpha", "0.5", "--t-start", "2",
                    "--t-stop", "2", "--t-step", "1", "--marker-t", "2",
                    "--method", "transformed"]) == 0
        curve_block, marker_block = blocks_of(capsys.readouterr().out)
        (point,) = rows_of(curve_block)
        (marker,) = rows_of(marker_block)
        assert marker["t"] == point["t"]
        assert marker["area_marker"] == point["value"]


@pytest.mark.parametrize("command", (
    ["regions", "--samples", "4"],
    ["strips"],
))
def test_overflowing_integrand_exits_3_before_sampling(command, capsys):
    # f(4) = 3.2e308 is past the largest double
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(command + ["--f", "pow:8e307:1", "--alpha", "0.5", "--t", "4"]) == 3
    assert capsys.readouterr().err == "fracint: integrand value f(4) = inf is not finite\n"


class TestSemigroupCommand:
    def parse(self, text):
        return {line.split("=")[0]: float(line.split("=")[1])
                for line in text.strip().splitlines()}

    def test_halves(self, capsys):
        assert run(["semigroup", "--f", "pow:1:1", "--alpha", "0.5", "--beta", "0.5",
                    "--t", "2"]) == 0
        report = self.parse(capsys.readouterr().out)
        assert report["direct"] == pytest.approx(2.0, rel=1e-9)
        assert report["rel_gap"] <= 1e-4

    def test_identity_beta_gap_is_zero(self, capsys):
        assert run(["semigroup", "--f", "pow:1:1", "--alpha", "0.4", "--beta", "0",
                    "--t", "3"]) == 0
        assert self.parse(capsys.readouterr().out)["rel_gap"] == 0.0

    def test_excessive_order_exits_2(self, capsys):
        assert run(["semigroup", "--alpha", "0.7", "--beta", "0.7", "--t", "1"]) == 2
        assert "exceeds the supported domain" in capsys.readouterr().err

    def test_overflowing_spline_exits_3(self, capsys):
        # the inner values are finite, their divided differences are not
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["semigroup", "--f", "pow:1e307:0", "--alpha", "0.25",
                        "--beta", "0.25", "--t", "100"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("fracint: not-a-knot spline") and err.count("\n") == 1


class TestConfigFile:
    def test_config_overrides_defaults(self, tmp_path):
        config = tmp_path / "fracint.conf"
        config.write_text("# consistency tolerance\ntolerance = 1e-12\nn = 100\n")
        out = tmp_path / "compare.json"
        assert run(["compare", "--alpha", "0.5", "--t", "1", "--config", str(config),
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["tolerance"] == 1e-12
        assert payload["n"] == 100
        assert payload["consistent"] is False

    def test_flags_take_precedence(self, tmp_path):
        config = tmp_path / "fracint.conf"
        config.write_text("tolerance = 1e-12\n")
        out = tmp_path / "compare.json"
        assert run(["compare", "--alpha", "0.5", "--t", "1", "--tolerance", "1e-3",
                    "--config", str(config), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["consistent"] is True

    def test_defaults_are_the_library_constants(self):
        library = {
            "abs_tol": DEFAULT_ABS_TOL,
            "rel_tol": DEFAULT_REL_TOL,
            "budget": DEFAULT_BUDGET,
            "n": DEFAULT_SUM_N,
            "tolerance": 1e-3,
        }
        for command, options in OPTIONS.items():
            for key, value in library.items():
                if "--" + key.replace("_", "-") in options:
                    default = subparser(command).get_default(key)
                    assert (command, key, default, type(default)) == (
                        command, key, value, type(value)
                    )
        args = cli.build_parser().parse_args(["semigroup", "--alpha", "0.3", "--beta", "0.4",
                                              "--t", "1"])
        assert args.grid == DEFAULT_COMPOSE_GRID

    def test_malformed_config_exits_2(self, tmp_path):
        config = tmp_path / "fracint.conf"
        config.write_text("tolerance 1e-12\n")
        assert run(["compare", "--config", str(config)]) == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "fracint.conf"
        config.write_text("budgte = 5\n")
        assert run(["compare", "--alpha", "0.5", "--t", "1", "--config", str(config)]) == 2
        assert "unknown config key 'budgte'" in capsys.readouterr().err

    def test_bad_value_exits_2(self, tmp_path, capsys):
        config = tmp_path / "fracint.conf"
        config.write_text("budget = abc\n")
        assert run(["compare", "--alpha", "0.5", "--t", "1", "--config", str(config)]) == 2
        assert "config key 'budget'" in capsys.readouterr().err


# one quick run per subcommand that takes --config; SETTING_VALUES move its output
CONFIG_RUNS = {
    "compute": ["compute", "--f", "pow:1:0.5", "--alpha", "0.5", "--t", "2", "--method", "direct"],
    "compare": ["compare", "--f", "pow:1:0.5", "--alpha", "0.5", "--t", "2"],
    "regions": ["regions", "--f", "pow:1:0.5", "--alpha", "0.5", "--t", "2", "--samples", "8"],
    "curves": ["curves", "--f", "pow:1:0.5", "--alpha", "0.5", "--t-stop", "2", "--t-step", "1",
               "--marker-t", "2"],
    "semigroup": ["semigroup", "--f", "pow:1:0.5", "--alpha", "0.3", "--beta", "0.4", "--t", "1",
                  "--grid", "64", "--method", "direct"],
}
SETTING_VALUES = {"abs_tol": "1e-4", "rel_tol": "1e-4", "budget": "100", "n": "1000",
                  "tolerance": "1e-12"}
CONFIG_CASES = [
    (command, key)
    for command in sorted(CONFIG_RUNS)
    for key in sorted(SETTING_VALUES)
    if "--" + key.replace("_", "-") in OPTIONS[command]
]


def outcome(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    if argv[0] == "compute":
        # drop the seconds column, the one cell that is timed
        out = "\n".join(line.rsplit(",", 1)[0] for line in out.splitlines())
    return code, out, err


@pytest.mark.parametrize(("command", "key"), CONFIG_CASES)
def test_config_key_matches_its_flag(command, key, tmp_path, capsys):
    config = tmp_path / "fracint.conf"
    config.write_text(f"{key} = {SETTING_VALUES[key]}\n")
    argv = CONFIG_RUNS[command]
    if key == "n" and command != "compare":
        argv = argv + ["--method", "cavalieri"]
    before = outcome(argv, capsys)
    via_config = outcome(argv + ["--config", str(config)], capsys)
    after = outcome(argv, capsys)
    via_flag = outcome(argv + ["--" + key.replace("_", "-"), SETTING_VALUES[key]], capsys)
    assert via_config == via_flag
    assert via_flag != before
    assert after == before


@pytest.mark.parametrize(("command", "key"), [
    (command, key)
    for command in sorted(CONFIG_RUNS)
    for key in SETTING_VALUES
    if (command, key) not in CONFIG_CASES
])
def test_config_key_the_subcommand_lacks_exits_2(command, key, tmp_path, capsys):
    config = tmp_path / "fracint.conf"
    config.write_text(f"{key} = {SETTING_VALUES[key]}\n")
    assert run(CONFIG_RUNS[command] + ["--config", str(config)]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err


class TestDeterminism:
    def test_compare_runs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert run(["compare", "--f", "pow:1:0.5", "--alpha", "0.2,0.8",
                        "--t", "2,10", "--n", "5000", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_curves_runs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run(["curves", "--f", "pow:1:1", "--alpha", "0,0.5,1",
                        "--t-start", "0", "--t-stop", "5", "--t-step", "0.25",
                        "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
