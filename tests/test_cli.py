import json
import math
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
from fracint.quadrature import _KRONROD_NODES, DEFAULT_ABS_TOL, DEFAULT_BUDGET, DEFAULT_REL_TOL

from _reference import FOUR_OVER_3SQRTPI

PANEL = _KRONROD_NODES.size  # evaluations of one Kronrod panel


# (p, t) of power integrands with small exponents; the ids of the t = 2 cases name p alone
SMALL_EXPONENTS = [pytest.param(p, 2.0, id=f"{p}") for p in (0.002, 0.003, 0.0005, 1e-06, 3e-05)]
SMALL_EXPONENTS.append(pytest.param(1e-12, 1000.0, id="1e-12-1000"))


def run(args):
    return main(args)


def run_under_memory_limit(argv):
    """``fracint argv`` in a child limited to 800 MB of address space.

    A bound checked only after a huge request is allocated then fails with
    MemoryError instead of exhausting the host.
    """
    src = os.path.dirname(os.path.dirname(fracint.__file__))
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (800_000_000,) * 2); "
        "from fracint.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120,
    )


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

    def test_largest_finite_values(self, capsys):
        assert run(["gamma", "--x", "171.6243"]) == 0
        assert capsys.readouterr().out == "1.79698185749571e+308\n"
        assert run(["gamma", "--x", "171.7"]) == 2
        assert capsys.readouterr().err == "fracint: gamma(171.7) overflows double precision\n"


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
            f"fracint: samples per curve must be >= 2, got {samples}\n"
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

    @pytest.mark.parametrize("argv, value", [
        (["--f", "pow:1:200", "--alpha", "0.5", "--t", "2"], 1.60393286125716e59),
        (["--f", "pow:1e-300:40", "--alpha", "0.5", "--t", "1e8", "--method", "oracle"], 1.5665061613128e23),
    ], ids=("gamma-overflows", "power-overflows"))
    def test_a_finite_oracle_with_overflowing_factors(self, argv, value, capsys):
        assert run(["compute", *argv]) == 0
        row = rows_of(capsys.readouterr().out.strip().splitlines())[0]
        assert float(row["value"]) == pytest.approx(value, rel=1e-11)
        assert float(row["oracle"]) == pytest.approx(value, rel=1e-11)

    # the ids of the c = 1e-300 cases name the method alone
    @pytest.mark.parametrize("method, c, exact", [
        pytest.param(method, c, exact, id=method if c != "0" else f"{method}-0")
        for c, exact in (("1e-300", 1.5665061613128e23), ("0", 0.0))
        for method in ("transformed", "direct", "stieltjes", "cavalieri")
    ])
    def test_an_overflowing_power_scaled_down_to_a_finite_value(self, method, c, exact, capsys):
        # 1e8**40 is past the largest double, and 1e-300 * 1e8**40 = 1e20 is not; nor is
        # 0 * 1e8**40, which is 0 rather than the nan of 0 * inf
        assert run(["compute", "--f", f"pow:{c}:40", "--alpha", "0.5", "--t", "1e8",
                    "--method", method]) == 0
        out, err = capsys.readouterr()
        row = rows_of(out.strip().splitlines())[0]
        tol = 1e-4 if method in ("stieltjes", "cavalieri") else 1e-9
        assert float(row["rel_err"]) <= tol
        assert float(row["value"]) == pytest.approx(exact, rel=tol)
        assert err == ""

    def test_an_oracle_past_the_largest_double_exits_3(self, capsys):
        assert run(["compute", "--f", "pow:1e-300:3", "--alpha", "0.5", "--t", "1e200",
                    "--method", "oracle"]) == 3
        assert "overflows a double" in capsys.readouterr().err

    def test_identity_row_uses_oracle_path(self, tmp_path):
        out = tmp_path / "compute.csv"
        assert run(["compute", "--f", "pow:1:1", "--alpha", "0", "--t", "7",
                    "--method", "oracle", "--out", str(out)]) == 0
        row = rows_of(out.read_text().strip().splitlines())[0]
        assert float(row["value"]) == 7.0

    def test_the_oracle_route_ignores_the_adaptive_settings(self, capsys):
        assert run(["compute", "--method", "oracle", "--budget", "14", "--abs-tol", "nan",
                    "--n", "0", "--alpha", "0.5", "--t", "1"]) == 0
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("p, t", SMALL_EXPONENTS)
    def test_small_exponent_areas(self, p, t, capsys):
        # f is nearly flat away from 0: f(5e-324) ~ 0.23 at p = 0.002, and f(t) is within
        # 7e-7 of 1 at p = 1e-6 and t = 2
        assert run(["strips", "--f", f"pow:1:{p}", "--alpha", "0.5", "--t", f"{t:g}"]) == 0
        _, area_block = blocks_of(capsys.readouterr().out)
        areas = [float(row["area"]) for row in rows_of(area_block)]
        # x2_i = t * (1 - (1 - i/n)**2) at order 1/2, each strip sqrt(t) / Gamma(3/2) / 5 wide
        width = math.sqrt(t) / math.gamma(1.5) / 5
        expected = [(t * (1.0 - (1.0 - i / 5) ** 2)) ** p * width for i in range(5)]
        assert areas == pytest.approx(expected, rel=1e-11, abs=0.0)


class TestRegionsCommand:
    @pytest.mark.parametrize("p, t", SMALL_EXPONENTS)
    def test_small_exponent_areas(self, p, t, capsys):
        assert run(["regions", "--f", f"pow:1:{p}", "--alpha", "0,0.5", "--t", f"{t:g}",
                    "--samples", "8"]) == 0
        _, area_block = blocks_of(capsys.readouterr().out)
        areas = [float(row["area"]) for row in rows_of(area_block)]
        # c * Gamma(p + 1) / Gamma(p + alpha + 1) * t**(p + alpha)
        expected = [math.gamma(p + 1) / math.gamma(p + a + 1) * t ** (p + a) for a in (0, 0.5)]
        assert areas == pytest.approx(expected, rel=1e-9)

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
        assert run(["regions", "--budget", str(PANEL)]) == 3
        assert f"budget {PANEL} exhausted" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ("-1", "0", "1"))
    def test_identity_order_with_too_few_samples_exits_2(self, samples, capsys):
        assert run(["regions", "--alpha", "0", "--t", "2", "--samples", samples]) == 2
        assert "samples per curve must be >= 2" in capsys.readouterr().err


class TestCurvesCommand:
    def test_a_curve_operator_with_a_bad_setting_exits_2_unapplied(self, capsys):
        # the horizon 0 is never integrated, but the operator is refused as it is built
        assert run(["curves", "--t-start", "0", "--t-stop", "0", "--t-step", "1",
                    "--method", "cavalieri", "--n", "0"]) == 2
        assert capsys.readouterr().err == "fracint: partition size must be >= 1, got 0\n"

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

    @pytest.mark.parametrize(("flag", "value"), (
        ("--t-step", "nan"), ("--t-start", "nan"), ("--t-stop", "inf"),
    ))
    def test_non_finite_range_exits_2(self, flag, value, capsys):
        assert run(["curves", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fracint: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", (
        ["--t-stop", "1e6", "--t-step", "1"],  # one horizon over the cap
        ["--t-step", "1e-310"],  # the count overflows to inf
        ["--t-start=-1e308", "--t-stop", "1e308"],  # so does the range
    ))
    def test_horizon_count_is_bounded(self, argv, capsys):
        assert run(["curves", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fracint: t-step ") and err.count("\n") == 1
        assert f"more than {cli.MAX_CURVE_HORIZONS} horizons" in err

    def test_tiny_step_exits_2_before_building_the_horizons(self):
        # about 1e301 horizons
        completed = run_under_memory_limit(["curves", "--t-step", "1e-300"])
        assert completed.returncode == 2, completed.stderr
        assert completed.stderr == (
            f"fracint: t-step 1e-300 over [0, 10] needs more than {cli.MAX_CURVE_HORIZONS} horizons\n"
        )

    def test_budget_reaches_the_markers(self, capsys):
        # the default oracle route ignores the budget; the marker areas use it
        assert run(["curves", "--budget", str(PANEL)]) == 3
        assert f"budget {PANEL} exhausted" in capsys.readouterr().err

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


@pytest.mark.parametrize("command", (
    ["compute", "--alpha", "0.5", "--t", "10"],
    ["compute", "--alpha", "0.5", "--t", "10", "--method", "cavalieri", "--n", "1000"],
    ["compare", "--alpha", "0.5", "--t", "10", "--n", "1000"],
    ["curves", "--alpha", "0.5", "--t-stop", "2", "--method", "transformed"],
    ["semigroup", "--alpha", "0.3", "--beta", "0.4", "--t", "10"],
    ["regions", "--alpha", "0.5", "--t", "10", "--samples", "4"],
))
def test_overflowing_values_exit_3_without_a_warning(command, capsys):
    # 1e308 * tau**2 overflows inside f; the check that meets the inf refuses it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(command + ["--f", "pow:1e308:2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fracint: ") and err.count("\n") == 1


@pytest.mark.parametrize(("command", "width"), (
    (["strips", "--n-strips", "3", "--samples", "3"], "3.76126e+149"),
    (["regions", "--samples", "3"], "1.12838e+150"),
))
def test_overflowing_strip_area_exits_3(command, width, capsys):
    # the first strip is 1.5e284 high: f(h(0)) with h(0) = 1e300 - (1e150)**2 > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(command + ["--alpha", "0.5", "--t", "1e300"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fracint: area of strip 0 = 1.48702e+284 * {width} is not finite\n"


@pytest.mark.parametrize("argv", (
    ["gamma", "--x", "0.5", "--out", "{missing}/x.txt"],
    ["strips", "--alpha", "0.5", "--t", "2", "--svg", "{missing}/x.svg"],
))
def test_unwritable_path_exits_2(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert run([arg.format(missing=missing) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fracint: cannot write '{missing}/x.") and err.count("\n") == 1


@pytest.mark.parametrize("command", (
    ["strips", "--alpha", "0.5", "--t", "2"],
    ["regions", "--samples", "20"],
))
class TestBadPathWritesNothing:
    """Every path is checked before any text is written."""

    @pytest.mark.parametrize(("bad", "good"), (("--out", "--svg"), ("--svg", "--out")))
    def test_other_file_is_left_as_it_was(self, command, bad, good, tmp_path, capsys):
        missing, other = tmp_path / "missing" / "x", tmp_path / "other"
        other.write_text("earlier contents\n")
        assert run(command + [bad, str(missing), good, str(other)]) == 2
        assert capsys.readouterr() == ("", f"fracint: cannot write '{missing}': "
                                           "No such file or directory\n")
        assert other.read_text() == "earlier contents\n"
        assert not missing.parent.exists()

    def test_no_rows_on_stdout(self, command, tmp_path, capsys):
        assert run(command + ["--svg", str(tmp_path / "missing" / "x.svg")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("fracint: cannot write ")

    def test_good_paths_get_both_texts(self, command, tmp_path, capsys):
        csv, svg = tmp_path / "x.csv", tmp_path / "x.svg"
        csv.write_text("a longer earlier text that the output replaces\n" * 1000)
        assert run(command + ["--out", str(csv), "--svg", str(svg)]) == 0
        assert run(command + ["--svg", str(tmp_path / "y.svg")]) == 0
        assert csv.read_text() == capsys.readouterr().out
        assert svg.read_text() == (tmp_path / "y.svg").read_text()
        assert svg.read_text().startswith("<svg ")


class TestRowCap:
    CASES = (
        (["transform", "--alpha", "0.5", "--t", "2", "--samples", "1000000000"],
         "--samples 1000000000 asks for 2000000000 rows"),
        (["strips", "--alpha", "0.5", "--t", "2", "--samples", "1000000000"],
         "--n-strips 5 with --samples 1000000000 asks for 6000000000 rows"),
        (["strips", "--alpha", "0.5", "--t", "2", "--n-strips", "1000000000"],
         "--n-strips 1000000000 with --samples 200 asks for 200000000200 rows"),
        (["regions", "--samples", "1000000000"],
         "30 regions at --samples 1000000000 asks for 60000000000 rows"),
    )

    @pytest.mark.parametrize(("argv", "refusal"), CASES)
    def test_refused_before_any_geometry(self, argv, refusal, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("geometry built")

        monkeypatch.setattr("fracint.strips.build_strips", refuse)
        monkeypatch.setattr("fracint.strips.region_family", refuse)
        assert run(argv) == 2
        assert capsys.readouterr().err == f"fracint: {refusal}, more than {cli.MAX_ROWS}\n"

    @pytest.mark.parametrize(("argv", "refusal"), CASES)
    def test_refused_before_allocating(self, argv, refusal):
        completed = run_under_memory_limit(argv)
        assert completed.returncode == 2, completed.stderr
        assert completed.stderr == f"fracint: {refusal}, more than {cli.MAX_ROWS}\n"

    @pytest.mark.parametrize(("argv", "rows"), (
        (["transform", "--alpha", "0.5", "--t", "2"], 2),
        (["strips", "--alpha", "0.5", "--t", "2", "--n-strips", "2"], 3),
        (["regions", "--alpha", "0.5", "--t", "2,3"], 4),
    ))
    def test_the_cap_is_reached_not_passed(self, argv, rows, monkeypatch, capsys):
        # with a cap of 12 rows, 12 / rows samples fit and one more does not
        monkeypatch.setattr(cli, "MAX_ROWS", 12)
        assert run(argv + ["--samples", str(12 // rows)]) == 0
        assert run(argv + ["--samples", str(12 // rows + 1)]) == 2
        assert capsys.readouterr().err.endswith(" rows, more than 12\n")


class TestSumCap:
    # every subcommand that takes --n, with a partition size past the cap
    CASES = (
        ["compute", "--method", "cavalieri", "--alpha", "0.5", "--t", "2", "--n", "10000000000"],
        ["compare", "--n", "10000000000"],
        ["curves", "--method", "stieltjes", "--n", "10000000000"],
        ["semigroup", "--alpha", "0.3", "--beta", "0.4", "--t", "1", "--method", "cavalieri",
         "--n", "10000000000"],
    )
    REFUSAL = f"fracint: partition size 10000000000 is more than {cli.MAX_SUM_N}\n"

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: argv[0])
    def test_refused_before_any_operator(self, argv, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("operator built")

        monkeypatch.setattr("fracint.operator.FractionalOperator", refuse)
        assert run(argv) == 2
        assert capsys.readouterr() == ("", self.REFUSAL)

    def test_refused_before_allocating(self):
        completed = run_under_memory_limit(self.CASES[0])
        assert completed.returncode == 2, completed.stderr
        assert completed.stderr == self.REFUSAL

    def test_a_sum_at_the_cap_that_does_not_fit_exits_3(self):
        # the cap lets 10**8 strips through; their partition alone is 800 MB
        completed = run_under_memory_limit(
            ["compute", "--method", "cavalieri", "--alpha", "0.5", "--t", "2", "--n", "100000000"]
        )
        assert completed.returncode == 3, completed.stderr
        assert completed.stderr.startswith("fracint: ") and completed.stderr.count("\n") == 1

    @pytest.mark.parametrize(("error", "line"), (
        (MemoryError("Unable to allocate 763. MiB"), "fracint: Unable to allocate 763. MiB\n"),
        (MemoryError(), "fracint: out of memory\n"),
    ), ids=("named", "bare"))
    def test_an_allocation_failure_is_one_line(self, error, line, monkeypatch, capsys):
        class Exhausted:
            def __init__(self, *args, **kwargs):
                pass

            def apply(self, f, t):
                raise error

        monkeypatch.setattr("fracint.operator.FractionalOperator", Exhausted)
        assert run(self.CASES[0][:-2]) == 3
        assert capsys.readouterr() == ("", line)

    def test_a_config_file_is_capped_too(self, tmp_path, capsys):
        config = tmp_path / "fracint.conf"
        config.write_text("n = 10000000000\n")
        assert run(["compare", "--config", str(config)]) == 2
        assert capsys.readouterr().err == self.REFUSAL

    def test_the_cap_is_reached_not_passed(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_SUM_N", 12)
        argv = ["compute", "--method", "stieltjes", "--alpha", "0.5", "--t", "2", "--n"]
        assert run(argv + ["12"]) == 0
        assert run(argv + ["13"]) == 2
        assert capsys.readouterr().err == "fracint: partition size 13 is more than 12\n"


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

    @pytest.mark.parametrize("alpha", ("0", "0.2"))
    def test_small_grid_exits_2_with_an_identity_order_too(self, alpha, capsys):
        assert run(["semigroup", "--alpha", alpha, "--beta", "0.5", "--t", "1",
                    "--grid", "3"]) == 2
        assert capsys.readouterr() == ("", "fracint: composition grid must be >= 64, got 3\n")

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


@pytest.mark.parametrize("argv", (
    ["compute", "--f", "pow:1"],
    ["compare", "--alpha", "0.5,x"],
    ["regions", "--t", "2,x"],
    ["curves", "--alpha", "x"],
    ["curves", "--marker-t", "x"],
    ["compute", "--f", "pow:a:1"],
    ["compute", "--f", "pow:inf:1"],
    ["compute", "--f", "pow:1:-1"],
    ["compare", "--alpha", ","],
    ["compute", "--config", "."],  # a directory cannot be read as a config
    ["curves", "--t-start", "-1", "--t-stop", "1"],
))
def test_malformed_input_exits_2_before_any_work(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an operator ran before the inputs were parsed")

    monkeypatch.setattr(fracint.FractionalOperator, "apply", refuse)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("fracint: ") and err.count("\n") == 1


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
