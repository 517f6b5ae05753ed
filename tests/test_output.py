"""The block emitters write the bytes the per-number emitters wrote.

``_emitters_before`` is a verbatim copy of the emitters that formatted one
number per call.  Each test runs a subcommand through ``cli.main`` and the same
parsed arguments through the copy, and compares every file byte for byte.
"""

import itertools
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import _emitters_before as before
from fracint import cli, output
from fracint.output import CSV_NUMBER, SVG_NUMBER, format_number, format_rows, join_blocks


def _both(argv, handler, tmp_path, svg=False, monkeypatch=None):
    """The files written by ``cli.main(argv)`` and by ``handler`` on the same arguments."""
    written = {}
    for side in ("after", "before"):
        paths = [tmp_path / f"{side}.csv"] + ([tmp_path / f"{side}.svg"] if svg else [])
        flags = ["--out", str(paths[0])] + (["--svg", str(paths[1])] if svg else [])
        if monkeypatch is not None:  # one fresh clock per side, for the seconds column
            clock = types.SimpleNamespace(perf_counter=itertools.count(0.0, 1.25e-4).__next__)
            monkeypatch.setattr(cli, "time", clock)
            monkeypatch.setattr(before, "time", clock)
        if side == "after":
            assert cli.main(argv + flags) == 0
        else:
            handler(cli.build_parser().parse_args(argv + flags))
        written[side] = [path.read_bytes() for path in paths]
    return written["after"], written["before"]


@pytest.mark.parametrize("p", ("1", "1.5", "2"))
@pytest.mark.parametrize("n", range(1, 9))
def test_strips_bytes(n, p, tmp_path):
    argv = ["strips", "--f", f"pow:1:{p}", "--alpha", "1", "--t", "3", "--n-strips", str(n),
            "--samples", "17"]
    after, before_ = _both(argv, before.cmd_strips, tmp_path, svg=True)
    assert after == before_


@pytest.mark.parametrize("argv", (
    ["strips", "--f", "pow:1:1.5", "--alpha", "0.37", "--t", "3.3", "--n-strips", "11"],
    ["strips", "--f", "pow:2:2", "--alpha", "0.2", "--t", "1e-3", "--n-strips", "1",
     "--samples", "2"],
))
def test_fractional_strips_bytes(argv, tmp_path):
    after, before_ = _both(argv, before.cmd_strips, tmp_path, svg=True)
    assert after == before_


@pytest.mark.parametrize("argv", (
    ["regions", "--f", "pow:1:0.5", "--alpha", "0", "--t", "2,4", "--samples", "9"],
    ["regions", "--f", "pow:1:1.5", "--alpha", "0,0.3,1", "--t", "1e-3,4", "--samples", "31"],
))
def test_regions_bytes(argv, tmp_path):
    after, before_ = _both(argv, before.cmd_regions, tmp_path, svg=True)
    assert after == before_


@pytest.mark.parametrize("samples", ("2", "200"))
def test_transform_bytes(samples, tmp_path):
    argv = ["transform", "--alpha", "0.37", "--t", "7", "--samples", samples]
    after, before_ = _both(argv, before.cmd_transform, tmp_path)
    assert after == before_


@pytest.mark.parametrize("method", ("oracle", "transformed"))
def test_curves_bytes(method, tmp_path):
    argv = ["curves", "--f", "pow:1:0.5", "--alpha", "0,0.4,1", "--t-step", "0.37",
            "--marker-t", "2,5", "--method", method]
    after, before_ = _both(argv, before.cmd_curves, tmp_path)
    assert after == before_


def test_compute_bytes(tmp_path, monkeypatch):
    argv = ["compute", "--f", "pow:1:1.5", "--alpha", "0,0.5", "--t", "1e-3,2",
            "--method", "direct"]
    after, before_ = _both(argv, before.cmd_compute, tmp_path, monkeypatch=monkeypatch)
    assert after == before_


VALUES = (
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1.7976931348623157e308,
    -2.5e-310, 9.9999999999995, 0.1, np.float64(1.0) / 3.0, np.float64(-7.25e101),
    np.array(2.0 ** 0.5), 0, 7, -3, 2**53 + 1,
)


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_format_number(value):
    assert format_number(value) == before.format_number(value)


def test_format_rows_formats_each_value_as_before():
    column = np.array([float(v) for v in VALUES])
    assert format_rows(CSV_NUMBER, (column,)) == "\n".join(before.format_number(v) for v in column)
    # ints keep their type: each column is converted on its own
    ints = [v for v in VALUES if isinstance(v, int)]
    assert format_rows(f"%d,{CSV_NUMBER}", (ints, ints)) == "\n".join(
        f"{v},{before.format_number(v)}" for v in ints
    )


def test_svg_coordinates_format_as_before():
    x = np.array([float(v) for v in VALUES if abs(float(v)) < 1e300])  # nan and inf drop out
    y = x[::-1].copy()
    assert format_rows(f"{SVG_NUMBER},{SVG_NUMBER}", (x, y), sep=" ") == " ".join(
        f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y)
    )


def test_no_rows_add_no_line():
    empty = np.empty(0)
    assert format_rows(CSV_NUMBER, (empty,)) == ""
    block = ["x,y", format_rows(f"{CSV_NUMBER},{CSV_NUMBER}", (empty, empty)), "1,2"]
    assert join_blocks(block, ["k"]) == "x,y\n1,2\n\nk\n"


def test_svg_document_bytes():
    rng = np.random.default_rng(5)
    curves = [
        {"points": rng.normal(size=(40, 2)) * 1e3, "dashed": False, "shade": 0.0},
        {"points": np.empty((0, 2)), "dashed": True, "shade": 0.5},
        {"points": np.array([[1.0, 2.0]]), "dashed": True, "shade": 0.5},
        {"points": rng.random((7, 2)), "dashed": True, "shade": 1.0},
    ]
    assert output.svg_document(curves) == before.svg_document(curves)


STRIPS = ["strips", "--alpha", "0.8", "--t", "10", "--n-strips", "5"]


def _files(directory, argv):
    """Run ``strips`` with ``--out``/``--svg`` in ``directory``; return both paths."""
    out, svg = directory / "strips.csv", directory / "strips.svg"
    assert cli.main(argv + ["--out", str(out), "--svg", str(svg)]) == 0
    return out, svg


def test_new_files_are_not_opened_for_truncation(tmp_path, monkeypatch):
    # "w" truncates even a new file, and ext4 flushes a file truncated to 0 on close
    modes = []

    def recording_open(file, mode="r", *args, **kwargs):
        modes.append(mode)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(output, "open", recording_open, raising=False)
    out, svg = _files(tmp_path, STRIPS)
    assert modes and "w" not in modes
    assert out.stat().st_size and svg.stat().st_size


@pytest.mark.parametrize("argv, names", [
    (STRIPS, ("strips.csv", "strips.svg")),
    (["regions", "--samples", "9"], ("strips.csv", "strips.svg")),
    (["gamma", "--x", "0.5"], ("strips.csv",)),
], ids=["strips", "regions", "gamma"])
def test_each_output_file_is_opened_once(argv, names, tmp_path, monkeypatch):
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(output, "open", recording_open, raising=False)
    paths = [str(tmp_path / name) for name in names]
    flags = ["--out", paths[0]] + (["--svg", paths[1]] if len(paths) > 1 else [])
    assert cli.main(argv + flags) == 0
    assert opened == paths
    assert all((tmp_path / name).stat().st_size for name in names)


def test_a_longer_existing_file_is_replaced(tmp_path):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    fresh.mkdir()
    old.mkdir()
    expected = [path.read_bytes() for path in _files(fresh, STRIPS)]
    for path, text in zip((old / "strips.csv", old / "strips.svg"), expected):
        path.write_bytes(b"x" * (2 * len(text)))
    assert [path.read_bytes() for path in _files(old, STRIPS)] == expected


@pytest.mark.parametrize("existing", (None, b"kept\n"), ids=["new", "existing"])
@pytest.mark.parametrize("link", (False, True), ids=["same-path", "symlink"])
@pytest.mark.parametrize("argv", [STRIPS, ["regions", "--samples", "9"]], ids=["strips", "regions"])
def test_one_file_for_out_and_svg_is_refused(argv, link, existing, tmp_path, capsys):
    out = tmp_path / "both"
    svg = tmp_path / "link.svg" if link else out
    if link:
        svg.symlink_to(out)
    if existing is not None:
        out.write_bytes(existing)
    assert cli.main(argv + ["--out", str(out), "--svg", str(svg)]) == 2
    assert capsys.readouterr() == ("", f"fracint: outputs {str(out)!r} and {str(svg)!r} are one file\n")
    assert out.read_bytes() == (existing or b"")


@pytest.mark.parametrize("argv", [STRIPS, ["regions", "--samples", "9"]], ids=["strips", "regions"])
def test_stdout_that_is_the_svg_file_is_refused(argv, tmp_path):
    # the shell opens the file for stdout, so only the descriptor of stdout tells that it is
    # the --svg file; a StringIO stdout has none, so this runs the console script in a child
    src = os.path.dirname(os.path.dirname(output.__file__))

    def fracint(stdout):
        return subprocess.run(
            [sys.executable, "-c", "import sys; from fracint.cli import main; sys.exit(main())",
             *argv, "--svg", str(svg)],
            stdout=stdout, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
            text=True, timeout=120,
        )

    svg = tmp_path / "both"
    svg.write_bytes(b"kept\n")
    with open(svg, "a") as stdout:  # as the shell opens it for >>
        refused = fracint(stdout)
    assert (refused.returncode, refused.stderr) == (2, f"fracint: outputs stdout and {str(svg)!r} are one file\n")
    assert svg.read_bytes() == b"kept\n"
    # another regular file, a pipe and the null device take stdout as before
    other = tmp_path / "other"
    with open(other, "w") as stdout:
        assert fracint(stdout).returncode == 0
    piped = fracint(subprocess.PIPE)
    assert (piped.returncode, piped.stdout) == (0, other.read_text())
    with open(os.devnull, "w") as stdout:
        assert fracint(stdout).returncode == 0
    assert svg.read_text().startswith("<svg")


def test_null_device_takes_both_outputs(capsys):
    assert cli.main(["regions", "--samples", "40", "--out", "/dev/null", "--svg", "/dev/null"]) == 0
    assert capsys.readouterr() == ("", "")
