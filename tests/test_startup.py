"""Start-up without numpy: the package's lazy exports and the command line's numpy-free front.

``import fracint`` binds the errors and ``gamma`` only; every other export is
read from its home module, which loads numpy on the first access.  ``fracint --help``, each
subcommand's help, ``gamma`` and a usage error run without importing numpy, and
print what a process that has numpy loaded prints.
"""

import os
import re
import subprocess
import sys
import types

import pytest

import fracint
from fracint import cli

SRC = os.path.dirname(os.path.dirname(fracint.__file__))
SUBCOMMANDS = ("gamma", "transform", "compute", "compare", "strips", "regions", "curves", "semigroup")

# the console script, which records whether numpy was loaded when it exits
CONSOLE = (
    "import os, sys\n"
    "from fracint.cli import main\n"
    "try:\n"
    "    sys.exit(main())\n"
    "finally:\n"
    "    with open(os.environ['FRACINT_PROBE'], 'w') as fh:\n"
    "        fh.write(str('numpy' in sys.modules))\n"
)


def python(code, *args, path=SRC):
    completed = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def console(argv, tmp_path):
    """(exit code, stdout, stderr, numpy loaded) of ``fracint argv`` in a fresh process."""
    probe = tmp_path / "probe"
    completed = subprocess.run(
        [sys.executable, "-c", CONSOLE, *argv],
        env=dict(os.environ, PYTHONPATH=SRC, COLUMNS="80", FRACINT_PROBE=str(probe)),
        capture_output=True, text=True, timeout=120,
    )
    return completed.returncode, completed.stdout, completed.stderr, probe.read_text() == "True"


def in_process(argv, monkeypatch, capsys):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process, where numpy is loaded."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # --help and argparse's usage errors
        code = exc.code
    return (code, *capsys.readouterr())


class TestLazyExports:
    def test_every_export_is_its_home_modules_object(self):
        for name in fracint.__all__:
            value = getattr(fracint, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
            # the errors and gamma are bound on import; every other export is read through
            assert (name in vars(fracint)) == (name not in fracint._HOMES), name
        assert fracint.compose is sys.modules["fracint.operator"].compose

    def test_a_name_rebound_in_its_home_module_reads_the_same_through_the_package(self, monkeypatch):
        # what a tracer does: it wraps a function in its home module and later puts it back
        transforms = sys.modules["fracint.transforms"]
        original = transforms.make_transform

        def wrapped(*args):
            return original(*args)

        with monkeypatch.context() as patch:
            patch.setattr(transforms, "make_transform", wrapped)
            assert fracint.make_transform is wrapped
        assert fracint.make_transform is original

    def test_the_benchmark_tracer_leaves_no_wrapper_behind(self):
        # an export first read while the tracer is installed is its wrapper, and after
        # uninstall the original again
        code = (
            "import fracint\n"
            "from bench.tracing import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "traced = fracint.make_transform\n"
            "tracer.uninstall()\n"
            "now = fracint.make_transform\n"
            "print(traced is now, now is fracint.transforms.make_transform)\n"
        )
        assert python(code, path=os.pathsep.join((SRC, os.path.dirname(SRC)))) == "False True\n"

    @pytest.mark.parametrize("imports", (
        "import fracint; import fracint.transforms; import fracint.gamma",
        "import fracint.gamma; import fracint.transforms",
    ))
    def test_gamma_stays_the_function_after_its_submodule_is_imported(self, imports):
        code = (
            f"{imports}\n"
            "import types\n"
            "from fracint import gamma\n"
            "assert gamma is fracint.gamma and not isinstance(gamma, types.ModuleType)\n"
            "print(gamma(5.0))\n"
        )
        assert python(code) == "24.0\n"

    def test_star_import_and_dir_cover_all(self):
        namespace = {}
        exec("from fracint import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(fracint.__all__)
        # dir() lists the names that are not loaded yet, and loads none of them
        code = (
            "import sys, fracint\n"
            "print(set(fracint.__all__) <= set(dir(fracint)), 'numpy' in sys.modules)\n"
        )
        assert python(code) == "True False\n"

    def test_an_unknown_name_raises_the_standard_attribute_error(self):
        with pytest.raises(AttributeError) as raised:
            fracint.no_such_name
        with pytest.raises(AttributeError) as plain:
            types.ModuleType("fracint").no_such_name
        assert str(raised.value) == str(plain.value) == "module 'fracint' has no attribute 'no_such_name'"
        assert not hasattr(fracint, "no_such_name")

    def test_submodules_still_import_by_name(self):
        # ``from fracint import cli`` falls back to the submodule when __getattr__ refuses the name
        assert python("from fracint import cli, strips; print(cli.__name__, strips.__name__)") == (
            "fracint.cli fracint.strips\n"
        )


def test_import_fracint_loads_no_numpy():
    assert python("import sys, fracint; print('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([name, "--help"] for name in SUBCOMMANDS),
    ["gamma", "--x", "0.5"],
    [],
    ["bogus"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_gamma_and_usage_errors_load_no_numpy(argv, tmp_path, monkeypatch, capsys):
    *result, numpy_loaded = console(argv, tmp_path)
    assert not numpy_loaded
    assert tuple(result) == in_process(argv, monkeypatch, capsys)
    assert result[0] == (2 if argv in ([], ["bogus"]) else 0)


@pytest.mark.parametrize("argv", [
    ["compute", "--alpha", "0.5,1", "--t", "2,3", "--method", "direct"],
    ["strips", "--f", "pow:1:1.5", "--alpha", "0.8", "--t", "10", "--n-strips", "5"],
], ids=lambda argv: argv[0])
def test_computing_subcommands_load_numpy_and_print_the_same_bytes(argv, tmp_path, monkeypatch, capsys):
    def comparable(text):  # compute's last column is its timing
        return re.sub(r",[^,\n]*\n", "\n", text) if argv[0] == "compute" else text

    code, out, err, numpy_loaded = console(argv, tmp_path)
    expected_code, expected_out, expected_err = in_process(argv, monkeypatch, capsys)
    assert numpy_loaded
    assert (code, err) == (expected_code, expected_err) == (0, "")
    assert comparable(out) == comparable(expected_out) and out.count("\n") > 4
