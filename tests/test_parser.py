"""A process builds one ``fracint`` parser tree, on its first run, and every
``build_parser`` call returns a copy of its top-level parser.

``_parser_before`` is a verbatim copy of the parser that built all 15 parsers
on every run.  Each argv below goes through ``cli.main`` once with each parser:
stdout, stderr, the exit code and every namespace parsed must be the same.
This pins the help, usage, error and namespace bytes the one tree must keep.
"""

import argparse
import json

import pytest

from fracint import cli
from fracint.integrand import Integrand

import _parser_before as before

NAMES = [row[0] for row in cli.COMMANDS]

ERRORS = [[], ["--help"], ["-h"], ["bogus"], ["--bogus"], ["--f", "pow:1:1"]] + [
    [name, *tail] for name in NAMES for tail in (
        ["--help"], [], ["--method", "bogus"], ["--bogus"], ["--out"], ["--t", "x"],
    )
]

PARSED = [
    ["gamma", "--x", "0.5"],
    ["transform", "--alpha", "0.5", "--t", "2", "--samples", "7", "--out", "x.csv"],
    ["compute", "--f", "pow:2:1.5", "--alpha", "0.3,0.6", "--t", "1", "--method", "cavalieri",
     "--n", "50", "--budget", "99", "--abs-tol", "1e-8", "--rel-tol", "1e-9"],
    ["compute", "--f", "sin:1:1"],
    ["compute", "--a", "1"],
    ["compare", "--tol", "0.5"],
    ["strips", "--alpha", "0.5", "--t", "2", "--n", "3", "--svg", "s.svg"],
    ["regions", "--alpha", "0,1", "--samples", "9"],
    ["curves", "--t-start", "1", "--t-stop", "2", "--t-step", "0.5", "--marker-t", "1,2",
     "--method", "direct"],
    ["semigroup", "--alpha", "0.3", "--beta", "0.4", "--t", "1", "--grid", "9"],
]

# a config file per subcommand that takes one, plus an explicit flag that must win
CONFIGS = {
    "compute": "abs_tol = 1e-7\nbudget = 321\nn = 64\n",
    "compare": "tolerance = 0.25\nrel_tol = 1e-6\n",
    "regions": "budget = 321\nabs_tol = 1e-7\n",
    "curves": "n = 64\nabs_tol = 1e-7\n",
    "semigroup": "rel_tol = 1e-6\nn = 64\n",
}


def digest(namespace):
    """The namespace's values, with integrands by what they are rather than by identity."""
    values = dict(vars(namespace))
    del values["parser"]
    for key, value in values.items():
        if isinstance(value, Integrand):
            values[key] = (value.label, value.power, value.monotone)
    return values


def outcome(build, argv, monkeypatch, capsys):
    """stdout, stderr, exit code and parsed namespaces of ``cli.main(argv)`` with ``build``.

    The handler of every namespace any parser returns is replaced by one that does
    nothing, so only the parse runs, the subcommand parser's --config reparse
    included.  Both stubs are undone before this returns.
    """
    namespaces = []
    parse = argparse.ArgumentParser.parse_args

    def parse_args(self, args=None, namespace=None):
        namespace = parse(self, args, namespace)
        namespaces.append(digest(namespace))
        namespace.handler = lambda args: None
        return namespace

    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", build)
        patch.setattr(argparse.ArgumentParser, "parse_args", parse_args)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = capsys.readouterr()
    return out, err, code, namespaces


def assert_same_as_before(argv, monkeypatch, capsys):
    now = outcome(cli.build_parser, argv, monkeypatch, capsys)
    assert now == outcome(before.build_parser, argv, monkeypatch, capsys)
    return now


@pytest.mark.parametrize("argv", ERRORS, ids=" ".join)
def test_help_usage_and_errors_match_the_eager_parser(argv, monkeypatch, capsys):
    _, _, code, _ = assert_same_as_before(argv, monkeypatch, capsys)
    assert code in (0, 2)  # a subcommand whose flags are all optional parses []


@pytest.mark.parametrize("argv", PARSED, ids=" ".join)
def test_namespaces_match_the_eager_parser(argv, monkeypatch, capsys):
    assert_same_as_before(argv, monkeypatch, capsys)


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_config_reparse_matches_the_eager_parser(command, tmp_path, monkeypatch, capsys):
    config = tmp_path / "fracint.conf"
    config.write_text(CONFIGS[command])
    argv = {"semigroup": ["semigroup", "--alpha", "0.3", "--beta", "0.4", "--t", "1"]}.get(
        command, [command]
    )
    _, _, code, namespaces = assert_same_as_before(
        argv + ["--budget", "7", "--config", str(config)], monkeypatch, capsys
    )
    assert code == 0
    assert namespaces[-1]["budget"] == 7  # the explicit flag wins over the file
    assert namespaces[-1] != namespaces[0]


def test_config_key_another_subcommand_has_matches_the_eager_parser(
    tmp_path, monkeypatch, capsys
):
    config = tmp_path / "fracint.conf"
    config.write_text("n = 64\n")
    _, err, code, _ = assert_same_as_before(
        ["regions", "--config", str(config)], monkeypatch, capsys
    )
    assert code == 2 and "unknown config key 'n' for fracint regions" in err


# the prog of every parser in the tree, in the order the first run constructs them
TREE = ["fracint"] + [f"fracint {name}" for name in NAMES]

# the shortest argv that parses, per subcommand
MINIMAL = {name: [name] for name in NAMES} | {
    "gamma": ["gamma", "--x", "0.5"],
    "transform": ["transform", "--alpha", "0.5", "--t", "1"],
    "strips": ["strips", "--alpha", "0.5", "--t", "1"],
    "semigroup": ["semigroup", "--alpha", "0.3", "--beta", "0.4", "--t", "1"],
}


@pytest.fixture
def built(monkeypatch):
    """The prog of every ArgumentParser constructed, in order, in a process with no tree yet."""
    cli._fracint_parser.cache_clear()
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return progs


def test_the_first_run_builds_the_whole_tree(built, tmp_path):
    out = tmp_path / "transform.csv"
    assert cli.main(["transform", "--alpha", "0.5", "--t", "2", "--samples", "3",
                     "--out", str(out)]) == 0
    assert built == TREE


def test_a_config_run_builds_the_tree_once(built, tmp_path):
    config = tmp_path / "fracint.conf"
    config.write_text("tolerance = 0.5\n")
    out = tmp_path / "compare.json"
    assert cli.main(["compare", "--alpha", "0.5", "--t", "1", "--n", "10", "--config",
                     str(config), "--out", str(out)]) == 0
    assert built == TREE


def test_a_second_identical_run_builds_no_parser(built, tmp_path):
    out = tmp_path / "compare.json"
    argv = ["compare", "--alpha", "0.5", "--t", "1", "--n", "10", "--out", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    del built[:]
    assert cli.main(argv) == 0
    assert built == []
    assert out.read_bytes() == first


def test_a_config_run_never_changes_the_subcommand_parser(tmp_path, monkeypatch):
    """The file seeds the parse: the process's compare parser keeps its built-in
    tolerance default through every parse of a --config run and while its handler,
    which got the file's value, runs."""
    config = tmp_path / "fracint.conf"
    config.write_text("tolerance = 0.25\n")
    cli._fracint_parser.cache_clear()
    compare = cli.build_parser().parse_args(["compare"]).parser
    seen = []
    parse = argparse.ArgumentParser.parse_known_args

    def parse_known_args(self, *args, **kwargs):
        seen.append(("parse", compare.get_default("tolerance")))
        return parse(self, *args, **kwargs)

    def write_text(path, text):
        seen.append(("handler", compare.get_default("tolerance"), json.loads(text)["tolerance"]))

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parse_known_args)
    monkeypatch.setattr(cli, "write_text", write_text)
    assert cli.main(["compare", "--alpha", "0.5", "--t", "1", "--n", "10",
                     "--config", str(config)]) == 0
    assert seen[-1] == ("handler", 1e-3, 0.25)
    assert {value for _, value, *_ in seen} == {1e-3}
    assert len(seen) >= 4  # the top-level parse, its subcommand parse, the reparse, the handler
    assert cli.build_parser().parse_args(["compare"]).parser is compare


@pytest.mark.parametrize("config_first", [True, False], ids=["config-first", "plain-first"])
def test_a_config_applies_only_to_its_own_run(config_first, tmp_path, monkeypatch, capsys):
    """A --config run and the same argv without it, in either order, each give the
    namespace and bytes of that argv in a fresh process: the subcommand parser both
    reuse keeps no default from the file."""
    config = tmp_path / "fracint.conf"
    config.write_text("tolerance = 1e-30\nrel_tol = 1e-6\nn = 20\n")
    plain = ["compare", "--alpha", "0.5", "--t", "1", "--n", "10"]
    argvs = {"plain": plain, "config": plain + ["--config", str(config)]}
    build = cli.build_parser

    def run(argv):
        """The parse outcome of ``argv``, then the bytes a real run of it writes."""
        parsed = outcome(build, argv, monkeypatch, capsys)
        monkeypatch.setattr(cli, "build_parser", build)
        out = tmp_path / "compare.json"
        code = cli.main(argv + ["--out", str(out)])
        return parsed, code, out.read_bytes()

    expected = {}
    for name, argv in argvs.items():
        cli._fracint_parser.cache_clear()
        expected[name] = run(argv)
    assert expected["config"] != expected["plain"]
    cli._fracint_parser.cache_clear()
    for name in ("config", "plain") if config_first else ("plain", "config"):
        assert run(argvs[name]) == expected[name], name


def test_top_level_help_lists_every_subcommand(built, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    assert built == TREE
    out = capsys.readouterr().out
    assert "{" + ",".join(NAMES) + "}" in out
    words = " ".join(out.split())  # a long help line wraps
    for name, _, help_text, *_ in cli.COMMANDS:
        assert f" {name} {help_text} " in words
    assert len(NAMES) == 8


def test_each_call_returns_its_own_copy():
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    first.parse_args = lambda args=None, namespace=None: None
    assert "parse_args" not in vars(second)
    assert "parse_args" not in vars(cli.build_parser())


@pytest.mark.parametrize("name", NAMES)
def test_every_copy_shares_the_subcommand_parsers(name):
    parsers = {id(cli.build_parser().parse_args(MINIMAL[name]).parser) for _ in range(3)}
    assert len(parsers) == 1


def test_wrapping_each_copy_never_nests(monkeypatch, capsys):
    """A caller that wraps the parse_args of every parser build_parser returns, as a
    tracer does, wraps a fresh copy each run: 2000 runs nest no wrapper."""
    build = cli.build_parser
    depth, entered = [], []

    def wrapped_build():
        parser = build()
        parse_args = parser.parse_args

        def traced(*args, **kwargs):
            depth.append(1)
            entered.append(len(depth))
            try:
                return parse_args(*args, **kwargs)
            finally:
                depth.pop()

        parser.parse_args = traced
        return parser

    monkeypatch.setattr(cli, "build_parser", wrapped_build)
    for _ in range(2000):
        assert cli.main(["gamma", "--x", "0.5"]) == 0
    assert entered == [1] * 2000
    assert capsys.readouterr().out == "1.77245385090552\n" * 2000
