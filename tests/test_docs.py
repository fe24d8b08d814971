import argparse
import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import conftest
import shiftfold
from shiftfold import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_session_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_readme_command_table_matches_the_parser():
    """Each `shiftfold …` line under "## Command line" names a subcommand and its
    bracketed options, which must be the subparser's own, and every subcommand has one."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    listed = {}
    for line in block.splitlines():
        if line.startswith("shiftfold "):
            name = line.split()[1]
            listed[name] = set(re.findall(r"\[(--[\w-]+)", line))
    actions = cli.build_parser()._actions
    subparsers = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    assert set(listed) == set(subparsers.choices)
    for name, sub in subparsers.choices.items():
        options = {s for a in sub._actions for s in a.option_strings if s.startswith("--")}
        assert listed[name] == options - {"--output", "--help"}, name


def test_readme_library_tour_names_real_code():
    """Each backticked bare name between "## Library tour" and "A quick session" is an
    attribute of some `shiftfold` module or of `tests/conftest.py`, home of the test oracles."""
    tour = README.read_text().split("## Library tour", 1)[1].split("A quick session", 1)[0]
    names = set(re.findall(r"`([A-Za-z_]\w*)`", tour))
    submodules = pkgutil.iter_modules(shiftfold.__path__)
    modules = [conftest] + [importlib.import_module(f"shiftfold.{m.name}") for m in submodules]
    assert names
    assert [name for name in sorted(names) if not any(hasattr(m, name) for m in modules)] == []
