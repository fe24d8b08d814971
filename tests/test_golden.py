"""Golden CLI corpus: every subcommand on fixed inputs, compared byte for byte.

Each case in `golden/cases.json` names an argv and the input files it reads.
The case runs `cli.main` in an empty directory holding copies of those
inputs, with bare file names, because the `decompose` manifest prints the
path it was given.  Exit code, stdout, stderr and every file the command
wrote must equal the recorded bytes under `golden/expected/<case>/`.

The corpus is a fixed record of the CLI's behaviour.  Re-record it only for
a deliberate output change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from shiftfold.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_case(case: dict, workdir: Path) -> dict[str, bytes]:
    """Run one case in `workdir`; map each recorded name to its bytes."""
    for name in case["inputs"]:
        shutil.copyfile(INPUTS / name, workdir / name)
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(case["argv"]))
    finally:
        os.chdir(previous)
    result = {
        "exit_code": f"{code}\n".encode(),
        "stdout": out.getvalue().encode(),
        "stderr": err.getvalue().encode(),
    }
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir).as_posix()
        if path.is_file() and rel not in case["inputs"]:
            result[f"files/{rel}"] = path.read_bytes()
    return result


def recorded(name: str) -> dict[str, bytes]:
    root = EXPECTED / name
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden(case, tmp_path):
    got = run_case(case, tmp_path)
    want = recorded(case["name"])
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_every_subcommand_is_covered():
    from shiftfold.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {c["argv"][0] for c in CASES} == set(sub.choices)


if __name__ == "__main__":
    if EXPECTED.exists():
        shutil.rmtree(EXPECTED)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for key, data in run_case(case, Path(tmp)).items():
                target = EXPECTED / case["name"] / key
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
    print(f"recorded {len(CASES)} cases under {EXPECTED}", file=sys.stderr)
