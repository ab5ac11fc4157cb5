"""Refactor gate: the README example commands print exactly the recorded bytes.

Each `kgo ...` line of README.md runs in-process and its stdout is compared
with tests/golden/readme_<i>_<subcommand>.txt.  A change that alters this
output on purpose re-records the file and says so in CHANGES.md.
"""

import contextlib
import io
from pathlib import Path

import pytest

from kgo.cli import main

ROOT = Path(__file__).resolve().parents[1]
README_COMMANDS = [line.split()[1:]
                   for line in (ROOT / "README.md").read_text().splitlines()
                   if line.startswith("kgo ")]


def test_readme_has_the_six_examples():
    assert len(README_COMMANDS) == 6


@pytest.mark.parametrize("index", range(len(README_COMMANDS)))
def test_readme_example_stdout_matches_golden(index):
    argv = README_COMMANDS[index]
    golden = ROOT / "tests" / "golden" / f"readme_{index + 1}_{argv[0]}.txt"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue().encode() == golden.read_bytes()
