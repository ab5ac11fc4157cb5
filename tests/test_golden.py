"""Refactor gate: the README examples still run as shown.

Each `kgo ...` line of README.md runs in-process and its stdout is compared
with tests/golden/readme_<i>_<subcommand>.txt.  The same command with
`--format json` and `--format tsv` appended is compared with the .json and
.tsv file of that name.  A change that alters this output on purpose
re-records the file and says so in CHANGES.md.  The Python block under
"Library example" is executed as written.
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
# output format -> (extra argv, golden file suffix)
FORMATS = {"csv": ([], "txt"), "json": (["--format", "json"], "json"),
           "tsv": (["--format", "tsv"], "tsv")}


def test_readme_has_the_six_examples():
    assert len(README_COMMANDS) == 6


@pytest.mark.parametrize("output_format", FORMATS)
@pytest.mark.parametrize("index", range(len(README_COMMANDS)))
def test_readme_example_stdout_matches_golden(index, output_format):
    extra, suffix = FORMATS[output_format]
    argv = README_COMMANDS[index] + extra
    golden = ROOT / "tests" / "golden" / f"readme_{index + 1}_{argv[0]}.{suffix}"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue().encode() == golden.read_bytes()


def test_readme_library_example_runs():
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md library example", "exec"), {})
