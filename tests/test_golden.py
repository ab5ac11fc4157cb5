"""Refactor gate: the README examples still run as shown.

Each `kgo ...` line of README.md runs in-process and its stdout is compared
with tests/golden/readme_<i>_<subcommand>.txt.  The same command with
`--format json` and `--format tsv` appended is compared with the .json and
.tsv file of that name.  A change that alters this output on purpose
re-records the file and says so in CHANGES.md.  The Python block under
"Library example" is executed as written.  Each README command and each
`--help`, and each command of a round of the oracle-sweep and lookups
benchmark workloads, also runs as `python -m kgo` in a fresh interpreter,
which must not import the modules kept off the start-up path.  The console
script named in pyproject.toml and `python -m kgo` enter through one function,
and give the same bytes and exit codes.
"""

import contextlib
import importlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kgo import __main__ as kgo_main
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


STARTUP_FORBIDDEN = {"dataclasses", "inspect", "json", "argparse"}


def _imported(import_log):
    """The top-level packages of the modules that a `-X importtime` log names.
    The log leaves out a package that importlib.import_module loads, but not
    its submodules, nor the modules that the package itself imports."""
    return {line.rsplit("|", 1)[1].strip().split(".")[0]
            for line in import_log.splitlines() if line.startswith("import time:")}


def _bench_argvs(workload, seed):
    """The argvs of one round of a workload of the benchmark (bench/workloads.py)."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return [list(invocation.argv) for invocation in workloads.make_round(workload, seed)]


def test_startup_path_imports_no_dataclasses_inspect_or_unneeded_json():
    # each cost a kgo process milliseconds before it did any work; the json
    # writer quotes its own texts, and cli.parse_args writes every help text
    # and usage error itself
    helps = [["--help"]] + [[command, "--help"]
                            for command in ("table", "spectrum", "wavefn", "oracle", "veff")]
    usage_error = ["table", "--b", "0.1", "--n", "5"]
    runs = (helps + [usage_error]
            + [argv + extra for argv in README_COMMANDS for extra, _ in FORMATS.values()]
            + _bench_argvs("oracle-sweep", 1) + _bench_argvs("lookups", 1))
    loaded = {}
    for argv in runs:  # an error line shares stderr with the log, which _imported skips
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "kgo", *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        found = sorted(_imported(proc.stderr) & STARTUP_FORBIDDEN)
        if proc.returncode != (2 if argv is usage_error else 0) or found:
            loaded[" ".join(argv)] = (proc.returncode, found)
    assert len(runs) == 6 + 1 + 18 + 12 + 16 and loaded == {}


# the console script that installing kgo writes: it calls [project.scripts]'s entry
_SCRIPT = "import sys\nfrom {0} import {1}\nsys.exit({1}())\n"


def test_module_and_script_entries_give_the_same_bytes_and_codes():
    module, function = re.search(r'^kgo = "([\w.]+):(\w+)"$',
                                 (ROOT / "pyproject.toml").read_text(), re.M).groups()
    assert getattr(importlib.import_module(module), function) is kgo_main.entry  # one entry
    script = _SCRIPT.format(module, function)
    argvs = README_COMMANDS + [["table", "--b", "0.1", "--n", "5"],
                               ["spectrum", "--b", "1e308", "--n", "1000000"]]
    codes = []
    for argv in argvs:
        module_run, script_run = (subprocess.run([sys.executable, *entry, *argv],
                                                 capture_output=True)
                                  for entry in (["-m", "kgo"], ["-c", script]))
        assert (script_run.returncode, script_run.stdout, script_run.stderr) == (
            module_run.returncode, module_run.stdout, module_run.stderr)
        codes.append(module_run.returncode)
    assert codes == [0] * 6 + [2, 1]
