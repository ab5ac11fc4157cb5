"""Refactor gate: the README examples still run as shown.

tests/output_gate.py runs each `kgo ...` line of the bash block under
"## CLI" in README.md, in csv, json and tsv, in a fresh interpreter and
compares its stdout with tests/golden/readme_<i>_<subcommand>.<txt|json|tsv>;
it also checks exit codes, error texts and start-up imports (see its
docstring).  Each of its cases is also a test here.  A change that alters
this output on purpose re-records the file and says so in CHANGES.md.
The Python block under "Library example" is executed as written.
tests/library_gate.py pins the numbers and refusals of every public
function; each function of it is also a test here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import kgo
import library_gate
import output_gate

ROOT = Path(__file__).resolve().parents[1]


def test_readme_has_the_six_examples():
    assert len(output_gate.readme_commands()) == 6


def test_only_the_cli_block_holds_readme_commands():
    readme = "\n".join([
        "# kgo", "kgo prose wrapped to the start of a line", "## CLI",
        "kgo spectrum in prose before the block", "```bash", "# a comment",
        "kgo spectrum --b 0.1 --n 0", "```", "kgo table in prose after the block",
        "## Tests", "```bash", "kgo table --b 0.1 --n-max 3", "```", ""])
    assert output_gate.readme_commands(readme) == [("spectrum", "--b", "0.1", "--n", "0")]


def test_python_dash_s_starts_without_typing():
    """The gate's `python -S` cases check that no start loads typing; without
    site nothing has loaded it before kgo starts, so they check every import."""
    probe = "import sys; print('typing' in sys.modules)"
    assert subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, check=True).stdout == "False\n"
    assert [case.argv for case in output_gate.cases() if case.flags == ("-S",)] == \
        output_gate.readme_commands()


def test_python_dev_mode_cases_fail_on_any_warning():
    """The gate's `python -X dev -W error` cases run every README command where
    a warning, even a ResourceWarning that the default filters hide, ends the
    process."""
    probe = "import warnings; warnings.warn('late', ResourceWarning)"
    flags = ("-X", "dev", "-W", "error")
    assert subprocess.run([sys.executable, *flags, "-c", probe],
                          capture_output=True).returncode == 1
    assert [case.argv for case in output_gate.cases() if case.flags == flags] == \
        output_gate.readme_commands()


def test_readme_library_example_runs():
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md library example", "exec"), {})


@pytest.mark.parametrize("case", list(output_gate.cases()), ids=lambda case: case.name)
def test_output_gate_case_holds(case):
    assert output_gate.check(case) is None


def test_output_gate_stops_at_the_first_failing_case(monkeypatch, capsys):
    held = output_gate.Case("held", "import kgo, kgo.cli\nos._exit(0)", (), 0, b"", b"")
    wrong = held._replace(name="wrong code", code=3)
    monkeypatch.setattr(output_gate, "cases", lambda: iter([held]))
    assert output_gate.main() == 0
    assert capsys.readouterr() == ("output gate: 1 cases hold\n", "")
    monkeypatch.setattr(output_gate, "cases", lambda: iter([held, wrong, wrong._replace(name="later")]))
    assert output_gate.main() == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("output gate: wrong code: exit code 0, want 3; ")
    assert "later" not in err


def test_start_report_names_the_modules_each_start_loads():
    rows = output_gate.start_report().splitlines()[2:]
    assert [row.split("`")[1].split()[0] for row in rows] == [
        "table", "spectrum", "wavefn", "oracle", "veff", "--help"]
    start = ", ".join(output_gate.START)
    assert rows[1].split(" | ")[1] == start
    assert rows[5].split(" | ")[1] == start.replace("kgo.errors", "kgo.errors, kgo.helptext")


def test_library_gate_covers_every_public_function():
    assert library_gate.FUNCTIONS == [
        name for name in kgo.__all__
        if not (isinstance(getattr(kgo, name), type) and issubclass(getattr(kgo, name), Exception))]


@pytest.mark.parametrize("name", library_gate.FUNCTIONS)
def test_library_gate_function_holds(name):
    assert library_gate.check(name) is None
