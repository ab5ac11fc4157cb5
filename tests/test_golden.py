"""Refactor gate: the README examples still run as shown.

tests/output_gate.py runs each `kgo ...` line of README.md, in csv, json and
tsv, in a fresh interpreter and compares its stdout with
tests/golden/readme_<i>_<subcommand>.<txt|json|tsv>; it also checks exit
codes, error texts and start-up imports (see its docstring).  Each of its
cases is also a test here.  A change that alters this output on purpose
re-records the file and says so in CHANGES.md.
The Python block under "Library example" is executed as written.
"""

from pathlib import Path

import pytest

import output_gate

ROOT = Path(__file__).resolve().parents[1]


def test_readme_has_the_six_examples():
    commands = [line for line in (ROOT / "README.md").read_text().splitlines()
                if line.startswith("kgo ")]
    assert len(commands) == 6


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
