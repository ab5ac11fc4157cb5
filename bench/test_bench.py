"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench -q
"""

import json
import sys
import types
from functools import partial
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads
from workloads import Invocation

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

SMALL = [
    workloads.make_round("lookups", 1)[12],  # README table, csv
    workloads.make_round("lookups", 1)[4],   # spectrum, json
    workloads.make_round("lookups", 1)[13],  # veff, csv
    Invocation(("oracle", "--b", "0.001", "--count", "3", "--format", "json",
                "--decimals", "20"), partial(checks.oracle, b=0.001, count=3, decimals=20)),
    Invocation(("wavefn", "--n", "3", "--lambda", "2", "--x-max", "8", "--points", "401"),
               partial(checks.wavefn, n=3, x_max=8.0, points=401)),
]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # children find kgo through PYTHONPATH=src


def corrupt(text):
    """Scale one value in the middle data row by 1.001 and shift it by 1e-3."""
    if text.startswith("{"):
        payload = json.loads(text)
        row = payload["rows"][len(payload["rows"]) // 2]
        key = list(row)[-1]
        row[key] = row[key] * 1.001 + 1e-3
        return json.dumps(payload)
    sep = "\t" if "\t" in text.split("\n")[0] else ","
    lines = text.split("\n")
    cells = lines[len(lines) // 2].split(sep)
    cells[-1] = repr(float(cells[-1]) * 1.001 + 1e-3)
    lines[len(lines) // 2] = sep.join(cells)
    return "\n".join(lines)


def kgo(inv):
    return run.run_child([sys.executable, "-m", "kgo", *inv.argv], run.child_env())


@pytest.mark.parametrize("inv", SMALL, ids=lambda inv: inv.argv[0])
def test_check_accepts_output_and_catches_corrupted_row(inv):
    child = kgo(inv)
    reason, _ = checks.outcome(inv.check, child.returncode, child.stdout, child.stderr)
    assert reason is None
    reason, _ = checks.outcome(inv.check, child.returncode, corrupt(child.stdout), child.stderr)
    assert reason


def test_missing_row_and_broken_parity_are_caught():
    table, wavefn = SMALL[0], SMALL[4]
    text = kgo(table).stdout
    lines = text.split("\n")
    with pytest.raises(checks.CheckFailed, match="rows"):
        table.check("\n".join(lines[:5] + lines[6:]))
    text = kgo(wavefn).stdout
    lines = text.split("\n")
    x, psi = lines[10].split(",")
    lines[10] = f"{x},{float(psi) * (1 + 1e-4):.6g}"
    with pytest.raises(checks.CheckFailed, match="parity"):
        wavefn.check("\n".join(lines))


def test_corrupted_rows_and_nonzero_exits_count_as_failed(monkeypatch):
    good = SMALL[0]
    round_ = [
        good,
        Invocation(good.argv, lambda text: good.check(corrupt(text))),
        Invocation(("spectrum", "--b", "-1", "--n", "0"), good.check),  # usage error, exit 2
        Invocation(("oracle", "--b", "1e5", "--count", "5"), good.check),  # BudgetExceeded, exit 1
    ]
    monkeypatch.setattr(workloads, "make_round", lambda workload, seed: round_)
    args = type("Args", (), {"workload": "lookups", "seed": 0, "seconds": 0})
    lines = []
    result = run.end_to_end(args, run.child_env(), lines.append)
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 3, False)
    assert any("exit 2" in ln for ln in lines) and any("exit 1" in ln for ln in lines)
    assert any("failed_frac 0.75" in ln for ln in lines)
    assert set(result["metrics"]) == set(run.END_TO_END)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_rounds_repeat_for_a_seed(workload):
    argv = [inv.argv for inv in workloads.make_round(workload, 7)]
    assert argv == [inv.argv for inv in workloads.make_round(workload, 7)]
    assert argv != [inv.argv for inv in workloads.make_round(workload, 8)]


def test_trace_counts_repeat_for_a_seed():
    cmd = [sys.executable, str(ROOT / "bench" / "tracer.py"), "--workload", "lookups",
           "--seed", "5"]
    first, second = (json.loads(run.run_child(cmd, run.child_env()).stdout) for _ in range(2))
    counts = [k for k, unit in tracer.LAYER_METRICS.items() if unit != "s"]
    assert [first["metrics"][k] for k in counts] == [second["metrics"][k] for k in counts]
    assert first["metrics"]["cli.rows"] > 0 and first["failures"] == []


def test_tracer_spans_counters_and_restore():
    import kgo.cli
    from kgo import oracle, spectrum, wavefn

    modules = {"cli": kgo.cli, "spectrum": spectrum, "wavefn": wavefn, "oracle": oracle}
    original = oracle.sturm_count
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        t.install(modules)
        try:
            tracer.run_pass(kgo.cli, [SMALL[3]], t)
        finally:
            t.restore()
        counts.append(dict(t.counts))
        selfs = t.self_times()
        assert selfs["oracle.lowest_eigenvalues"] > 0 and min(selfs.values()) >= 0
        names = {span[0]: span for span in t.spans}
        parent = t.spans[names["oracle.lowest_eigenvalues"][3]][0]
        assert parent == "oracle.oracle_energies"
    assert oracle.sturm_count is original
    assert counts[0] == counts[1]
    assert counts[0]["oracle.levels"] == 3 and counts[0]["oracle.sturm_calls"] > 3


def test_tracer_reports_names_the_program_no_longer_has():
    t = tracer.Tracer()
    t.install(dict.fromkeys(("cli", "spectrum", "wavefn", "oracle"), types.ModuleType("gone")))
    t.restore()
    assert len(t.missing) == len(tracer.TIMED) + len(tracer.COUNTED)
