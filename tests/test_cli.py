import errno
import hashlib
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import pytest

from kgo import cli, fork, spectrum, wavefn
from kgo.cli import (_JSON_BOOL, COMMANDS, ORACLE_BUDGET, TABLE_BLOCK, TABLE_FORMULA_WARNING,
                     WAVEFN_BUDGET, _Emission, _render, main, parse_args)
from kgo.errors import UsageError
from kgo.params import GridSpec
from kgo.spectrum import PARITY_CHOICES, generate_table
from kgo.wavefn import psi

from test_oracle import (_dying_marshal, assert_a_killed_kgo_leaves_no_process, needs_children,
                         pin_the_child_to_all_works_but_the_first)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_args_table_happy_path():
    ns = parse_args(["table", "--b", "0.1", "--n-max", "3"])
    assert ns.subcommand == "table"
    assert ns.b == [0.1]
    assert ns.n_max == 3
    assert ns.formula == "eq21"
    assert ns.format == "csv"
    assert ns.decimals is None


def test_parse_args_b_list():
    ns = parse_args(["table", "--b", "0.1,0.001,0.0001", "--n-max", "1"])
    assert ns.b == [0.1, 0.001, 0.0001]


def test_parse_args_rejects_bad_formula():
    with pytest.raises(UsageError) as err:
        parse_args(["table", "--b", "0.1", "--n-max", "3", "--formula", "bogus"])
    assert "bogus" in str(err.value)


def test_parse_args_rejects_nonpositive_b():
    with pytest.raises(UsageError) as err:
        parse_args(["spectrum", "--b", "-1", "--n", "0"])
    assert "positive" in str(err.value)


def test_parse_args_rejects_unknown_flag_and_subcommand():
    with pytest.raises(UsageError):
        parse_args(["table", "--b", "0.1", "--n-max", "1", "--frobnicate"])
    with pytest.raises(UsageError):
        parse_args(["transmogrify"])
    with pytest.raises(UsageError):
        parse_args(["oracle", "--b", "0.1"])  # missing --count
    with pytest.raises(UsageError):
        parse_args(["oracle", "--b", "0.1", "--count", "2", "--points", "100"])


def test_main_usage_error_exit_code(capsys):
    code, out, err = _run(capsys, "spectrum", "--b", "-1", "--n", "0")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_main_runtime_error_exit_code_and_no_partial_output(capsys):
    # grid ends inside the potential zero -> runtime failure, nothing emitted
    code, out, err = _run(capsys, "veff", "--b", "1", "--energy", "1",
                          "--x-max", "1")
    assert code == 1
    assert out == ""
    assert err.strip().startswith("kgo: error:")


def test_table_golden_first_row_and_warning(capsys):
    code, out, err = _run(capsys, "table", "--b", "0.1", "--n-max", "3",
                          "--formula", "table", "--decimals", "5")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n,b,e_rel,e_nr_plus_one"
    assert lines[1] == "0,0.1,1.09545,1.05000"
    assert lines[4] == "3,0.1,1.34164,1.35000"
    # header, one row per level, then exactly one warning comment
    assert len(lines) == 6
    assert [line.startswith("#") for line in lines].count(True) == 1
    assert lines[-1].startswith("#")


def test_table_eq21_has_no_warning(capsys):
    code, out, _ = _run(capsys, "table", "--b", "0.1", "--n-max", "0",
                        "--decimals", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "0,0.1,1.04881,1.05000"
    assert not any(line.startswith("#") for line in lines)


def test_output_is_deterministic(capsys):
    argv = ["table", "--b", "0.1,0.001", "--n-max", "5", "--formula", "table"]
    _, first, _ = _run(capsys, *argv)
    _, second, _ = _run(capsys, *argv)
    assert first == second


def _numbers_from_csvish(text, sep):
    values = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        for cell in line.split(sep):
            try:
                values.append(float(cell))
            except ValueError:
                pass
    return values


def test_format_equivalence(capsys):
    for decimals in ([], ["--decimals", "5"]):
        base = ["table", "--b", "0.1,0.001", "--n-max", "4", "--formula", "table",
                *decimals]
        _, csv_out, _ = _run(capsys, *base, "--format", "csv")
        _, tsv_out, _ = _run(capsys, *base, "--format", "tsv")
        _, json_out, _ = _run(capsys, *base, "--format", "json")

        csv_vals = _numbers_from_csvish(csv_out, ",")
        tsv_vals = _numbers_from_csvish(tsv_out, "\t")
        payload = json.loads(json_out)
        json_vals = [float(row[c]) for row in payload["rows"]
                     for c in ("n", "b", "e_rel", "e_nr_plus_one")]

        canon = lambda vals: [repr(v) for v in vals]
        assert canon(csv_vals) == canon(tsv_vals) == canon(json_vals)
        assert payload["warnings"]  # formula=table carries the warning in json too
        for row in payload["rows"]:
            assert type(row["n"]) is int
            assert all(type(row[c]) is float for c in ("b", "e_rel", "e_nr_plus_one"))


def test_wavefn_odd_state_vanishes_at_origin(capsys):
    code, out, _ = _run(capsys, "wavefn", "--n", "1", "--lambda", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,psi"
    row = [line for line in lines[1:] if line.split(",")[0] == "0"]
    assert row and row[0] == "0,0"


def test_wavefn_respects_extent_and_points(capsys):
    code, out, _ = _run(capsys, "wavefn", "--n", "0", "--lambda", "1",
                        "--x-max", "4", "--points", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "-4"
    assert lines[-1].split(",")[0] == "4"


def test_wavefn_builds_its_nodes_once_and_does_not_check_them_again(capsys, monkeypatch):
    # the x column and the half psi runs on were two node lists, and psi
    # checked the grid's own floats once more
    argv = ("wavefn", "--n", "3", "--lambda", "1", "--x-max", "4", "--points", "9")
    rows = _run(capsys, *argv)
    grids, nodes = [], GridSpec.nodes
    monkeypatch.setattr(GridSpec, "nodes", lambda grid: grids.append(grid) or nodes(grid))
    monkeypatch.setattr(wavefn, "real_floats", lambda values: pytest.fail("x checked again"))
    assert _run(capsys, *argv) == rows and rows[0] == 0
    assert grids == [GridSpec(4.0, 9)]


def test_wavefn_work_budget_refuses_a_larger_product_before_any_compute(capsys):
    # 10^6 levels on 10^6 + 1 points would run for hours; one product past the
    # budget is refused too
    for n, points in ((1000000, 1000001), (WAVEFN_BUDGET // 3125 + 1, 3125)):
        code, out, err = _run(capsys, "wavefn", "--n", str(n), "--lambda", "1",
                              "--points", str(points))
        assert code == 1 and out == ""
        assert err == (f"kgo: error: n x points must be at most {WAVEFN_BUDGET}, "
                       f"got {n} x {points} = {n * points}\n")


def test_wavefn_work_budget_accepts_its_largest_product(capsys):
    # so wide a grid puts every node but x = 0 past the underflow bound, where
    # psi is 0 without running the recurrence, so the run is fast
    n, points = WAVEFN_BUDGET // 3125, 3125
    assert n * points == WAVEFN_BUDGET
    code, out, err = _run(capsys, "wavefn", "--n", str(n), "--lambda", "1",
                          "--x-max", "1e6", "--points", str(points))
    assert code == 0 and err == ""
    rows = out.splitlines()[1:]
    assert len(rows) == points
    assert [row for row in rows if row.split(",")[1] != "0"] == [f"0,{psi(n, 0.0, 1.0):.6g}"]


def test_oracle_work_budget_refuses_a_larger_product_before_any_compute(capsys):
    # 999999 levels on 10^6 + 1 points would run for days; one product past
    # the budget is refused too, and so before b = 1e200 overflows the operator
    for b, count, points in (("0.1", 999999, 1000001), ("1e200", 64, 390627),
                             ("1", ORACLE_BUDGET // 390625 + 1, 390625)):
        code, out, err = _run(capsys, "oracle", "--b", b, "--count", str(count),
                              "--points", str(points))
        assert code == 1 and out == ""
        assert err == (f"kgo: error: count x points must be at most {ORACLE_BUDGET}, "
                       f"got {count} x {points} = {count * points}\n")


def test_oracle_work_budget_accepts_its_largest_product(capsys):
    # a bracket tol wider than the Gershgorin bound takes no bisection step,
    # so the run builds the operator and returns each bracket's midpoint
    count, points = ORACLE_BUDGET // 390625, 390625
    assert count * points == ORACLE_BUDGET
    code, out, err = _run(capsys, "oracle", "--b", "1", "--count", str(count),
                          "--points", str(points), "--tol", "1e300")
    assert code == 0 and err == ""
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == [str(n) for n in range(count)]


def test_oracle_reports_small_relative_difference(capsys):
    code, out, _ = _run(capsys, "oracle", "--b", "0.001", "--count", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k_squared,e_oracle,e_eq21,rel_diff"
    rel_diff = float(lines[1].split(",")[-1])
    assert rel_diff <= 2e-3


def test_spectrum_row_values(capsys):
    code, out, _ = _run(capsys, "spectrum", "--b", "0.1", "--n", "0")
    assert code == 0
    assert out.splitlines()[1] == "0,0.1,combined,1.04881"

    _, out, _ = _run(capsys, "spectrum", "--b", "0.1", "--n", "0",
                     "--parity", "odd")
    energy = float(out.splitlines()[1].split(",")[3])
    # default output carries 6 significant digits
    assert energy == pytest.approx(math.sqrt(1.3), abs=5e-6)

    _, out, _ = _run(capsys, "spectrum", "--b", "0.1", "--n", "0",
                     "--expansion", "second-order")
    assert out.splitlines()[1] == "0,0.1,combined,1.04875"


def test_spectrum_binding_column(capsys):
    _, out, _ = _run(capsys, "spectrum", "--b", "0.1", "--n", "0", "--binding")
    header, row = out.splitlines()[:2]
    assert header == "n,b,parity,energy,binding"
    cells = row.split(",")
    assert float(cells[4]) == pytest.approx(math.sqrt(1.1) - 1.0, rel=1e-5)


@pytest.mark.parametrize("expansion", ["exact", "second-order"])
def test_spectrum_binding_column_keeps_its_digits_at_small_b(capsys, expansion):
    # Ebar - 1 would print 0 here; the binding energy is b (n + 1/2) to 6 digits
    _, out, _ = _run(capsys, "spectrum", "--b", "1e-17", "--n", "1", "--binding",
                     "--expansion", expansion)
    assert out.splitlines()[1] == "1,1e-17,combined,1,1.5e-17"


def test_veff_flag_in_comment_and_json(capsys):
    code, out, _ = _run(capsys, "veff", "--b", "1", "--energy", "1",
                        "--x-max", "5", "--points", "11")
    assert code == 0
    assert "# unbounded_below_detected: true" in out.splitlines()

    _, out, _ = _run(capsys, "veff", "--b", "1", "--energy", "1",
                     "--x-max", "5", "--points", "11", "--format", "json")
    payload = json.loads(out)
    assert payload["unbounded_below_detected"] is True
    assert {"x", "v_eff"} == set(payload["rows"][0])


def test_json_texts_are_quoted_as_json_dumps_quotes_them(capsys):
    # the json writer quotes its column names, parities, warnings and note
    # keys by hand, and writes its note values (bools) by hand
    argvs = [("table", "--b", "0.1", "--n-max", "1", "--formula", "table"),
             *(("spectrum", "--b", "0.1", "--n", "1", "--parity", parity, "--binding")
               for parity in PARITY_CHOICES),
             ("wavefn", "--n", "1", "--lambda", "1", "--points", "5"),
             ("oracle", "--b", "0.1", "--count", "1", "--points", "51"),
             ("veff", "--b", "1", "--energy", "1", "--x-max", "5", "--points", "5")]
    texts = set()
    for argv in argvs:
        code, out, _ = _run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        texts |= set(payload) | set(payload["warnings"])
        for row in payload["rows"]:
            texts |= set(row) | {cell for cell in row.values() if isinstance(cell, str)}
    assert {*PARITY_CHOICES, TABLE_FORMULA_WARNING, "unbounded_below_detected"} <= texts
    assert [text for text in texts if json.dumps(text) != '"' + text + '"'] == []
    assert all(json.dumps(flag) == text for flag, text in _JSON_BOOL.items())


def _run_no_warnings(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the run
        return _run(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("spectrum", "--b", "1e308", "--n", "1000000"),
    ("table", "--b", "1e308", "--n-max", "2"),
    ("spectrum", "--b", "1e300", "--n", "3", "--expansion", "second-order"),
    ("wavefn", "--n", "4", "--lambda", "1", "--x-max", "1e308", "--points", "5"),
    ("oracle", "--b", "1e200", "--count", "1"),     # lam**2 overflows
    ("veff", "--b", "1e300", "--energy", "1e300"),  # E m u^2 overflows
    ("table", "--b", "1e308", "--n-max", "2", "--formula", "table"),
    ("veff", "--b", "1", "--energy", "1e300"),      # E x^2 overflows: nan profile
    ("oracle", "--b", "1e154", "--count", "1"),     # the coupling 1/h^4 overflows
    ("wavefn", "--n", "1000001", "--lambda", "1", "--points", "3"),  # n > MAX_LEVEL
    ("oracle", "--b", "0.1", "--count", "1000002"),  # count > points - 2
    # the default box overflows: the error names it, not a "grid extent inf"
    ("wavefn", "--n", "0", "--lambda", "1e-320"),
    ("oracle", "--b", "1e-320", "--count", "2"),
    ("veff", "--b", "1e-320", "--energy", "1"),
    ("veff", "--b", "2e-308", "--energy", "1"),  # x* is finite, 2.5 x* is not
])
def test_out_of_range_inputs_give_one_error_line(capsys, argv):
    code, out, err = _run_no_warnings(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    # a range rule names the number typed, not one derived from it
    if "1000001" in argv:
        assert err == "kgo: error: level index must be in [0, 1000000], got 1000001\n"
    elif "1000002" in argv:
        assert err == "kgo: error: count must be in [1, 1999], got 1000002\n"
    else:
        assert err.startswith("kgo: error: ") and "floating-point range" in err


@pytest.mark.parametrize("b", ["1e-85", "1e-200", "1e300"])
def test_veff_extreme_b_prints_exact_rows(capsys, b):
    # V_eff depends on x only through omega x, which the default grid spans
    # over [-5, 5] for E = 1 at any b; each b breaks a product of unscaled
    # factors: omega^4 underflows at 1e-85, x^2 overflows at 1e-200 and
    # omega^2 at 1e300
    code, out, err = _run_no_warnings(capsys, "veff", "--b", b, "--energy", "1",
                                      "--points", "5")
    assert code == 0 and err == ""
    lines = out.splitlines()
    v_eff = [row.split(",")[1] for row in lines[1:6]]
    assert v_eff[0] == v_eff[4] == "-131.25" and v_eff[2] == "0"
    assert float(v_eff[1]) == float(v_eff[3]) == pytest.approx(-3.515625, rel=1e-5)
    assert lines[6:] == ["# unbounded_below_detected: true"]


@pytest.mark.parametrize("b", ["1e-85", "1", "1e10"])
def test_veff_default_grid_below_rest_energy_scales_with_b(capsys, b):
    # E <= 0 has no potential zero; the default grid still spans
    # u = omega x over [-5, 5], so V_eff(u = 5) = -25 - 625/4 at every b
    code, out, err = _run_no_warnings(capsys, "veff", "--b", b, "--energy", "-1",
                                      "--points", "5")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:6]]
    assert float(rows[0][0]) == pytest.approx(-5.0 / float(b), rel=1e-12)
    for v in (rows[0][1], rows[4][1]):
        assert float(v) == pytest.approx(-181.25, rel=1e-12)


def test_table_level_range_checked_before_levels_are_built(capsys):
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "table", "--b", "0.1", "--n-max", "2000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == "kgo: error: level index must be in [0, 1000000], got 2000000\n"
    assert peak < 5 * 2**20


@pytest.mark.parametrize("parity, n, top", [("odd", "600000", "499999"),
                                            ("even", "500001", "500000")])
def test_spectrum_parity_range_error_names_the_typed_index(capsys, parity, n, top):
    code, out, err = _run(capsys, "spectrum", "--b", "0.1", "--n", n,
                          "--parity", parity)
    assert code == 1 and out == ""
    assert err == (f"kgo: error: {parity} level index must be in [0, {top}], "
                   f"got {n}\n")


def test_decimals_capped_at_exact_double_expansion(capsys):
    argv = ["table", "--b", "0.1", "--n-max", "1", "--decimals"]
    code, out, err = _run(capsys, *argv, "1075")
    assert code == 2 and out == ""
    assert err.startswith("kgo: error: ") and "1074" in err
    code, out, _ = _run(capsys, *argv, "1074")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    # 1 + 0.1 * 0.5 as a double, written out exactly, then zeros
    assert rows[0].split(",")[3] == format(1.05, ".1074f")
    assert len(rows[0].split(",")[3].split(".")[1]) == 1074


def test_wavefn_far_tails_print_zero_rows(capsys):
    code, out, err = _run_no_warnings(capsys, "wavefn", "--n", "4", "--lambda", "1",
                                      "--x-max", "1e300", "--points", "5")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [x for x, _ in rows] == ["-1e+300", "-5e+299", "0", "5e+299", "1e+300"]
    assert [v for _, v in rows] == ["0", "0", "0.459969", "0", "0"]


def _value_rows(text, output_format):
    """The rows of an output as lists of cells, as written."""
    if output_format == "json":
        rows = json.loads(text, parse_float=str, parse_int=str)["rows"]
        return [list(row.values()) for row in rows]
    sep = "," if output_format == "csv" else "\t"
    return [line.split(sep) for line in text.splitlines()[1:] if not line.startswith("#")]


@pytest.mark.parametrize("decimals", [[], ["--decimals", "3"]])
@pytest.mark.parametrize("output_format", ["csv", "tsv", "json"])
@pytest.mark.parametrize("argv", [
    ("veff", "--b", "1", "--energy", "-0.5"),
    ("wavefn", "--n", "3", "--lambda", "1", "--points", "2001", "--x-max", "60"),
    ("wavefn", "--n", "1", "--lambda", "1", "--points", "801", "--x-max", "80"),
], ids=["veff", "wavefn-3", "wavefn-1"])
def test_negative_zero_values_print_as_zero(capsys, argv, output_format, decimals):
    # V_eff at x = 0 and the left tails of the odd states hold -0.0
    ns = parse_args(argv)
    emission = ns.build(ns)
    assert emission.count == 1
    _, values = emission.block(0)
    zero = "0.000" if decimals else "0.0" if output_format == "json" else "0"
    expected = [[zero if v == 0 else None for v in row] for row in zip(*values.values())]
    assert any(math.copysign(1.0, v) < 0 for row in zip(*values.values()) for v in row
               if v == 0)
    code, out, _ = _run(capsys, *argv, "--format", output_format, *decimals)
    rows = _value_rows(out, output_format)
    assert code == 0 and len(rows) == len(expected)
    assert [[c if e else None for c, e in zip(row, want)] for row, want in zip(rows, expected)] \
        == expected


@pytest.mark.parametrize("decimals", [0, 3, 20])
@pytest.mark.parametrize("output_format", ["csv", "tsv", "json"])
def test_negative_value_that_rounds_to_zero_prints_unsigned(output_format, decimals):
    values = [-0.4, -0.5, -0.5000001, -1e-300]
    text = "".join(_render(_Emission(lambda i: ({}, {"v": values})), output_format, decimals))
    cells = ["%.*f" % (decimals, v) for v in values]  # a cell of zero digits loses its sign
    want = [cell.lstrip("-") if cell.strip("-0.") == "" else cell for cell in cells]
    if output_format == "json" and decimals == 0:
        want = [cell + ".0" for cell in want]
    assert [row[0] for row in _value_rows(text, output_format)] == want


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("argv", [("veff", "--b", "1", "--energy", "1", "--decimals", "0"),
                                  ("wavefn", "--n", "3", "--lambda", "1", "--points", "11",
                                   "--decimals", "3")], ids=["veff", "wavefn"])
def test_no_cell_reads_minus_zero_under_decimals(capsys, argv, output_format):
    code, out, _ = _run(capsys, *argv, "--format", output_format)
    rows = _value_rows(out, output_format)
    # the wavefn state is odd: a -0.000 cell would break its printed parity
    assert code == 0 and [c for row in rows for c in row if re.fullmatch(r"-0\.?0*", c)] == []


@pytest.mark.parametrize("decimals, cell", [([], "1.0"), (["--decimals", "0"], "1.0"),
                                            (["--decimals", "2"], "1.00")])
def test_json_integral_value_cells_keep_their_point(capsys, decimals, cell):
    code, out, _ = _run(capsys, "table", "--b", "1e-9", "--n-max", "3", "--format", "json",
                        *decimals)
    rows = json.loads(out, parse_float=str)["rows"]
    assert code == 0 and len(rows) == 4
    assert {(row["e_rel"], row["e_nr_plus_one"]) for row in rows} == {(cell, cell)}


def _reference_table(b, n_max, output_format, decimals):
    """The table written cell by cell with format(), as the writer did before blocks."""
    e_rel, e_nr = generate_table(b, range(n_max + 1))
    spec = ".6g" if decimals is None else f".{decimals}f"
    labels = [(str(n), format(v, ".6g")) for n in range(n_max + 1) for v in b]
    rows = [(n, bc, format(e + 0.0, spec), format(f + 0.0, spec))
            for (n, bc), e, f in zip(labels, e_rel, e_nr)]
    if output_format == "json":
        num = lambda c: c if "." in c or "e" in c else c + ".0"
        return '{"rows":[' + ",".join(
            f'{{"n":{n},"b":{num(bc)},"e_rel":{num(e)},"e_nr_plus_one":{num(f)}}}'
            for n, bc, e, f in rows) + '],"warnings":[]}\n'
    sep = "," if output_format == "csv" else "\t"
    return "\n".join(map(sep.join, [("n", "b", "e_rel", "e_nr_plus_one"), *rows])) + "\n"


@pytest.mark.parametrize("decimals", [None, 0, 3])
@pytest.mark.parametrize("output_format", ["csv", "tsv", "json"])
def test_table_over_several_blocks_matches_a_per_cell_rendering(capsys, output_format,
                                                                decimals):
    b, n_max = [0.1, 1.0, 1e-9], 2 * TABLE_BLOCK + 5
    argv = ["table", "--b", "0.1,1,1e-9", "--n-max", str(n_max), "--format", output_format]
    code, out, _ = _run(capsys, *argv, *(["--decimals", str(decimals)] if decimals is not None
                                         else []))
    want = _reference_table(b, n_max, output_format, decimals)
    same = out == want  # apart from the assert: pytest's diff of long strings takes minutes
    at = next((i for i, (c, w) in enumerate(zip(out, want)) if c != w), min(len(out), len(want)))
    assert code == 0 and same, (out[at - 80:at + 80], want[at - 80:at + 80])


POSITIVE = "must be a positive and finite number"
LIST = "must be a comma-separated list of numbers"


@pytest.mark.parametrize("argv, message", [
    (("spectrum", "--n", "0", "--b", "0"), f"--b: {POSITIVE}, got '0'"),
    (("spectrum", "--n", "0", "--b", ","), f"--b: {POSITIVE}, got ','"),
    (("table", "--n-max", "1", "--b", "0.1,0"), f"--b: {POSITIVE}, got '0'"),  # the item
    (("table", "--n-max", "1", "--b", ","), f"--b: {LIST}, got ','"),
    (("table", "--n-max", "1", "--b", " , "), f"--b: {LIST}, got ' , '"),
    (("veff", "--b", "1", "--energy", "nan"), "--energy: must be a finite number, got 'nan'"),
    (("spectrum", "--b", "0.1", "--n", "-1"), "--n: must be an integer >= 0, got '-1'"),
    (("oracle", "--b", "1", "--count", "0"), "--count: must be an integer >= 1, got '0'"),
    (("table", "--b", "0.1", "--n-max", "1", "--decimals", "1075"),
     "--decimals: must be an integer in [0, 1074], got '1075'"),
    (("wavefn", "--n", "0", "--lambda", "1", "--points", "4"),
     "--points: must be an odd integer in [3, 1000001], got '4'"),
    (("oracle", "--b", "1", "--count", "1", "--tol", "inf"), f"--tol: {POSITIVE}, got 'inf'"),
    (("veff", "--b", "1", "--energy"), "--energy: expected one argument"),
])
def test_usage_errors_name_the_option_the_rule_and_the_text(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"kgo: error: argument {message}\n"


def test_level_index_past_64_bits_is_out_of_range(capsys):
    code, out, err = _run(capsys, "spectrum", "--b", "0.1", "--n", str(10**20))
    assert code == 1 and out == ""
    assert err == f"kgo: error: level index must be in [0, 1000000], got {10**20}\n"


@pytest.mark.parametrize("command", [(), *[(name,) for name in COMMANDS]])
def test_help_is_the_same_at_every_terminal_width(command):
    # one line per option, never wrapped to $COLUMNS
    outs = [subprocess.run([sys.executable, "-m", "kgo", *command, "--help"],
                           capture_output=True, check=True,
                           env={**os.environ, "COLUMNS": columns}).stdout
            for columns in ("40", "200")]
    assert outs[0] == outs[1] and outs[0].startswith(b"usage: kgo ")


@pytest.mark.parametrize("command", COMMANDS)
def test_every_option_help_line_says_what_the_option_does(capsys, command):
    code, out, _ = _run(capsys, command, "--help")
    lines = out.split("\noptions:\n", 1)[1].splitlines()
    assert code == 0 and len(lines) == 1 + len(COMMANDS[command][2])  # -h, then each option
    # two spaces or more part the flag, and its value if it takes one, from the text
    assert [line for line in lines if not re.fullmatch(r"  \S+(?: \S+)?  +\S.*", line)] == []


def test_abbreviated_option_is_refused(capsys):
    # --n names one level in spectrum and wavefn; it never stands for --n-max
    code, out, err = _run(capsys, "table", "--b", "0.1", "--n", "5")
    assert (code, out, err) == (2, "", "kgo: error: unrecognized arguments: --n\n")


def _limit_address_space_to_1_gib():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("argv", [("wavefn", "--n", "0", "--lambda", "1"),
                                  ("oracle", "--b", "1", "--count", "1")])
def test_points_beyond_cap_is_a_usage_error_under_memory_limit(argv):
    # uncapped, the 200000001-node grid needs 1.5 GiB for its offsets alone
    proc = subprocess.run([sys.executable, "-m", "kgo", *argv, "--points", "200000001"],
                          capture_output=True, text=True,
                          preexec_fn=_limit_address_space_to_1_gib)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("kgo: error: ") and "1000001" in proc.stderr


def test_out_of_memory_is_one_error_line_under_memory_limit():
    # 2M cells of 1076 characters each: the rows alone outgrow 1 GiB of address space
    proc = subprocess.run([sys.executable, "-m", "kgo", "wavefn", "--n", "0", "--lambda", "1",
                           "--points", "1000001", "--decimals", "1074"],
                          capture_output=True, text=True,
                          preexec_fn=_limit_address_space_to_1_gib)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "kgo: error: out of memory\n"


_TEN_B = ",".join(f"{k / 10:g}" for k in range(1, 11))


@pytest.mark.parametrize("b, n_max, output_format", [
    (_TEN_B, 1000000, "csv"), (_TEN_B, 1000000, "json"),
    # 1000 b values: a block of 4096 levels would hold 4 x 10^6 json rows
    (",".join(f"{k / 1000:g}" for k in range(1, 1001)), 9999, "json")],
    ids=["csv", "json", "json-1000-b"])
def test_ten_million_row_table_prints_under_memory_limit(b, n_max, output_format):
    # computed and formatted in blocks of at most 4 x TABLE_BLOCK rows, the
    # rows are held once as text, block by block, and each block is encoded
    # and written in turn; the table forks, and each process holds at most
    # its own part of them
    proc = subprocess.run([sys.executable, "-m", "kgo", "table", "--b", b, "--n-max", str(n_max),
                           "--format", output_format], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          preexec_fn=_limit_address_space_to_1_gib)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("b_count, levels", [
    (1, TABLE_BLOCK), (4, TABLE_BLOCK), (5, 4 * TABLE_BLOCK // 5), (1000, 16),
    (4 * TABLE_BLOCK, 1), (4 * TABLE_BLOCK + 1, 1)])
def test_a_table_block_holds_at_most_four_table_blocks_of_rows(b_count, levels):
    # up to 4 b values a block is TABLE_BLOCK levels; beyond, its rows are capped
    ns = parse_args(("table", "--b", ",".join(["0.1"] * b_count), "--n-max", str(2 * levels)))
    emission = ns.build(ns)
    assert [len(emission.block(i)[0]["n"]) for i in range(emission.count)] == [levels, levels, 1]


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first row is written
    return os.fdopen(write_end, "w")


def _full_disk():
    return open("/dev/full", "w")


@pytest.mark.parametrize("argv, open_stdout, reason", [
    (("spectrum", "--b", "0.1", "--n", "0"), _full_disk, "No space left on device"),
    (("table", "--b", "0.1,0.2", "--n-max", "400000"), _full_disk, "No space left on device"),
    (("table", "--b", "0.1,0.2", "--n-max", "400000"), _closed_pipe, "Broken pipe"),
    (("--help",), _full_disk, "No space left on device"),  # help is written as rows are
])
def test_failed_write_is_one_error_line(argv, open_stdout, reason):
    with open_stdout() as stdout:
        proc = subprocess.run([sys.executable, "-m", "kgo", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"kgo: error: cannot write output: {reason}\n"


@pytest.mark.parametrize("argv", [("spectrum", "--b", "0.1", "--n", "0"), ("table", "--help")])
def test_closed_stdout_is_one_error_line(argv):
    # fd 1 closed at exec: Python starts with sys.stdout set to None
    proc = subprocess.run([sys.executable, "-m", "kgo", *argv],
                          stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1
    assert proc.stderr == "kgo: error: cannot write output: Bad file descriptor\n"


def _close_stderr():
    os.close(2)  # Python starts with sys.stderr set to None


def _fill_stderr():
    os.dup2(os.open("/dev/full", os.O_WRONLY), 2)  # every write fails


@pytest.mark.parametrize("argv, code", [(("spectrum", "--b", "-1", "--n", "0"), 2),
                                        (("spectrum", "--b", "1e308", "--n", "1000000"), 1)])
@pytest.mark.parametrize("kill_stderr", [_close_stderr, _fill_stderr])
def test_dead_stderr_keeps_the_exit_code_and_an_empty_stdout(argv, code, kill_stderr):
    # the error line has nowhere to go, and must not go to stdout instead
    proc = subprocess.run([sys.executable, "-m", "kgo", *argv], stdout=subprocess.PIPE,
                          text=True, preexec_fn=kill_stderr)
    assert (proc.returncode, proc.stdout) == (code, "")


def _buffering(unbuffered):
    """A child's environment, with its stdout and stderr unbuffered or not."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@BUFFERING
def test_reader_leaving_mid_stream_is_one_error_line(unbuffered):
    # unbuffered, the file takes the part of a write that fits before the
    # reader leaves, and the text layer used to drop the rest and exit 0
    with subprocess.Popen([sys.executable, "-m", "kgo", "table", "--b", "0.1",
                           "--n-max", "300000"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_buffering(unbuffered)) as proc:
        assert proc.stdout.read(10) == b"n,b,e_rel,"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"kgo: error: cannot write output: Broken pipe\n")


@BUFFERING
def test_full_non_blocking_stdout_is_one_error_line(unbuffered):
    # nobody reads the pipe: once it is full a write takes nothing, which the
    # unbuffered file reports as None and the text layer used to ignore
    read_end, write_end = os.pipe()
    os.set_blocking(write_end, False)
    with open(read_end, "rb"), open(write_end, "wb") as stdout:
        proc = subprocess.run([sys.executable, "-m", "kgo", "table", "--b", "0.1",
                               "--n-max", "300000"], stdout=stdout, stderr=subprocess.PIPE,
                              text=True, env=_buffering(unbuffered))
    assert proc.returncode == 1 and len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("kgo: error: cannot write output: ")


@BUFFERING
def test_refusing_stdout_or_stderr_keeps_the_exit_code(unbuffered):
    # buffered, a flush that failed in main used to be retried at interpreter
    # teardown, which printed "Exception ignored ..." and exited 120
    with _full_disk() as stdout:
        proc = subprocess.run([sys.executable, "-m", "kgo", "spectrum", "--b", "0.1", "--n", "0"],
                              stdout=stdout, stderr=subprocess.PIPE, text=True,
                              env=_buffering(unbuffered))
    assert (proc.returncode, proc.stderr) == (
        1, "kgo: error: cannot write output: No space left on device\n")
    proc = subprocess.run([sys.executable, "-m", "kgo", "spectrum", "--b", "-1", "--n", "0"],
                          stdout=subprocess.PIPE, text=True, preexec_fn=_fill_stderr,
                          env=_buffering(unbuffered))
    assert (proc.returncode, proc.stdout) == (2, "")


@BUFFERING
def test_million_row_table_arrives_whole_through_a_pipe(unbuffered):
    # the process ends right after its last write: nothing written is lost
    proc = subprocess.run([sys.executable, "-m", "kgo", "table", "--b", "0.1",
                           "--n-max", "999999"], capture_output=True, env=_buffering(unbuffered))
    assert (proc.returncode, proc.stderr, hashlib.sha256(proc.stdout).hexdigest()) == (
        0, b"", "c5cddf366972edd62c7b2db668434b89c47cdfdc9713483a6d82f2f2b65d84f0")


def test_main_in_process_returns_its_code(capsys, monkeypatch):
    # only cli.entry ends the process; main returns whatever the outcome
    def refuse(code):
        raise AssertionError(f"main ended the process with {code}")
    monkeypatch.setattr(os, "_exit", refuse)
    monkeypatch.setattr(sys, "exit", refuse)
    codes = [main(argv) for argv in (["spectrum", "--b", "0.1", "--n", "0"], ["table", "--help"],
                                     ["spectrum", "--b", "1e308", "--n", "1000000"],
                                     ["nonsense"])]
    assert codes == [0, 0, 1, 2]
    assert capsys.readouterr().out.startswith("n,b,parity,energy\n0,0.1,combined,1.04881\n")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns in this process, with cli._FORK_MIN_ROWS at 0,
    so every table of two blocks or more forks, however few its rows."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(cli, "_FORK_MIN_ROWS", 0)
    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def _one_process(capsys, argv):
    """main's (code, stdout, stderr) on argv with no os.fork: every block is filled here."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(os, "fork")
        return _run(capsys, *argv)


def _assert_same_run(capsys, argv, alone):
    got = _run(capsys, *argv)
    same = got == alone  # apart from the assert: pytest's diff of long strings takes minutes
    assert same, (got[0], got[2], len(got[1]), alone[0], alone[2], len(alone[1]))


def _table(n_max, *options):
    return ("table", "--b", "0.1,1e-9", "--n-max", str(n_max), *options)


@pytest.mark.parametrize("formula", ["eq21", "table"])
@pytest.mark.parametrize("decimals", [[], ["--decimals", "0"], ["--decimals", "5"]],
                         ids=["6g", "0", "5"])
@pytest.mark.parametrize("output_format", ["csv", "tsv", "json"])
def test_two_processes_write_the_bytes_of_one(capsys, forks, output_format, decimals, formula):
    # three blocks: this process fills them from the first, a forked child
    # from the last, until the two meet
    argv = _table(2 * TABLE_BLOCK + 5, "--format", output_format, "--formula", formula,
                  *decimals)
    alone = _one_process(capsys, argv)
    assert alone[0] == 0 and not forks
    _assert_same_run(capsys, argv, alone)
    assert len(forks) == 1
    _assert_no_child()


@pytest.mark.parametrize("decimals", [[], ["--decimals", "3"]], ids=["6g", "3"])
@pytest.mark.parametrize("output_format", ["csv", "tsv", "json"])
@pytest.mark.parametrize("command", [
    ("wavefn", "--n", "7", "--lambda", "0.6"),
    ("veff", "--b", "0.1", "--energy", "1.2"),
])
def test_two_processes_write_the_grid_bytes_of_one(capsys, forks, monkeypatch, command,
                                                   output_format, decimals):
    # three blocks of TABLE_BLOCK rows, shared by this process and a forked
    # child; wavefn also samples a part of its nodes in a child
    argv = (*command, "--points", str(2 * TABLE_BLOCK + 5), "--format", output_format,
            *decimals)
    alone = _one_process(capsys, argv)
    assert alone[0] == 0 and not forks
    monkeypatch.setattr(wavefn, "_WORK_STEPS", 1)
    _assert_same_run(capsys, argv, alone)
    assert len(forks) == 1 + (command[0] == "wavefn")
    _assert_no_child()


@pytest.mark.parametrize("n_max, blocks", [(TABLE_BLOCK - 1, 1), (TABLE_BLOCK, 2),
                                           (2 * TABLE_BLOCK - 1, 2), (4 * TABLE_BLOCK, 5)])
@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_two_processes_split_the_blocks_at_every_edge(capsys, forks, output_format, n_max,
                                                      blocks):
    # one block leaves no work to share: only a table of two blocks or more forks
    argv = _table(n_max, "--format", output_format)
    alone = _one_process(capsys, argv)
    _assert_same_run(capsys, argv, alone)
    assert len(forks) == (blocks > 1)
    _assert_no_child()


@pytest.mark.parametrize("b, n_max", [("1e303", 100000), ("1e308", 2 * TABLE_BLOCK + 5)],
                         ids=["child", "parent"])
def test_an_overflow_in_either_half_is_the_one_process_error(capsys, forks, b, n_max):
    # 2b(n + 1/2) overflows from n = 89884 at b = 1e303, in block 21 of 25,
    # which the child, from block 25 down, likely fills first; at b = 1e308
    # from n = 1, in this process's first block
    argv = ("table", "--b", b, "--n-max", str(n_max))
    alone = _one_process(capsys, argv)
    assert alone == (1, "", "kgo: error: energy sqrt(1 + 2b(n + 0.5)) exceeds the "
                            "floating-point range\n")
    assert _run(capsys, *argv) == alone
    assert len(forks) == 1
    _assert_no_child()


def test_an_error_in_this_half_kills_the_child_at_once(capsys, forks, monkeypatch):
    # the child would fill its first block for a minute: this process, whose
    # own block overflows, kills it rather than wait for it
    parent, generate_table = os.getpid(), spectrum.generate_table

    def slow(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return generate_table(*args)

    monkeypatch.setattr(spectrum, "generate_table", slow)
    start = time.monotonic()
    code, out, err = _run(capsys, "table", "--b", "1e308", "--n-max", str(2 * TABLE_BLOCK + 5))
    assert (code, out) == (1, "") and err.endswith(" exceeds the floating-point range\n")
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    _assert_no_child()


def test_the_overflowing_table_forks_at_the_real_threshold_with_the_same_error():
    # 100001 rows of 25 blocks: a fork pays without a forced threshold
    assert 100001 >= cli._FORK_MIN_ROWS
    proc = subprocess.run([sys.executable, "-m", "kgo", "table", "--b", "1e303", "--n-max",
                           "100000"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "kgo: error: energy sqrt(1 + 2b(n + 0.5)) exceeds the floating-point range\n")


@pytest.mark.parametrize("frames, cut", [(0, False), (1, False), (1, True)],
                         ids=["report", "one-frame", "cut-frame"])
@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_a_child_killed_after_some_frames_leaves_the_bytes_unchanged(capsys, forks, monkeypatch,
                                                                     output_format, frames, cut):
    # four blocks, the child's last three sent as three frames: those that
    # arrive are written, and this process fills the rest from the first that
    # does not
    argv = _table(3 * TABLE_BLOCK, "--format", output_format)
    alone = _one_process(capsys, argv)
    loaded = []
    monkeypatch.setattr(fork, "marshal", _dying_marshal(os.getpid(), frames, cut, loaded))
    pin_the_child_to_all_works_but_the_first(monkeypatch)
    _assert_same_run(capsys, argv, alone)
    assert len(forks) == 1 and len(loaded) == 1 + frames and loaded[0] == 1
    _assert_no_child()


def test_a_child_killed_before_it_writes_leaves_the_bytes_unchanged(capsys, forks,
                                                                     monkeypatch):
    argv = _table(2 * TABLE_BLOCK + 5, "--format", "json", "--decimals", "5")
    alone = _one_process(capsys, argv)
    parent, generate_table = os.getpid(), spectrum.generate_table

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return generate_table(*args)

    monkeypatch.setattr(spectrum, "generate_table", dying)
    _assert_same_run(capsys, argv, alone)
    assert len(forks) == 1
    _assert_no_child()


def test_no_child_without_os_fork_or_with_a_thread_running(capsys, forks):
    # a forked child holds the calling thread alone, and any lock another
    # thread held stays held there
    argv = _table(2 * TABLE_BLOCK + 5)
    alone = _one_process(capsys, argv)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        _assert_same_run(capsys, argv, alone)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and not forks
    _assert_same_run(capsys, argv, alone)
    assert len(forks) == 1
    _assert_no_child()


def test_a_writer_dropped_early_kills_and_reaps_its_child(forks):
    # the texts are handed out once both halves are filled; a caller that
    # drops them, as run does when stdout refuses a write, ends the child
    ns = parse_args(_table(3 * TABLE_BLOCK))
    texts = _render(ns.build(ns), ns.format, ns.decimals)
    assert next(texts) == "n,b,e_rel,e_nr_plus_one\n"
    assert len(forks) == 1
    del texts
    _assert_no_child()


def test_without_a_pipe_no_child_is_forked_and_the_bytes_are_unchanged(capsys, forks,
                                                                      monkeypatch):
    # with no file descriptor to spare for the pipe, this process fills every block
    argv = _table(2 * TABLE_BLOCK + 5, "--format", "json")
    alone = _one_process(capsys, argv)

    def no_pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "pipe", no_pipe)
    _assert_same_run(capsys, argv, alone)
    assert not forks
    _assert_no_child()


@needs_children
def test_a_killed_table_writer_leaves_its_pipes_closed_and_no_child():
    # 10^7 rows, about 7 s in two processes: the child, which fills its half
    # before it sends a byte, would run on for seconds after the kill
    assert_a_killed_kgo_leaves_no_process("table", "--b", _TEN_B, "--n-max", "1000000",
                                          "--format", "json")


@pytest.mark.parametrize("argv, loads", [
    (("table", "--b", "0.1,0.001,0.0001", "--n-max", "100"), False),  # README's: one block
    (("table", "--b", "0.1", "--n-max", str(2 * TABLE_BLOCK)), False),  # 3 blocks, 8193 rows
    (("table", "--b", "0.1,0.2,0.3", "--n-max", str(2 * TABLE_BLOCK - 1)), True),
    (("oracle", "--b", "0.001", "--count", "5", "--points", "2001"), False),  # README's
    (("oracle", "--b", "0.001", "--count", "50", "--points", "2001"), True),
    (("wavefn", "--n", "4", "--lambda", "1", "--x-max", "6", "--points", "241"), False),
    # 7221 nodes x (n + 4) steps, and 14441 rows: n = 15 forks for neither, n = 30 for psi
    (("wavefn", "--n", "15", "--lambda", "1", "--points", "14441"), False),
    (("wavefn", "--n", "30", "--lambda", "1", "--points", "14441"), True),
    (("veff", "--b", "0.1", "--energy", "1.2", "--points", str(2 * TABLE_BLOCK + 5)), False),
    (("veff", "--b", "0.1", "--energy", "1.2", "--points", "100001"), True),
])
def test_only_a_start_whose_work_repays_a_child_loads_the_fork_helper(argv, loads):
    # each caller compares its rows with its threshold before it imports
    # kgo.fork, so a start that cannot fork does not compile it
    script = ("import sys\nfrom kgo.cli import main\n"
              f"main({list(argv)!r})\nprint('kgo.fork' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    assert proc.stderr == f"{loads}\n"
