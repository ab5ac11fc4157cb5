import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from kgo import wavefn
from kgo.cli import (_JSON_BOOL, COMMANDS, TABLE_BLOCK, TABLE_FORMULA_WARNING, WAVEFN_BUDGET,
                     _Emission, _render, main, parse_args)
from kgo.errors import UsageError
from kgo.params import GridSpec
from kgo.spectrum import PARITY_CHOICES, generate_table
from kgo.wavefn import psi


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
    monkeypatch.setattr(wavefn, "_floats", lambda values: pytest.fail("x checked again"))
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
    (_, values), = ns.build(ns).blocks
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
    text = _render(_Emission([({}, {"v": values})]), output_format, decimals)
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


def test_ten_million_row_table_prints_under_memory_limit():
    # computed and formatted in blocks of levels, the rows are held once as
    # text before the one write
    b = ",".join(f"{k / 10:g}" for k in range(1, 11))
    proc = subprocess.run([sys.executable, "-m", "kgo", "table", "--b", b,
                           "--n-max", "1000000"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          preexec_fn=_limit_address_space_to_1_gib)
    assert (proc.returncode, proc.stderr) == (0, "")


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
