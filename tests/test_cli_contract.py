"""Property test of the CLI contract over extreme numeric arguments.

Every argv either prints rows and exits 0, or prints one `kgo: error:` line
on stderr, nothing on stdout, and exits 1 (runtime) or 2 (usage).  Runs are
deterministic, and csv, tsv and json carry the same cells.  Values are fed
as `--option=value`, so negative numbers in exponent form reach the option's
own parser.
"""

import io
import json
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from kgo.cli import MAX_DECIMALS, main
from kgo.spectrum import MAX_LEVEL
from kgo.wavefn import MAX_POINTS

DOUBLE_MAX = 1.7976931348623157e308
# extremes and a few texts the option parsers must reject, or any double
POSITIVE = st.one_of(
    st.sampled_from([repr(v) for v in (5e-324, 2.2250738585072014e-308, 1e-300, 1e-154,
                                       1e-85, 1e-12, 1e-3, 0.1, 1.0, 3.7, 1e5, 1e12,
                                       1e154, 1e300, DOUBLE_MAX)]
                    + ["0", "-1", "nan", "1e309"]),
    st.floats(min_value=5e-324, max_value=DOUBLE_MAX).map(repr),
)
FINITE = st.one_of(
    st.sampled_from([repr(v) for v in (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0,
                                       1e308, -1e308, DOUBLE_MAX, -DOUBLE_MAX)]
                    + ["inf", "nan"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
TOL = st.sampled_from([5e-324, 1e-300, 1e-12, 1e-10, 1e-3, 1.0, 1e300]).map(repr)
LEVEL = st.one_of(st.integers(0, 50),
                  st.sampled_from([MAX_LEVEL // 2, MAX_LEVEL - 1, MAX_LEVEL, MAX_LEVEL + 1]))
# odd, 3..51, or the first odd count past the cap
POINTS = st.one_of(st.integers(1, 25).map(lambda k: 2 * k + 1), st.just(MAX_POINTS + 2))
DECIMALS = st.one_of(st.none(), st.integers(0, 40),
                     st.sampled_from([MAX_DECIMALS - 1, MAX_DECIMALS, MAX_DECIMALS + 1]))
LABELS = ("n", "b", "parity")  # every other column holds values


@st.composite
def argvs(draw):
    """One kgo argv without --format, its sizes kept small."""
    sub = draw(st.sampled_from(["table", "spectrum", "wavefn", "oracle", "veff"]))
    opts = {}
    if sub == "table":
        opts["b"] = ",".join(draw(st.lists(POSITIVE, min_size=1, max_size=3)))
        opts["n-max"] = draw(st.integers(0, 20))
        opts["formula"] = draw(st.sampled_from(["eq21", "table"]))
    elif sub == "spectrum":
        opts["b"], opts["n"] = draw(POSITIVE), draw(LEVEL)
        opts["parity"] = draw(st.sampled_from(["combined", "even", "odd"]))
        opts["expansion"] = draw(st.sampled_from(["exact", "second-order"]))
    elif sub == "wavefn":
        # 800 puts the turning point where exp(-xi^2/2) underflows
        opts["n"] = draw(st.one_of(st.integers(0, 60), st.sampled_from([800, MAX_LEVEL + 1])))
        opts["lambda"] = draw(POSITIVE)
        opts["points"] = draw(POINTS)
        if draw(st.booleans()):
            opts["x-max"] = draw(POSITIVE)
    elif sub == "oracle":
        opts["b"], opts["count"] = draw(POSITIVE), draw(st.integers(1, 4))
        opts["points"], opts["tol"] = draw(POINTS), draw(TOL)
    else:
        opts["b"], opts["energy"] = draw(POSITIVE), draw(FINITE)
        opts["points"] = draw(POINTS)
        if draw(st.booleans()):
            opts["x-max"] = draw(POSITIVE)
    opts["decimals"] = draw(DECIMALS)
    argv = [sub] + [f"--{k}={v}" for k, v in opts.items() if v is not None]
    if sub == "spectrum" and draw(st.booleans()):
        argv.append("--binding")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")  # a stray numpy warning is a contract breach
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _split(out, sep):
    """(header, data rows, comment lines) of csv or tsv output."""
    lines = out.splitlines()
    body = [line for line in lines if not line.startswith("# ")]
    return body[0].split(sep), [row.split(sep) for row in body[1:]], lines[len(body):]


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(argv=argvs())
def test_every_argv_ends_in_rows_or_one_error_line(argv):
    code, out, err = _run(argv + ["--format=csv"])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("kgo: error: ")
        for fmt in ("tsv", "json"):
            assert _run(argv + [f"--format={fmt}"]) == (code, "", err)
        return
    assert err == ""
    assert _run(argv + ["--format=csv"]) == (0, out, "")

    header, rows, comments = _split(out, ",")
    for row in rows:
        assert len(row) == len(header)
        for cell in row:
            assert cell.lower() not in ("nan", "inf", "-inf", "+inf"), (argv, cell)

    decimals = [int(a.split("=")[1]) for a in argv if a.startswith("--decimals=")]
    if decimals:
        # --decimals K fixes K digits after the point in every value cell and
        # leaves the label cells as they read without it
        value_cell = re.compile(r"-?\d+" + (rf"\.\d{{{decimals[0]}}}" if decimals[0] else ""))
        plain = [a for a in argv if not a.startswith("--decimals=")]
        code_plain, out_plain, _ = _run(plain + ["--format=csv"])
        assert code_plain == 0
        header_plain, rows_plain, _ = _split(out_plain, ",")
        assert header_plain == header and len(rows_plain) == len(rows)
        for row, row_plain in zip(rows, rows_plain):
            for name, cell, cell_plain in zip(header, row, row_plain):
                if name in LABELS:
                    assert cell == cell_plain, (argv, name)
                else:
                    assert value_cell.fullmatch(cell), (argv, name, cell)

    code_tsv, tsv, _ = _run(argv + ["--format=tsv"])
    assert code_tsv == 0 and _split(tsv, "\t") == (header, rows, comments)

    code_json, text, _ = _run(argv + ["--format=json"])
    assert code_json == 0
    payload = json.loads(text)
    # the same document with every number kept as the text json holds
    texts = json.loads(text, parse_float=str, parse_int=str)["rows"]
    assert len(payload["rows"]) == len(rows)
    for row, obj, obj_text in zip(rows, payload["rows"], texts):
        assert list(obj) == header
        for name, cell in zip(header, row):
            value = obj[name]
            if name == "n":
                assert type(value) is int and obj_text[name] == cell
            elif name == "parity":
                assert value == cell
            else:
                assert type(value) is float, (argv, name, value)
                assert math.isfinite(value) and value == float(cell)
                # a json number is its csv cell, with .0 on an integral cell
                assert obj_text[name] in (cell, cell + ".0"), (argv, name, cell)
    extra = {k: v for k, v in payload.items() if k not in ("rows", "warnings")}
    assert comments == ([f"# {k}: {json.dumps(v)}" for k, v in extra.items()]
                        + [f"# {w}" for w in payload["warnings"]])
