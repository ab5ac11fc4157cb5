"""The direct option reader against argparse, over drawn argvs of every subcommand.

cli.parse_args reads an argv of a subcommand and exact `--option value`
pairs straight from cli.COMMANDS, and hands every other argv to the argparse
parser built from the same table.  Wherever the reader gives a namespace it
is the one argparse gives, and sending every argv through argparse changes
no byte of stdout or stderr and no exit code.
"""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgo import cli
from kgo.errors import UsageError

# values each option reads, kept cheap to run
GOOD = {"b": ["0.1", "1e-3", "2"], "n_max": ["0", "3"], "n": ["0", "2"], "lam": ["1", "0.5"],
        "x_max": ["4", "6.5"], "points": ["5", "21"], "count": ["1", "2"],
        "tol": ["1e-10", "1e-3"], "energy": ["1", "0.5"], "decimals": ["0", "3"]}
# texts that some or every option refuses, or that argparse reads as an option
OTHER = ["", "-1", "-1e5", "-.5", "0", "x", "nan", "inf", "1.5", "4", ",", "0.1,0", " 2",
         "1075", "1000003", "bogus", "-h", "--", "--b"]


def _good(option):
    return option.choices or GOOD[option.dest]


@st.composite
def well_formed(draw, options):
    """An option written exactly, with a value it reads."""
    option = draw(st.sampled_from(options))
    return [option.flag] if option.convert is None else [option.flag,
                                                          draw(st.sampled_from(_good(option)))]


@st.composite
def pieces(draw, options):
    """One run of argv tokens: an option with a value it reads or another
    text, written exactly, abbreviated or as --opt=value, or a token that
    argparse reads some other way."""
    option = draw(st.sampled_from(options))
    value = draw(st.sampled_from([*(_good(option) if option.convert else []), *OTHER]))
    form = draw(st.sampled_from(["exact"] * 4 + ["abbreviated", "equals", "bare", "other"]))
    if form == "exact" and option.convert is None or form == "bare":
        return [option.flag]
    if form == "abbreviated" and len(option.flag) > 3:
        return [option.flag[:draw(st.integers(3, len(option.flag) - 1))], value]
    if form == "equals":
        return [f"{option.flag}={value}"]
    if form == "other":
        return [draw(st.sampled_from(["-h", "--help", "--", "--bogus", "stray", ""]))]
    return [option.flag, value]


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    options = cli.COMMANDS[name][2]
    argv = [name]
    for option in options:  # each required option, well formed, unless left out
        if option.required and draw(st.integers(0, 9)):
            argv += [option.flag, draw(st.sampled_from(GOOD[option.dest]))]
    extra = draw(st.lists(st.one_of(well_formed(options), pieces(options)), max_size=4))
    argv += [token for piece in extra for token in piece]
    if not draw(st.integers(0, 19)):  # no subcommand first
        argv = draw(st.sampled_from([[], ["--help"], ["--format", "json"], ["x"]])) + argv[1:]
    return argv


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help exits through argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argv=argvs())
@example(argv=["spectrum", "--b", "0.1", "--n", "0", "--binding", "--parity", "odd"])
@example(argv=["veff", "--b", "1", "--energy", "-1e5", "--format", "json"])
@example(argv=["table", "--n-max", "2", "--b", "0.1,1e-3", "--formula", "table"])
def test_reader_gives_the_argparse_namespace_or_leaves_the_argv_to_argparse(argv):
    ns = cli._read(argv)
    if ns is not None:  # the same values, of the same types (True is not 1)
        typed = lambda ns: {name: (type(value), value) for name, value in vars(ns).items()}
        assert typed(ns) == typed(cli.build_parser().parse_args(argv))
    result = _main(argv)
    with mock.patch.object(cli, "_read", return_value=None):
        assert _main(argv) == result


@pytest.mark.parametrize("argv", [
    ["spectrum", "--b", "0.1", "--n", "0", "--help"],
    ["spectrum", "-h"],
    ["table", "--b", "0.1", "--n", "5"],  # argparse reads --n-max
    ["spectrum", "--b=0.1", "--n", "0"],
    ["veff", "--b", "1", "--energy", "-1"],  # argparse reads -1 as a value
    ["veff", "--b", "1", "--energy", "-1e5"],  # and -1e5 as an option
    ["spectrum", "--b", "0.1", "--n", "0", "--"],
    ["oracle", "--b", "0.1"],
    ["spectrum", "--b", "0.1", "--n", "x"],
    ["spectrum", "--b", "0.1", "--n", "0", "--parity", "bogus"],
    ["spectrum", "--b", "0.1", "--n"],
])
def test_reader_leaves_to_argparse_every_argv_but_exact_pairs(argv):
    assert cli._read(argv) is None


def test_usage_errors_still_raise_from_parse_args():
    with pytest.raises(UsageError, match="^the following arguments are required: --count$"):
        cli.parse_args(["oracle", "--b", "0.1"])
    assert cli.parse_args(["table", "--b", "0.1", "--n", "5"]).n_max == 5
