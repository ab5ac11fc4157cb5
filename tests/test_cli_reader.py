"""The one option reader, over drawn argvs of every subcommand.

cli.parse_args reads every argv straight from cli.COMMANDS: a subcommand,
then flags and `--option value` or `--option=value` in any order.  Every
drawn argv ends in exactly one way: rows and exit 0, the help text and
exit 0, a usage error (one `kgo: error:` line, an empty stdout and exit 2),
or, for options the reader took, a runtime error with exit 1.  Writing each
value as `--option=value` reads the same namespace, of the same types.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgo import cli
from kgo.errors import UsageError

# values each option reads, kept cheap to run
GOOD = {"b": ["0.1", "1e-3", "2"], "n_max": ["0", "3"], "n": ["0", "2"], "lam": ["1", "0.5"],
        "x_max": ["4", "6.5"], "points": ["5", "21"], "count": ["1", "2"],
        "tol": ["1e-10", "1e-3"], "energy": ["1", "0.5"], "decimals": ["0", "3"]}
# texts that some or every option refuses, or that look like an option
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
    text, written exactly, abbreviated or as --opt=value, or a token that is
    no option."""
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
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _parsed(argv):
    """What parse_args makes of argv: each attribute with its type, or the
    usage error's message."""
    try:
        ns = cli.parse_args(argv)
    except UsageError as exc:
        return str(exc)
    return {name: (type(value), value) for name, value in vars(ns).items()}


def _joined(argv):
    """argv with each `--option value` pair the reader takes written as `--option=value`."""
    if not argv or argv[0] not in cli.COMMANDS:
        return argv
    valued = {option.flag for option in cli.COMMANDS[argv[0]][2] if option.convert}
    joined, tokens = argv[:1], iter(argv[1:])
    for token in tokens:
        value = next(tokens, None) if token in valued else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argv=argvs())
@example(argv=["spectrum", "--b", "0.1", "--n", "0", "--binding", "--parity", "odd"])
@example(argv=["veff", "--b", "1", "--energy", "-1e5", "--format", "json"])
@example(argv=["table", "--n-max", "2", "--b", "0.1,1e-3", "--formula", "table"])
def test_every_argv_gives_rows_help_or_one_error_line(argv):
    parsed = _parsed(argv)
    code, out, err = _main(argv)
    if isinstance(parsed, str):  # a usage error
        assert (code, out, err) == (2, "", f"kgo: error: {parsed}\n")
    elif "help" in parsed:
        assert (code, out, err) == (0, parsed["help"][1], "")
        assert out.startswith("usage: kgo ")
    elif code == 0:  # rows: json's frame, or a header whose first column is n or x
        json = parsed["format"][1] == "json"
        assert out.startswith('{"rows":[' if json else ("n", "x")) and err == ""
    else:  # the library refused the options the reader took
        assert (code, out) == (1, "") and err.startswith("kgo: error: ")
        assert len(err.splitlines()) == 1
    assert _parsed(_joined(argv)) == parsed  # --opt=value reads as --opt value


@pytest.mark.parametrize("argv, message", [
    (["table", "--b", "0.1", "--n", "5"], "unrecognized arguments: --n"),  # not --n-max
    (["wavefn", "--n", "1", "--lam", "1"], "unrecognized arguments: --lam"),
    (["spectrum", "--b", "0.1", "--n", "0", "--"], "unrecognized arguments: --"),
    (["spectrum", "--b", "0.1", "--n", "0", "--binding=1"],
     "unrecognized arguments: --binding=1"),
    (["oracle", "--b", "0.1"], "the following arguments are required: --count"),
    (["wavefn"], "the following arguments are required: --n, --lambda"),
    ([], "the following arguments are required: command"),
    (["spectrum", "--b", "0.1", "--n", "x"],
     "argument --n: must be an integer >= 0, got 'x'"),
    (["spectrum", "--b", "0.1", "--n", "0", "--parity", "bogus"],
     "argument --parity: invalid choice: 'bogus' (choose from 'even', 'odd', 'combined')"),
    (["plot"], "argument command: invalid choice: 'plot' "
               "(choose from 'table', 'spectrum', 'wavefn', 'oracle', 'veff')"),
    (["spectrum", "--b", "0.1", "--n"], "argument --n: expected one argument"),
    (["veff", "--b", "1", "--energy"], "argument --energy: expected one argument"),
    (["spectrum", "--b", "--help", "--n", "0"],  # the token after --b is its value
     "argument --b: must be a positive and finite number, got '--help'"),
    (["table", "--b", "0", "-h"],  # the first token at fault comes first
     "argument --b: must be a positive and finite number, got '0'"),
])
def test_usage_errors_are_argparse_messages(argv, message):
    with pytest.raises(UsageError) as err:
        cli.parse_args(argv)
    assert str(err.value) == message


LONG = "x" * 100000


@pytest.mark.parametrize("argv", [
    ["spectrum", "--b", LONG, "--n", "0"],
    ["spectrum", "--b", "0.1", "--n", "0", "--format", LONG],
    ["spectrum", "--b", "0.1", "--n", "0", "--" + LONG],
    ["table", "--b", f"0.1,{LONG}", "--n-max", "1"],
    ["table", "--b", "," * 100000, "--n-max", "1"], [LONG]],
    ids=["value", "choice", "unrecognized", "list item", "empty list", "command"])
def test_a_long_argv_text_gives_a_short_usage_error(argv):
    # each wrote one stderr line of about 100,000 bytes: the whole text
    code, out, err = _main(argv)
    assert (code, out) == (2, "") and err.startswith("kgo: error: ")
    assert err.count("\n") == 1 and len(err.encode()) <= 200


@pytest.mark.parametrize("argv, usage", [
    (["spectrum", "--b", "0.1", "--n", "0", "--help"], "kgo spectrum [-h] --b B --n N"),
    (["spectrum", "-h"], "kgo spectrum [-h] --b B --n N"),
    (["--help"], "kgo [-h] command ..."),
    (["x", "-h"], "kgo [-h] command ..."),
])
def test_help_anywhere_gives_the_help_text(argv, usage):
    assert cli.parse_args(argv).help.startswith(f"usage: {usage}")


@pytest.mark.parametrize("argv, attribute, value", [
    (["veff", "--b", "1", "--energy", "-1"], "energy", -1.0),
    (["veff", "--b", "1", "--energy", "-1e5"], "energy", -1e5),
    (["veff", "--b", "1", "--energy=-1e5"], "energy", -1e5),
    (["spectrum", "--b=0.1", "--n", "0"], "b", 0.1),
    (["spectrum", "--b", "0.1", "--n", "0", "--b", "2"], "b", 2.0),  # the later one
    (["table", "--b", "0.1", "--n-max", "5"], "n_max", 5),
])
def test_values_are_read_whatever_they_start_with(argv, attribute, value):
    assert getattr(cli.parse_args(argv), attribute) == value
