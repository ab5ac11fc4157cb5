"""Command-line surface: energy tables, single levels, wavefunction samples,
finite-difference cross-checks and effective-potential profiles.

All data rows go to standard output in csv, tsv or json; diagnostics go to
standard error.  Exit codes: 0 success, 1 runtime/numeric error, 2 usage
error.  Runs are deterministic: identical argv produces identical bytes.
Each subcommand's options are declared once, in COMMANDS, and parse_args
reads every argv, writes every usage error and builds every help text from
that table alone.
Builders compute the rows, labels (n, b, parity) as text and values as numbers,
the table's in blocks of levels (TABLE_BLOCK), each computed when the writer
takes it by index, and wavefn's and veff's grids in blocks of TABLE_BLOCK rows;
the writer alone formats the values, under --decimals, all before the first
byte, and holds each row once as text.  An output of two blocks or more and
_FORK_MIN_ROWS rows or more hands its blocks to kgo.fork, the one module
that knows about processes: where a fork pays there (a second CPU, os.fork,
one thread), a forked child fills blocks from the last down while this
process fills them from the first up, with the same templates and code, so
the bytes are those of one process, and sends them to be written once both
parts are whole.  A failed build emits nothing, a failed write one error
line; entry, the process entry, ends it right after the last flush.
Builders hand the writer lists of Python floats, and no command loads numpy
or json.  A start loads only the code its subcommand runs: this module,
kgo.errors (the exceptions and input rules) and kgo.spectrum (which `table`
and `spectrum` need), then params and the kernel module inside the wavefn,
oracle and veff builders, kgo.fork where the writer's, the oracle's or
wavefn's work is large enough to repay a child, and kgo.helptext for -h or
--help alone.
"""

import errno
import math
import os
import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence
from contextlib import suppress
from functools import partial
from itertools import chain, repeat
from operator import add
from types import SimpleNamespace

from . import spectrum
from .errors import (DEFAULT_POINTS, DEFAULT_TOL, MAX_POINTS, InvalidInput, KgoError,
                     UsageError, check_integer, check_points, check_positive, check_real, cut,
                     evaluate_finite, show)

FORMATS = ("csv", "tsv", "json")

TABLE_FORMULA_WARNING = (
    "formula 'table' uses sqrt(1 + 2b(n+1)), the law inferred from the "
    "tabulated reference values; the derived spectrum is sqrt(1 + 2b(n+1/2)) "
    "(formula 'eq21') and the finite-difference oracle agrees with the latter"
)

VEFF_DEFAULT_EXTENT_FACTOR = 2.5  # default x_max as a multiple of the V_eff zero
# a wavefn run takes up to n x points / 2 recurrence steps; this cap keeps
# the slowest accepted one below 15 s (2-vCPU Xeon VM, Python 3.11)
WAVEFN_BUDGET = 3 * 10**8
# an oracle run bisects count levels on an operator of about points rows; this
# cap keeps the slowest accepted one, with count near points, near 15 s (14 s
# for 4999 x 5001 at b = 10, in two processes, on the same VM)
ORACLE_BUDGET = 25 * 10**6
# a double's exact decimal expansion has at most 1074 fractional digits, so
# more decimals only add zeros (and a huge K exhausts memory)
MAX_DECIMALS = 1074


# levels per generate_table call: one block of table rows is computed, then
# formatted; a table of more than 4 b values takes fewer, so that a block holds
# at most 4 * TABLE_BLOCK rows, or one level
TABLE_BLOCK = 4096
# A forked child costs about 3 ms; from about 2 * 10^4 table rows the second
# CPU repays it (_render, on a 2-vCPU Linux VM)
_FORK_MIN_ROWS = 2 * 10**4

# block(i), for i in range(count), computes block i, a (labels, values) pair of
# columns.  Rows come in groups of one template each (see _render): a label
# (n, b, parity) holds one text cell per group and a value one number per row.
# A label named in fixed holds instead the cells of a group row by row, the
# same in every group (the table's b); without one a group is a single row.
# extra holds bools.  rows counts the rows where a builder of many blocks counts them.
_Emission = namedtuple("_Emission", "block count warnings extra fixed rows",
                       defaults=(1, (), {}, (), 0))


def _value_blocks(columns: dict, **fields) -> _Emission:
    """A grid's value columns, one row a node, in blocks of TABLE_BLOCK rows."""
    rows = len(columns["x"])
    block = lambda i: ({}, {name: c[i * TABLE_BLOCK:(i + 1) * TABLE_BLOCK]
                            for name, c in columns.items()})
    return _Emission(block, -(-rows // TABLE_BLOCK), rows=rows, **fields)


def _arg(convert, check, expected: str):
    """An option converter returning check(convert(text)).

    Any ValueError, from the conversion or from the library's own check,
    becomes the one usage-error text "must be <expected>, got '<text>'", the
    text quoted as errors.show quotes it, cut to 80 characters.
    """
    def parse(text: str):
        try:
            return check(convert(text))
        except ValueError:
            raise ValueError(f"must be {expected}, got {show(text)}") from None
    return parse


_positive_float = _arg(float, partial(check_positive, "value"), "a positive and finite number")
_finite_float = _arg(float, partial(check_real, "value"), "a finite number")
_nonnegative_int = _arg(int, partial(check_integer, high=math.inf), "an integer >= 0")
_positive_int = _arg(int, partial(check_integer, low=1, high=math.inf), "an integer >= 1")
_decimals = _arg(int, partial(check_integer, high=MAX_DECIMALS),
                 f"an integer in [0, {MAX_DECIMALS}]")
_points = _arg(int, check_points, f"an odd integer in [3, {MAX_POINTS}]")


def _positive_float_list(text: str) -> list[float]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError(f"must be a comma-separated list of numbers, got {show(text)}")
    return [_positive_float(t) for t in items]


def _fmt(values) -> list[str]:
    """Cells for a list of numbers, to 6 significant digits."""
    # adding 0.0 turns -0.0 into 0.0, so no cell reads "-0"
    return [format(v + 0.0, ".6g") for v in values]


def _build_table(ns: SimpleNamespace) -> _Emission:
    levels = range(check_integer(ns.n_max) + 1)
    b_cells = _fmt(ns.b)  # formatted once: each level's group of rows repeats them
    step = max(1, min(TABLE_BLOCK, 4 * TABLE_BLOCK // len(ns.b)))

    def block(i):  # rows run n-major, b-minor: a group of rows is a level
        part = levels[i * step:(i + 1) * step]
        e_rel, e_nr_plus_one = spectrum.generate_table(ns.b, part, ns.formula)
        return ({"n": list(map(str, part)), "b": b_cells},
                {"e_rel": e_rel, "e_nr_plus_one": e_nr_plus_one})
    return _Emission(block, -(-len(levels) // step),
                     [TABLE_FORMULA_WARNING] if ns.formula == "table" else [],
                     fixed=("b",), rows=len(levels) * len(ns.b))


def _build_spectrum(ns: SimpleNamespace) -> _Emission:
    index = spectrum.combined_index(ns.n, ns.parity)
    if ns.expansion == "second-order":
        energy = spectrum.energy_second_order(index, ns.b)
        binding = spectrum.binding_second_order(index, ns.b)
    else:
        energy = spectrum.energy_combined(index, ns.b)
        binding = spectrum.binding_energy(index, ns.b)
    return _Emission(lambda i: ({"n": [str(ns.n)], "b": _fmt([ns.b]), "parity": [ns.parity]},
                                {"energy": [energy],
                                 **({"binding": [binding]} if ns.binding else {})}))


def _build_wavefn(ns: SimpleNamespace) -> _Emission:
    from . import wavefn
    from .params import GridSpec, default_extent
    # checked before any compute; a level past MAX_LEVEL is refused as such
    if check_integer(ns.n) * ns.points > WAVEFN_BUDGET:
        raise InvalidInput(f"n x points must be at most {WAVEFN_BUDGET}, "
                           f"got {ns.n} x {ns.points} = {ns.n * ns.points}")
    extent = ns.x_max if ns.x_max is not None else default_extent(ns.n, ns.lam)
    grid = GridSpec(extent, ns.points)
    nodes = grid.nodes()  # built once: the x column, and the points psi runs on
    return _value_blocks({"x": nodes, "psi": wavefn.sample(ns.n, grid, ns.lam, _nodes=nodes)})


def _build_oracle(ns: SimpleNamespace) -> _Emission:
    from . import oracle
    from .params import from_b
    # checked before any compute; a count past points - 2 is refused as such
    if check_integer(ns.count, "count", 1, ns.points - 2) * ns.points > ORACLE_BUDGET:
        raise InvalidInput(f"count x points must be at most {ORACLE_BUDGET}, "
                           f"got {ns.count} x {ns.points} = {ns.count * ns.points}")
    levels = range(ns.count)
    k_squared, e_oracle = oracle.oracle_energies(from_b(ns.b), ns.count,
                                                 ns.points, ns.tol)
    reference = spectrum._energy_law(levels, [ns.b], 0.5)  # energy_combined bit for bit
    return _Emission(lambda i: ({"n": [str(n) for n in levels]},
                                {"k_squared": k_squared, "e_oracle": e_oracle, "e_eq21": reference,
                                 "rel_diff": [abs(e - r) / r
                                              for e, r in zip(e_oracle, reference)]}))


def _build_veff(ns: SimpleNamespace) -> _Emission:
    from . import oracle
    from .params import GridSpec, from_b
    params = from_b(ns.b)
    if ns.x_max is not None:
        extent = ns.x_max
    else:
        # no zero at E <= 0: take the one at E = m c^2, so u = omega x spans [-5, 5]
        xstar = (oracle.veff_zero_crossing(params, ns.energy)
                 or oracle.veff_zero_crossing(params, 1.0))
        extent = evaluate_finite(f"default grid extent {VEFF_DEFAULT_EXTENT_FACTOR} x*",
                                 lambda: VEFF_DEFAULT_EXTENT_FACTOR * xstar)
    grid = GridSpec(extent, ns.points)
    v_eff, unbounded = oracle.profile_effective_potential(params, ns.energy, grid)
    return _value_blocks({"x": grid.nodes(), "v_eff": v_eff},
                         extra={"unbounded_below_detected": unbounded})


# One option of a subcommand.  convert turns the option's text into its
# value, or raises ValueError with the usage message; None marks a flag that
# takes no value and sets True.  choices, metavar and help write its help line.
Option = namedtuple("Option", "flag dest convert default required choices help metavar",
                    defaults=(None, False, None, None, None))

_COMMON = (
    Option("--format", "format", str, "csv", choices=FORMATS,
           help="output encoding (default: csv)"),
    Option("--decimals", "decimals", _decimals, metavar="K",
           help=f"fixed K-decimal rounding (half to even, K <= {MAX_DECIMALS}) "
                "instead of the default 6 significant digits"),
)

# subcommand -> (help, builder, options): the one declaration of the command line
COMMANDS = {
    "table": ("dimensionless energy table over n and b", _build_table, (
        Option("--b", "b", _positive_float_list, required=True, metavar="LIST",
               help="comma-separated strength parameters, e.g. 0.1,0.001"),
        Option("--n-max", "n_max", _nonnegative_int, required=True, metavar="N",
               help="emit levels n = 0..N"),
        Option("--formula", "formula", str, "eq21", choices=spectrum.FORMULA_CHOICES,
               help="relativistic column law: derived 'eq21' sqrt(1+2b(n+1/2)) or "
                    "'table' sqrt(1+2b(n+1)) (default: eq21)"),
    ) + _COMMON),
    "spectrum": ("one energy level", _build_spectrum, (
        Option("--b", "b", _positive_float, required=True, help="strength parameter"),
        Option("--n", "n", _nonnegative_int, required=True,
               help="level index within the chosen parity family"),
        Option("--parity", "parity", str, "combined", choices=spectrum.PARITY_CHOICES,
               help="family that --n counts in: level 2n of 'even', 2n+1 of 'odd', "
                    "n of 'combined' (default: combined)"),
        Option("--expansion", "expansion", str, "exact", choices=("exact", "second-order"),
               help="'exact' sqrt(1+2b(n+1/2)) or its 'second-order' expansion in b "
                    "(default: exact)"),
        Option("--binding", "binding", None, False,
               help="also emit the binding energy (energy - 1)"),
    ) + _COMMON),
    "wavefn": ("sample one stationary state", _build_wavefn, (
        Option("--n", "n", _nonnegative_int, required=True,
               help="level index of the stationary state"),
        Option("--lambda", "lam", _positive_float, required=True,
               help="width parameter m*omega/hbar"),
        Option("--x-max", "x_max", _positive_float,
               help="half extent of the symmetric grid "
                    "(default: twice the turning point plus tail padding)"),
        Option("--points", "points", _points, 801,
               help=f"odd grid size in [3, {MAX_POINTS}] (default: 801); the work budget "
                    f"refuses n x points above {WAVEFN_BUDGET} with exit 1"),
    ) + _COMMON),
    "oracle": ("finite-difference eigenvalues vs the closed form", _build_oracle, (
        Option("--b", "b", _positive_float, required=True, help="strength parameter"),
        Option("--count", "count", _positive_int, required=True,
               help="number of lowest levels to verify; the work budget refuses "
                    f"count x points above {ORACLE_BUDGET} with exit 1"),
        Option("--points", "points", _points, DEFAULT_POINTS,
               help=f"odd grid size in [3, {MAX_POINTS}] (default: {DEFAULT_POINTS})"),
        Option("--tol", "tol", _positive_float, DEFAULT_TOL,
               help=f"bisection bracket width on k^2 (default: {DEFAULT_TOL:g})"),
    ) + _COMMON),
    "veff": ("vector-coupling effective potential profile", _build_veff, (
        Option("--b", "b", _positive_float, required=True, help="strength parameter"),
        Option("--energy", "energy", _finite_float, required=True,
               help="total energy in units of m c^2"),
        Option("--x-max", "x_max", _positive_float,
               help="half extent of the symmetric grid "
                    "(default: 2.5x the potential zero, or 5/b when E <= 0)"),
        Option("--points", "points", _points, 201,
               help=f"odd grid size in [3, {MAX_POINTS}] (default: 201)"),
    ) + _COMMON),
}


def _help(name: str | None) -> SimpleNamespace:
    """The namespace of -h or --help: the help text of a subcommand, or of kgo for None."""
    from .helptext import help_text
    return SimpleNamespace(help=help_text(name))


def _invalid_choice(argument: str, value, choices) -> UsageError:
    return UsageError(f"argument {argument}: invalid choice: {show(value)} "
                      f"(choose from {', '.join(map(repr, choices))})")


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The namespace of argv, read from COMMANDS: the subcommand's name,
    builder and options, or for -h or --help the help text alone.

    argv is a subcommand, then flags and `--option value` or `--option=value`
    in any order, a later one replacing an earlier one; the token after a
    value option is its value, whatever it starts with.  The first token at
    fault raises UsageError, with the message argparse gives for it, but one
    that shows at most 80 characters of an argv text (errors.show, errors.cut).
    """
    tokens = iter(argv)
    name = next(tokens, None)
    if name not in COMMANDS:
        if "-h" in argv or "--help" in argv:
            return _help(None)
        if name is None:
            raise UsageError("the following arguments are required: command")
        raise _invalid_choice("command", name, COMMANDS)
    _, build, options = COMMANDS[name]
    by_flag = {option.flag: option for option in options}
    values = {option.dest: option.default for option in options}
    for token in tokens:
        if token in ("-h", "--help"):
            return _help(name)
        flag, equals, text = token.partition("=")
        option = by_flag.get(flag)
        # no prefix of a flag stands for it, and a flag takes no =value
        if option is None or option.convert is None and equals:
            raise UsageError(f"unrecognized arguments: {cut(token)}")
        if option.convert is None:
            values[option.dest] = True
            continue
        if not equals:
            text = next(tokens, None)
            if text is None:
                raise UsageError(f"argument {flag}: expected one argument")
        try:
            value = option.convert(text)
        except ValueError as exc:
            raise UsageError(f"argument {flag}: {exc}") from None
        if option.choices is not None and value not in option.choices:
            raise _invalid_choice(flag, value, option.choices)
        values[option.dest] = value
    # a required option has no default: it is missing while its value is None
    missing = [option.flag for option in options
               if option.required and values[option.dest] is None]
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    return SimpleNamespace(subcommand=name, build=build, **values)


def _quoted(text: str) -> str:
    """The json string of one of the program's own texts (a column name, a
    parity, a warning), none of which holds a character that json escapes."""
    return '"' + text + '"'


_JSON_BOOL = {False: "false", True: "true"}  # an extra value, in json


def _integral(cell: str) -> str:
    """A json number cell that loads as a float: an integral cell such as "1" gains ".0"."""
    return cell if "." in cell or "e" in cell else cell + ".0"


def _render(emission: _Emission, output_format: str, decimals: int | None) -> Iterator[str]:
    """One writer for all formats: an iterator over its texts, in output order
    and never joined, which are the head, each block's rows, the row
    separator between blocks and the tail.  Each group of rows is one `%`
    template: a fixed label's cells, the separators and the json keys are
    literal text in it, every other label is a `%s` and every value a `%.6g`
    or `%.Kf`.  A block fills one template per group through one zip of its
    columns: for each row of the group, each label's cells and each value
    column's iterator, which zip advances once a row.

    Each block is taken, and its template built, by index, so no block needs
    another.  An output of _FORK_MIN_ROWS rows or more hands its blocks to
    fork.apart, which, where a fork pays, has a forked child fill them from
    the last down while this process fills them from the first up: both fill
    the same templates with the same code, so the texts are those of one
    process.  Every block is filled before the first text is handed out,
    so a run that fails hands out nothing, and once this returns in one
    process only the texts are held."""
    value = "%.6g" if decimals is None else f"%.{decimals}f"

    def numbers(column):  # no cell reads "-0": a column above 0 has no -0.0, 0.0 + -0.0 is
        # 0.0, and a negative value whose K-decimal cell has only zero digits goes in as 0.0
        if (least := min(column)) > 0:
            return column
        if decimals is None or least >= 0:
            return map(add, repeat(0.0), column)
        return [v if round(v, decimals) else 0.0 for v in column]

    forms = {}  # label -> the form its cells take in the output, where it differs
    if output_format == "json":
        # n cells stay ints and parity cells strings; every other cell loads as a float
        forms = {"b": _integral, "parity": _quoted}
        if decimals is None:  # a .6g cell may be integral: it goes in as text
            value, numbers = "%s", lambda column: map(_integral, _fmt(column))
        elif decimals == 0:  # a .0f cell is always integral, a .Kf one never
            value += ".0"
        row = lambda names, cells: "{" + ",".join(map("%s:%s".__mod__, zip(
            map(_quoted, names), cells))) + "}"
        fields = [f'"warnings":[{",".join(map(_quoted, emission.warnings))}]',
                  *(f"{_quoted(key)}:{_JSON_BOOL[flag]}" for key, flag in emission.extra.items())]
        row_sep, tail = ",", "]," + ",".join(fields) + "}"
    else:
        sep = "," if output_format == "csv" else "\t"
        row = lambda names, cells: sep.join(cells)
        notes = [f"{key}: {_JSON_BOOL[flag]}" for key, flag in emission.extra.items()]
        row_sep = "\n"
        tail = "".join(f"\n# {note}" for note in [*notes, *emission.warnings])

    def fill(i):  # [the head, or before any later block the row separator, block i's rows]
        labels, values = emission.block(i)
        labels = {name: list(map(forms[name], cells)) if name in forms else cells
                  for name, cells in labels.items()}
        # every block has the same columns and fixed cells, so the same template
        names = [*labels, *values]
        group = len(labels[emission.fixed[0]]) if emission.fixed else 1
        template = row_sep.join(row(names, [
            labels[name][r].replace("%", "%%") if name in emission.fixed
            else "%s" if name in labels else value for name in names]) for r in range(group))
        values = {name: iter(numbers(column)) for name, column in values.items()}
        # each row of a group's template takes a label's cell of the group and
        # the next cell of a value: zip pulls a value's one iterator once a row
        cells = [labels[name] if name in labels else values[name]
                 for _ in range(group) for name in names if name not in emission.fixed]
        head = '{"rows":[' if output_format == "json" else sep.join(names) + "\n"
        return [row_sep if i else head, row_sep.join(map(template.__mod__, zip(*cells)))]

    if emission.count > 1 and emission.rows >= _FORK_MIN_ROWS:
        from . import fork
        blocks = fork.apart(fill, emission.count)
    else:
        blocks = [fill(i) for i in range(emission.count)]
    return chain(chain.from_iterable(blocks), [tail + "\n"])


def run(ns: SimpleNamespace) -> None:
    """Execute parsed arguments, writing rows, or the help text, to standard output.

    Once every block is formatted, in one process or two (_render), each text
    goes in turn to the stream's binary layer, a forked child's as it arrives,
    or the write that refused a byte raises its OSError: unbuffered
    (python -u), that layer may take only part of a write, such as when the
    reader leaves, and the text layer drops the rest.  A write that raises
    drops the texts, and with them a forked child's frames: the child is
    killed and reaped (fork.apart)."""
    out = sys.stdout
    if out is None:  # fd 1 was closed at start: nowhere to write rows
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    texts = [ns.help] if hasattr(ns, "help") else _render(ns.build(ns), ns.format, ns.decimals)
    binary = getattr(out, "buffer", None)
    if binary is None:  # a text stream alone, such as an in-process caller's StringIO
        out.writelines(texts)
    else:
        out.flush()  # text written to out earlier goes first
        for data in (memoryview(text.encode(out.encoding, out.errors)) for text in texts):
            while data:
                written = binary.write(data)
                if written is None:  # a non-blocking stdout that is full
                    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                data = data[written:]
    out.flush()  # a full disk or a closed pipe fails here, inside main's try


def main(argv: Sequence[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        run(parse_args(args))
    except (KgoError, MemoryError, OSError) as exc:  # OSError: stdout refused the rows
        message = (f"cannot write output: {exc.strerror}" if isinstance(exc, OSError)
                   else "out of memory" if isinstance(exc, MemoryError) else exc)
        # stderr is None (fd 2 closed at start) or refuses: only the exit code tells
        with suppress(AttributeError, OSError):  # not print: file=None means stdout
            sys.stderr.write(f"kgo: error: {message}\n")
        return 2 if isinstance(exc, UsageError) else 1
    return 0


def entry():
    """The process entry of `python -m kgo` and of the kgo script, which never
    returns: main's code is the exit status, given as soon as stdout and stderr
    are flushed, without interpreter teardown and so without atexit hooks.  A
    stream that is closed or refuses the flush has had its say in main."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        with suppress(AttributeError, OSError):  # None: the fd was closed at start
            stream.flush()
    os._exit(code)
