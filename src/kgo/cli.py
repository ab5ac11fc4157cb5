"""Command-line surface: energy tables, single levels, wavefunction samples,
finite-difference cross-checks and effective-potential profiles.

All data rows go to standard output in csv, tsv or json; diagnostics go to
standard error.  Exit codes: 0 success, 1 runtime/numeric error, 2 usage
error.  Runs are deterministic: identical argv produces identical bytes.
Builders compute the rows, labels (n, b, parity) as text and values as numbers;
the writer alone formats the values, under --decimals, and writes.  A failed
build emits nothing, and a failed write ends in one error line.  Builders
hand the writer lists of Python floats, and no command loads numpy.
"""

import argparse
import errno
import math
import os
import sys
from collections import namedtuple
from contextlib import suppress
from functools import partial
from typing import List, Sequence

from . import spectrum
from .errors import InvalidInput, KgoError, UsageError
from .params import (DEFAULT_POINTS, DEFAULT_TOL, MAX_POINTS, GridSpec, check_integer,
                     check_points, check_positive, check_real, default_extent,
                     evaluate_finite, from_b)

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
# a double's exact decimal expansion has at most 1074 fractional digits, so
# more decimals only add zeros (and a huge K exhausts memory)
MAX_DECIMALS = 1074


# labels (n, b, parity) as text, values as numbers then cells, warnings, json extra
_Emission = namedtuple("_Emission", "labels values warnings extra", defaults=((), {}))


class _Parser(argparse.ArgumentParser):
    # raise instead of sys.exit so parse_args stays an ordinary function
    def error(self, message):
        raise UsageError(message)


def _arg(convert, check, expected: str):
    """An argparse type returning check(convert(text)).

    Any ValueError, from the conversion or from the library's own check,
    becomes the one usage-error form "must be <expected>, got '<text>'".
    """
    def parse(text: str):
        try:
            return check(convert(text))
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
    return parse


_positive_float = _arg(float, partial(check_positive, "value"), "a positive and finite number")
_finite_float = _arg(float, partial(check_real, "value"), "a finite number")
_nonnegative_int = _arg(int, partial(check_integer, high=math.inf), "an integer >= 0")
_positive_int = _arg(int, partial(check_integer, low=1, high=math.inf), "an integer >= 1")
_decimals = _arg(int, partial(check_integer, high=MAX_DECIMALS),
                 f"an integer in [0, {MAX_DECIMALS}]")
_points = _arg(int, check_points, f"an odd integer in [3, {MAX_POINTS}]")


def _positive_float_list(text: str) -> List[float]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated list of numbers, got {text!r}")
    return [_positive_float(t) for t in items]


def build_parser() -> _Parser:
    parser = _Parser(prog="kgo",
                     description="Spectral toolkit for the one-dimensional "
                                 "Klein-Gordon oscillator.")
    sub = parser.add_subparsers(dest="subcommand", metavar="command")
    sub.required = True

    table = sub.add_parser("table", help="dimensionless energy table over n and b")
    table.add_argument("--b", type=_positive_float_list, required=True, metavar="LIST",
                       help="comma-separated strength parameters, e.g. 0.1,0.001")
    table.add_argument("--n-max", type=_nonnegative_int, required=True, metavar="N",
                       help="emit levels n = 0..N")
    table.add_argument("--formula", choices=spectrum.FORMULA_CHOICES, default="eq21",
                       help="relativistic column law: derived 'eq21' "
                            "sqrt(1+2b(n+1/2)) or 'table' sqrt(1+2b(n+1)) "
                            "(default: eq21)")
    table.set_defaults(build=_build_table)

    spec = sub.add_parser("spectrum", help="one energy level")
    spec.add_argument("--b", type=_positive_float, required=True,
                      help="strength parameter")
    spec.add_argument("--n", type=_nonnegative_int, required=True,
                      help="level index within the chosen parity family")
    spec.add_argument("--parity", choices=spectrum.PARITY_CHOICES, default="combined")
    spec.add_argument("--expansion", choices=("exact", "second-order"),
                      default="exact")
    spec.add_argument("--binding", action="store_true",
                      help="also emit the binding energy (energy - 1)")
    spec.set_defaults(build=_build_spectrum)

    wf = sub.add_parser("wavefn", help="sample one stationary state")
    wf.add_argument("--n", type=_nonnegative_int, required=True)
    wf.add_argument("--lambda", dest="lam", type=_positive_float, required=True,
                    help="width parameter m*omega/hbar")
    wf.add_argument("--x-max", type=_positive_float, default=None,
                    help="half extent of the symmetric grid "
                         "(default: twice the turning point plus tail padding)")
    wf.add_argument("--points", type=_points, default=801,
                    help=f"odd grid size in [3, {MAX_POINTS}] (default: 801); the work "
                         f"budget refuses n x points above {WAVEFN_BUDGET} with exit 1")
    wf.set_defaults(build=_build_wavefn)

    orc = sub.add_parser("oracle",
                         help="finite-difference eigenvalues vs the closed form")
    orc.add_argument("--b", type=_positive_float, required=True)
    orc.add_argument("--count", type=_positive_int, required=True,
                     help="number of lowest levels to verify")
    orc.add_argument("--points", type=_points, default=DEFAULT_POINTS)
    orc.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL,
                     help=f"bisection bracket width on k^2 (default: {DEFAULT_TOL:g})")
    orc.set_defaults(build=_build_oracle)

    veff = sub.add_parser("veff", help="vector-coupling effective potential profile")
    veff.add_argument("--b", type=_positive_float, required=True)
    veff.add_argument("--energy", type=_finite_float, required=True,
                      help="total energy in units of m c^2")
    veff.add_argument("--x-max", type=_positive_float, default=None,
                      help="half extent of the symmetric grid "
                           "(default: 2.5x the potential zero, or 5/b when E <= 0)")
    veff.add_argument("--points", type=_points, default=201)
    veff.set_defaults(build=_build_veff)

    for cmd in sub.choices.values():
        cmd.add_argument("--format", choices=FORMATS, default="csv",
                         help="output encoding (default: csv)")
        cmd.add_argument("--decimals", type=_decimals, default=None, metavar="K",
                         help="fixed K-decimal rounding (half to even, K <= "
                              f"{MAX_DECIMALS}) instead of the default 6 significant digits")
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    return build_parser().parse_args(list(argv))


def _fmt(values, decimals: int | None) -> List[str]:
    """Cells for a list of numbers: 6 significant digits or K fixed decimals."""
    spec = ".6g" if decimals is None else f".{decimals}f"
    # adding 0.0 turns -0.0 into 0.0, so no cell reads "-0"
    return [format(v + 0.0, spec) for v in values]


def _build_table(ns: argparse.Namespace) -> _Emission:
    check_integer(ns.n_max)  # before the list of levels is built
    n_values = range(ns.n_max + 1)
    e_rel, e_nr_plus_one = spectrum.generate_table(ns.b, n_values, ns.formula)
    # rows run n-major, b-minor: each n cell repeats len(b) times and the
    # b cells repeat once per n, formatted once and shared
    n_cells = [cell for n in n_values for cell in [str(n)] * len(ns.b)]
    return _Emission({"n": n_cells, "b": _fmt(ns.b, None) * len(n_values)},
                     {"e_rel": e_rel, "e_nr_plus_one": e_nr_plus_one},
                     [TABLE_FORMULA_WARNING] if ns.formula == "table" else [])


def _build_spectrum(ns: argparse.Namespace) -> _Emission:
    index = spectrum.combined_index(ns.n, ns.parity)
    if ns.expansion == "second-order":
        energy = spectrum.energy_second_order(index, ns.b)
        binding = spectrum.binding_second_order(index, ns.b)
    else:
        energy = spectrum.energy_combined(index, ns.b)
        binding = spectrum.binding_energy(index, ns.b)
    return _Emission({"n": [str(ns.n)], "b": _fmt([ns.b], None), "parity": [ns.parity]},
                     {"energy": [energy], **({"binding": [binding]} if ns.binding else {})})


def _build_wavefn(ns: argparse.Namespace) -> _Emission:
    from . import wavefn
    # checked before any compute; a level past MAX_LEVEL is refused as such
    if check_integer(ns.n) * ns.points > WAVEFN_BUDGET:
        raise InvalidInput(f"n x points must be at most {WAVEFN_BUDGET}, "
                           f"got {ns.n} x {ns.points} = {ns.n * ns.points}")
    extent = ns.x_max if ns.x_max is not None else default_extent(ns.n, ns.lam)
    grid = GridSpec(extent, ns.points)
    nodes = grid.nodes()  # built once: the x column, and the points psi runs on
    return _Emission({}, {"x": nodes, "psi": wavefn.sample(ns.n, grid, ns.lam, _nodes=nodes)})


def _build_oracle(ns: argparse.Namespace) -> _Emission:
    from . import oracle
    levels = range(ns.count)
    k_squared, e_oracle = oracle.oracle_energies(from_b(ns.b), ns.count,
                                                 ns.points, ns.tol)
    reference = [spectrum.energy_combined(n, ns.b) for n in levels]
    return _Emission({"n": [str(n) for n in levels]},
                     {"k_squared": k_squared, "e_oracle": e_oracle, "e_eq21": reference,
                      "rel_diff": [abs(e - r) / r for e, r in zip(e_oracle, reference)]})


def _build_veff(ns: argparse.Namespace) -> _Emission:
    from . import oracle
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
    return _Emission({}, {"x": grid.nodes(), "v_eff": v_eff},
                     extra={"unbounded_below_detected": unbounded})


def _render(emission: _Emission, output_format: str, decimals: int | None) -> str:
    """One writer for all formats: it formats the value columns, then a format
    sets how cells, rows and the frame (head, row separator, tail) are written."""
    values = emission.values
    for name, column in values.items():  # frees each value list once its cells exist
        values[name] = _fmt(column, decimals)
    columns = {**emission.labels, **values}
    names, cells = list(columns), list(columns.values())
    if output_format == "json" or emission.extra:  # csv and tsv rows alone need no json
        import json
    if output_format == "json":
        # a number is its csv cell; an integral cell such as "1" gains ".0" so
        # every value column loads as a float, while n cells stay ints
        cells = [column if name == "n" else map(json.dumps, column) if name == "parity"
                 else (c if "." in c or "e" in c else c + ".0" for c in column)
                 for name, column in zip(names, cells)]
        row = ("{" + ",".join(f"{json.dumps(name)}:%s" for name in names) + "}").__mod__
        trailer = json.dumps({"warnings": emission.warnings, **emission.extra},
                             separators=(",", ":"))
        head, row_sep, tail = '{"rows":[', ",", "]," + trailer[1:]
    else:
        sep = "," if output_format == "csv" else "\t"
        row = sep.join  # half the time of a "%s,%s" template
        notes = [f"{key}: {json.dumps(value)}" for key, value in emission.extra.items()]
        head, row_sep = sep.join(names) + "\n", "\n"
        tail = "".join(f"\n# {note}" for note in [*notes, *emission.warnings])
    return head + row_sep.join(map(row, zip(*cells))) + tail + "\n"


def run(ns: argparse.Namespace) -> None:
    """Execute parsed arguments, writing rows to standard output."""
    if sys.stdout is None:  # fd 1 was closed at start: nowhere to write rows
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    sys.stdout.write(_render(ns.build(ns), ns.format, ns.decimals))
    sys.stdout.flush()  # a full disk or a closed pipe fails here, inside main's try


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
