"""Closed-form bound-state energies of the relativistic oscillator.

Two square-root laws coexist on purpose.  energy_combined implements the
derived spectrum Ebar_n = sqrt(1 + 2 b (n + 1/2)), which the independent
finite-difference oracle confirms.  table_row carries the alternative
sqrt(1 + 2 b (n + 1)) law that the tabulated reference values follow; it
is exposed (CLI formula "table") so the disagreement stays visible instead
of being silently patched either way.  Both are the one function
_energy_law at shift 1/2 or 1, evaluated on scalars or whole arrays.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EmptyInput, NonPositiveParameter
from .params import check_positive, evaluate_finite

# plain machine integers for the level index
MAX_LEVEL = 10**6

# formula -> shift s of the law sqrt(1 + 2 b (n + s))
_SHIFTS = {"eq21": 0.5, "table": 1.0}
FORMULA_CHOICES = tuple(_SHIFTS)


def _check_levels(n) -> None:
    """Raise unless n (an int or an array of ints) lies in [0, MAX_LEVEL]."""
    levels = np.asarray(n)
    if levels.dtype.kind not in "iu":
        raise NonPositiveParameter(f"level index must be an integer, got {n!r}")
    outside = levels[(levels < 0) | (levels > MAX_LEVEL)]
    if outside.size:
        raise NonPositiveParameter(
            f"level index must be in [0, {MAX_LEVEL}], got {outside.flat[0]}")


def _energy_law(n, b, shift: float):
    """sqrt(1 + 2 b (n + shift)), elementwise for array n and b."""
    return evaluate_finite(f"energy sqrt(1 + 2b(n + {shift:g}))",
                           lambda: np.sqrt(1.0 + 2.0 * b * (n + shift)))


@dataclass(frozen=True)
class SpectrumRow:
    """Relativistic and first-order columns of the reference table.

    One (n, b) entry from table_row; whole columns, as numpy arrays in
    n-major then b-minor order, from generate_table.
    """

    n: int
    b: float
    e_rel: float
    e_nr_plus_one: float


def energy_combined(n: int, b: float) -> float:
    """Ebar_n = sqrt(1 + 2 b (n + 1/2)); even and odd states interleaved."""
    _check_levels(n)
    return float(_energy_law(n, check_positive("b", b), 0.5))


def energy_even(n: int, b: float) -> float:
    """n-th even state, sqrt(1 + 2 b (2n + 1/2)); equals energy_combined(2n, b)."""
    _check_levels(n)
    return energy_combined(2 * n, b)


def energy_odd(n: int, b: float) -> float:
    """n-th odd state, sqrt(1 + 2 b (2n + 3/2)); equals energy_combined(2n+1, b)."""
    _check_levels(n)
    return energy_combined(2 * n + 1, b)


def energy_second_order(n: int, b: float) -> float:
    """Expansion 1 + b (n + 1/2) - b^2 (n + 1/2)^2 / 2 of the combined law."""
    _check_levels(n)
    bs = check_positive("b", b) * (n + 0.5)
    return evaluate_finite("second-order energy 1 + b(n + 1/2) - b^2 (n + 1/2)^2 / 2",
                           lambda: 1.0 + bs - 0.5 * bs ** 2)


def binding_energy(n: int, b: float) -> float:
    """Binding energy Ebar_n - 1 in units of m c^2.

    Dividing by b counts oscillator quanta: the ratio tends to n + 1/2 as
    b -> 0, the non-relativistic level.
    """
    return energy_combined(n, b) - 1.0


def table_row(n: int, b: float) -> SpectrumRow:
    """Row of the reference table.

    e_rel follows sqrt(1 + 2 b (n + 1)), the law the tabulated values
    encode, which differs from energy_combined's (n + 1/2) law.
    e_nr_plus_one is 1 + b (n + 1/2) exactly.
    """
    _check_levels(n)
    b = check_positive("b", b)
    return SpectrumRow(n=n, b=b, e_rel=float(_energy_law(n, b, 1.0)),
                       e_nr_plus_one=1.0 + b * (n + 0.5))


def generate_table(b_values: Iterable[float], n_values: Iterable[int],
                   formula: str = "eq21") -> SpectrumRow:
    """Columns for every (n, b) pair, n-major then b-minor.

    formula selects what fills e_rel: "eq21" the derived (n + 1/2) law,
    "table" the (n + 1) law of table_row.  Each entry equals the scalar
    energy_combined or table_row value bit for bit.
    """
    if formula not in FORMULA_CHOICES:
        raise ValueError(f"formula must be one of {FORMULA_CHOICES}, got {formula!r}")
    b = np.array([check_positive("b", v) for v in b_values])
    n = np.array(list(n_values))
    if not b.size or not n.size:
        raise EmptyInput("b_values and n_values must both be non-empty")
    _check_levels(n)
    n_col = np.repeat(n, b.size)
    b_col = np.tile(b, n.size)
    return SpectrumRow(n=n_col, b=b_col,
                       e_rel=_energy_law(n_col, b_col, _SHIFTS[formula]),
                       e_nr_plus_one=1.0 + b_col * (n_col + 0.5))
