"""Closed-form bound-state energies of the relativistic oscillator.

Two square-root laws coexist on purpose.  energy_combined implements the
derived spectrum Ebar_n = sqrt(1 + 2 b (n + 1/2)), which the independent
finite-difference oracle confirms.  generate_table's formula "table"
carries the alternative sqrt(1 + 2 b (n + 1)) law that the tabulated
reference values follow; it is exposed (CLI formula "table") so the
disagreement stays visible instead of being silently patched either way.
Both are the one function _energy_law, at shift 1/2 or 1, on Python
floats: a table cell is the scalar energy bit for bit.
"""

import math
from collections.abc import Iterable, Sequence

from .errors import (MAX_LEVEL, TEXTS, InvalidInput, check_integer, check_positive,
                     evaluate_finite, show)

# formula -> shift s of the law sqrt(1 + 2 b (n + s))
_SHIFTS = {"eq21": 0.5, "table": 1.0}
FORMULA_CHOICES = tuple(_SHIFTS)

# parity family -> offset k of its level n in the combined index 2n + k
_PARITY_OFFSETS = {"even": 0, "odd": 1}
PARITY_CHOICES = (*_PARITY_OFFSETS, "combined")


def combined_index(n: int, parity: str) -> int:
    """Index of level n of a parity family in the combined spectrum: n, 2n or 2n + 1."""
    if not isinstance(parity, str) or parity not in PARITY_CHOICES:  # an array's == is elementwise
        raise InvalidInput(f"parity must be one of {PARITY_CHOICES}, got {show(parity)}")
    if parity == "combined":
        return check_integer(n)
    offset = _PARITY_OFFSETS[parity]
    return 2 * check_integer(n, f"{parity} level index", 0, (MAX_LEVEL - offset) // 2) + offset


def _energy_law(levels: list[int], strengths: list[float], shift: float) -> list[float]:
    """sqrt(1 + 2 b (n + shift)) for every level n, then every strength b."""
    return evaluate_finite(f"energy sqrt(1 + 2b(n + {shift:g}))",
                           lambda: [math.sqrt(1.0 + 2.0 * b * (n + shift))
                                    for n in levels for b in strengths])


def energy_combined(n: int, b: float) -> float:
    """Ebar_n = sqrt(1 + 2 b (n + 1/2)); even and odd states interleaved."""
    n = check_integer(n)
    return _energy_law([n], [check_positive("b", b)], 0.5)[0]


def _second_order(n: int, b: float, rest: float) -> float:
    """rest + b (n + 1/2) - b^2 (n + 1/2)^2 / 2; a rest of 0.0 adds nothing, exactly."""
    n = check_integer(n)
    bs = check_positive("b", b) * (n + 0.5)
    return evaluate_finite(f"second-order energy {rest:g} + b(n + 1/2) - b^2 (n + 1/2)^2 / 2",
                           lambda: rest + bs - 0.5 * bs ** 2)


def energy_second_order(n: int, b: float) -> float:
    """Expansion 1 + b (n + 1/2) - b^2 (n + 1/2)^2 / 2 of the combined law."""
    return _second_order(n, b, 1.0)


def binding_second_order(n: int, b: float) -> float:
    """Binding energy b (n + 1/2) - b^2 (n + 1/2)^2 / 2 of the expansion, summed
    without the rest energy: energy_second_order(n, b) - 1 cancels as b -> 0."""
    return _second_order(n, b, 0.0)


def binding_energy(n: int, b: float) -> float:
    """Binding energy Ebar_n - 1 in units of m c^2.

    Evaluated as s / (Ebar_n + 1) with s = 2b(n + 1/2), exact algebra that
    keeps full relative precision where Ebar_n - 1 would cancel.  Dividing
    by b counts oscillator quanta: the ratio tends to n + 1/2 as b -> 0, the
    non-relativistic level.  Like energy_combined it computes with the int and
    the float that check_integer and check_positive return.
    """
    n, b = check_integer(n), check_positive("b", b)
    return 2.0 * b * (n + 0.5) / (energy_combined(n, b) + 1.0)


def _levels(n_values: Iterable[int]) -> Sequence[int]:
    """n_values with each level checked by check_integer.  A range holds ints
    between its ends, so only they are checked; any other iterable, and a range
    past [0, MAX_LEVEL], is checked level by level, for the same message."""
    if isinstance(n_values, range) and n_values and all(
            0 <= end <= MAX_LEVEL for end in (n_values[0], n_values[-1])):
        return n_values
    return [check_integer(v) for v in n_values]


def generate_table(b_values: Iterable[float], n_values: Iterable[int],
                   formula: str = "eq21") -> tuple[list[float], list[float]]:
    """(e_rel, e_nr_plus_one) columns for every (n, b) pair, n-major then b-minor.

    formula selects the law of e_rel: "eq21" the derived sqrt(1 + 2b(n + 1/2)),
    equal to energy_combined bit for bit, or "table" the tabulated
    sqrt(1 + 2b(n + 1)).  e_nr_plus_one is 1 + b (n + 1/2) exactly.  Both
    columns are lists of floats; each level passes check_integer (a range's ends do).
    A bare number or a text (errors.TEXTS) is no sequence of b or n values.
    """
    if not isinstance(formula, str) or formula not in FORMULA_CHOICES:
        raise InvalidInput(f"formula must be one of {FORMULA_CHOICES}, got {show(formula)}")
    if isinstance(b_values, TEXTS) or isinstance(n_values, TEXTS):  # no sequence of numbers
        b_values = n_values = ()
    try:
        b = [check_positive("b", v) for v in b_values]
        n = _levels(n_values)
    except TypeError:  # a bare number is no sequence, so it holds no value
        b = n = []
    if not b or not n:
        raise InvalidInput("b_values and n_values must both be non-empty sequences")
    return (_energy_law(n, b, _SHIFTS[formula]),
            [1.0 + v * (k + 0.5) for k in n for v in b])
