"""Closed-form bound-state energies of the relativistic oscillator.

Two square-root laws coexist on purpose.  energy_combined implements the
derived spectrum Ebar_n = sqrt(1 + 2 b (n + 1/2)), which the independent
finite-difference oracle confirms.  generate_table's formula "table"
carries the alternative sqrt(1 + 2 b (n + 1)) law that the tabulated
reference values follow; it is exposed (CLI formula "table") so the
disagreement stays visible instead of being silently patched either way.
Both are the one function _energy_law at shift 1/2 or 1, evaluated on
scalars or whole arrays.
"""

from typing import Iterable

import numpy as np

from .errors import InvalidInput
from .params import MAX_LEVEL, check_levels, check_positive, evaluate_finite

# formula -> shift s of the law sqrt(1 + 2 b (n + s))
_SHIFTS = {"eq21": 0.5, "table": 1.0}
FORMULA_CHOICES = tuple(_SHIFTS)

# parity family -> offset k of its level n in the combined index 2n + k
_PARITY_OFFSETS = {"even": 0, "odd": 1}
PARITY_CHOICES = (*_PARITY_OFFSETS, "combined")


def combined_index(n: int, parity: str) -> int:
    """Index of level n of a parity family in the combined spectrum: n, 2n or 2n + 1."""
    if parity not in PARITY_CHOICES:
        raise InvalidInput(f"parity must be one of {PARITY_CHOICES}, got {parity!r}")
    if parity == "combined":
        check_levels(n)
        return n
    offset = _PARITY_OFFSETS[parity]
    check_levels(n, (MAX_LEVEL - offset) // 2, f"{parity} level index")
    return 2 * n + offset


def _energy_law(n, b, shift: float):
    """sqrt(1 + 2 b (n + shift)), elementwise for array n and b."""
    return evaluate_finite(f"energy sqrt(1 + 2b(n + {shift:g}))",
                           lambda: np.sqrt(1.0 + 2.0 * b * (n + shift)))


def energy_combined(n: int, b: float) -> float:
    """Ebar_n = sqrt(1 + 2 b (n + 1/2)); even and odd states interleaved."""
    check_levels(n)
    return float(_energy_law(n, check_positive("b", b), 0.5))


def energy_even(n: int, b: float) -> float:
    """n-th even state, sqrt(1 + 2 b (2n + 1/2)); equals energy_combined(2n, b)."""
    return energy_combined(combined_index(n, "even"), b)


def energy_odd(n: int, b: float) -> float:
    """n-th odd state, sqrt(1 + 2 b (2n + 3/2)); equals energy_combined(2n+1, b)."""
    return energy_combined(combined_index(n, "odd"), b)


def _second_order(n: int, b: float, rest: float) -> float:
    """rest + b (n + 1/2) - b^2 (n + 1/2)^2 / 2; a rest of 0.0 adds nothing, exactly."""
    check_levels(n)
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
    non-relativistic level.
    """
    energy = energy_combined(n, b)  # validates n and b first
    return 2.0 * b * (n + 0.5) / (energy + 1.0)


def generate_table(b_values: Iterable[float], n_values: Iterable[int],
                   formula: str = "eq21") -> tuple[np.ndarray, np.ndarray]:
    """(e_rel, e_nr_plus_one) columns for every (n, b) pair, n-major then b-minor.

    formula selects the law of e_rel: "eq21" the derived sqrt(1 + 2b(n + 1/2)),
    equal to energy_combined bit for bit, or "table" the tabulated
    sqrt(1 + 2b(n + 1)).  e_nr_plus_one is 1 + b (n + 1/2) exactly.
    """
    if formula not in FORMULA_CHOICES:
        raise InvalidInput(f"formula must be one of {FORMULA_CHOICES}, got {formula!r}")
    b = np.array([check_positive("b", v) for v in b_values])
    n = np.array(list(n_values))
    if not b.size or not n.size:
        raise InvalidInput("b_values and n_values must both be non-empty")
    check_levels(n)
    n_col = np.repeat(n, b.size)
    b_col = np.tile(b, n.size)
    return (_energy_law(n_col, b_col, _SHIFTS[formula]),
            1.0 + b_col * (n_col + 0.5))
