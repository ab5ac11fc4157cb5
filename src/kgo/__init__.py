"""Spectral toolkit for the one-dimensional Klein-Gordon oscillator.

Closed-form bound-state energies and stationary states of the relativistic
oscillator obtained from the momentum coupling p -> p - i m omega x, with
an independent finite-difference eigenvalue oracle and a CLI front end.
"""

from .errors import (BudgetExceeded, EmptyInput, GridMismatch, GridTooSmall,
                     InvalidGrid, KgoError, NonConvergence,
                     NonPositiveParameter, OutOfRange, PoleAtC, UsageError)
from .oracle import (TridiagonalOperator, discretize_weber, effective_potential,
                     lowest_eigenvalues, oracle_energies,
                     profile_effective_potential, sturm_count)
from .params import OscillatorParams, from_b, k_squared, natural_units
from .specfun import (hermite, hermite_from_kummer_even,
                      hermite_from_kummer_odd, kummer_m)
from .spectrum import (binding_energy, energy_combined, energy_even,
                       energy_odd, energy_second_order, generate_table)
from .wavefn import (GridSpec, default_extent, inner_product, psi, psi_general,
                     sample)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "EmptyInput", "GridMismatch", "GridSpec",
    "GridTooSmall", "InvalidGrid", "KgoError", "NonConvergence",
    "NonPositiveParameter", "OscillatorParams", "OutOfRange", "PoleAtC",
    "TridiagonalOperator", "UsageError", "binding_energy", "default_extent",
    "discretize_weber", "effective_potential", "energy_combined",
    "energy_even", "energy_odd", "energy_second_order", "from_b",
    "generate_table", "hermite", "hermite_from_kummer_even",
    "hermite_from_kummer_odd", "inner_product", "k_squared", "kummer_m",
    "lowest_eigenvalues", "natural_units", "oracle_energies",
    "profile_effective_potential", "psi", "psi_general", "sample",
    "sturm_count",
]
