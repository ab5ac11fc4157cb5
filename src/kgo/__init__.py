"""Spectral toolkit for the one-dimensional Klein-Gordon oscillator.

Closed-form bound-state energies and stationary states of the relativistic
oscillator obtained from the momentum coupling p -> p - i m omega x, with
an independent finite-difference eigenvalue oracle and a CLI front end.
Each public name imports its submodule on first use (PEP 562).  No module
loads numpy: every module passes Python floats, and lists of them, between
modules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the public names it defines
    "errors": ("InvalidInput", "KgoError", "NonConvergence", "OutOfRange", "UsageError"),
    "oracle": ("TridiagonalOperator", "discretize_weber", "effective_potential",
               "lowest_eigenvalues", "oracle_energies", "profile_effective_potential",
               "sturm_count"),
    "params": ("GridSpec", "OscillatorParams", "default_extent", "from_b", "natural_units"),
    "specfun": ("hermite", "hermite_from_kummer_even", "hermite_from_kummer_odd",
                "kummer_m"),
    "spectrum": ("binding_energy", "binding_second_order", "energy_combined",
                 "energy_second_order", "generate_table"),
    "wavefn": ("inner_product", "psi", "sample"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule: `import kgo` used to import them all
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
