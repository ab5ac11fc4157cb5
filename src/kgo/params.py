"""Physical parameters of the one-dimensional relativistic oscillator.

Every other module takes its dimensional inputs from OscillatorParams.
The default unit system is natural units (hbar = c = 1 with unit mass);
user-facing energies are dimensionless, Ebar = E / (m c^2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, OutOfRange

# plain machine integers for the level index
MAX_LEVEL = 10**6


def check_positive(name: str, value) -> float:
    """value as a float if it is a positive, finite real number.

    The one validator for strictly positive inputs; anything else raises
    InvalidInput naming the offending parameter.
    """
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise InvalidInput(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def check_levels(n, top: int = MAX_LEVEL, what: str = "level index") -> None:
    """The one level validator: raise unless n (an int or int array) is in [0, top]."""
    levels = np.asarray(n)
    # a Python int past the 64-bit range makes an object array
    integral = levels.dtype.kind in "iu" or (
        levels.dtype.kind == "O" and all(type(v) is int for v in levels.flat))
    if not integral:
        raise InvalidInput(f"{what} must be an integer, got {n!r}")
    outside = levels[(levels < 0) | (levels > top)]
    if outside.size:
        raise InvalidInput(f"{what} must be in [0, {top}], got {outside.flat[0]}")


def evaluate_finite(what: str, compute):
    """compute() if its value (a float or an array) is finite everywhere.

    The one overflow policy for computed results: numpy's floating-point
    warnings are silenced and the errors Python floats raise instead of
    giving inf are caught, and any non-finite entry raises OutOfRange naming
    the quantity.
    """
    with np.errstate(all="ignore"):
        try:
            value = compute()
        except (OverflowError, ZeroDivisionError):
            value = math.inf
    if not np.all(np.isfinite(value)):
        raise OutOfRange(f"{what} exceeds the floating-point range")
    return value


@dataclass(frozen=True)
class OscillatorParams:
    """Oscillator constants m, omega, hbar, c and their derived ratios.

    lam = m*omega/hbar sets the Gaussian width of the stationary states;
    b = hbar*omega/(m c^2) measures how relativistic the oscillator is.
    """

    mass: float
    omega: float
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("mass", "omega", "hbar", "c"):
            check_positive(name, getattr(self, name))

    @property
    def lam(self) -> float:
        """Inverse squared width m*omega/hbar of the ground state."""
        return self.mass * self.omega / self.hbar

    @property
    def b(self) -> float:
        """Dimensionless strength parameter hbar*omega/(m c^2)."""
        return self.hbar * self.omega / (self.mass * self.c**2)


def natural_units() -> OscillatorParams:
    """Params with m = omega = hbar = c = 1, so lam = b = 1."""
    return OscillatorParams(mass=1.0, omega=1.0, hbar=1.0, c=1.0)


def from_b(b: float) -> OscillatorParams:
    """Params with unit mass, hbar and c and omega = b, so that .b == b exactly."""
    return OscillatorParams(mass=1.0, omega=check_positive("b", b), hbar=1.0, c=1.0)


def k_squared(params: OscillatorParams, energy: float) -> float:
    """Squared wavenumber (E^2 - m^2 c^4) / (c^2 hbar^2).

    Negative below the rest energy; zero exactly at E = m c^2.
    """
    m2c4 = (params.mass * params.c**2) ** 2
    return (energy**2 - m2c4) / (params.c**2 * params.hbar**2)
