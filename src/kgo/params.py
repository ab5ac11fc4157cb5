"""Physical parameters of the one-dimensional relativistic oscillator.

Every other module takes its dimensional inputs from OscillatorParams.
The default unit system is natural units (hbar = c = 1 with unit mass);
user-facing energies are dimensionless, Ebar = E / (m c^2).  The grid rule
(GridSpec, check_grid, default_extent) lives here too.  The input rules, the
overflow policy and the bounds all modules share live in kgo.errors, beside
the exceptions they raise, and are imported back here under the same names;
so `kgo spectrum` and `kgo table` never load this module.  Like every module
it runs on Python floats and lists of them, without numpy.  GridSpec and
OscillatorParams are immutable namedtuples, not dataclasses (a slow
import), and every path that constructs one checks it.
"""

import math
from collections import namedtuple

from .errors import (DEFAULT_POINTS, DEFAULT_TOL, MAX_LEVEL, MAX_POINTS, InvalidInput,
                     OutOfRange, check_integer, check_points, check_positive, check_real,
                     evaluate_finite, is_real)


class _Checked:
    """Mixin for a namedtuple: _make (so _replace), copy and pickle call cls()."""
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))
    __reduce__ = lambda self: (type(self), tuple(self))


class GridSpec(_Checked, namedtuple("GridSpec", "extent points")):
    """Uniform grid over [-extent, extent] with an odd number of points.

    Odd counts keep x = 0 on the grid and make the point count usable for
    composite Simpson quadrature.  Nodes are built from signed integer
    offsets so that x = 0 is exact and x_{-i} = -x_i bit for bit.  A namedtuple:
    keyword, positional, _make, _replace, copy and pickle all check both fields.
    """

    __slots__ = ()

    def __new__(cls, extent: float, points: int):
        check_positive("grid extent", extent)
        self = super().__new__(cls, extent, check_points(points))
        evaluate_finite(f"grid spacing over [-{extent!r}, {extent!r}]", lambda: self.spacing)
        return self

    @property
    def spacing(self) -> float:
        return (self.extent + self.extent) / (self.points - 1)

    def nodes(self) -> list[float]:
        """The nodes i * spacing, i = -(points - 1)/2 ... (points - 1)/2, as a list."""
        half, h = (self.points - 1) // 2, self.spacing
        return [i * h for i in range(-half, half + 1)]


def check_grid(grid) -> GridSpec:
    """grid if it is a GridSpec, else InvalidInput: the one rule for a grid argument."""
    if not isinstance(grid, GridSpec):
        raise InvalidInput(f"grid must be a GridSpec, got {grid!r}")
    return grid


def default_extent(n: int, lam: float) -> float:
    """Twice the classical turning point of level n plus Gaussian tail padding."""
    n = check_integer(n)
    lam = check_positive("lam", lam)
    return evaluate_finite("default grid extent 2 sqrt((2n + 1)/lam) + 5/sqrt(lam)",
                           lambda: 2.0 * math.sqrt((2.0 * n + 1.0) / lam) + 5.0 / math.sqrt(lam))


class OscillatorParams(_Checked, namedtuple("OscillatorParams", "mass omega hbar c")):
    """Oscillator constants m, omega, hbar, c and their derived ratios.

    lam = m*omega/hbar sets the Gaussian width of the stationary states;
    b = hbar*omega/(m c^2) measures how relativistic the oscillator is.  A namedtuple:
    keyword, positional, _make, _replace, copy and pickle all check every constant.
    """

    __slots__ = ()

    def __new__(cls, mass: float, omega: float, hbar: float = 1.0, c: float = 1.0):
        self = super().__new__(cls, mass, omega, hbar, c)
        for name, value in zip(self._fields, self):
            check_positive(name, value)
        return self

    @property
    def lam(self) -> float:
        """Inverse squared width m*omega/hbar of the ground state."""
        return _derived("lam = m omega / hbar", lambda: self.mass * self.omega / self.hbar)

    @property
    def b(self) -> float:
        """Dimensionless strength parameter hbar*omega/(m c^2)."""
        return _derived("b = hbar omega / (m c^2)",
                        lambda: self.hbar * self.omega / (self.mass * self.c**2))


def _derived(what: str, compute) -> float:
    """A ratio of positive constants, refused under its own name both where it
    overflows (OutOfRange) and where it underflows to 0 (InvalidInput)."""
    return check_positive(what, evaluate_finite(what, compute))


def natural_units() -> OscillatorParams:
    """Params with m = omega = hbar = c = 1, so lam = b = 1."""
    return OscillatorParams(mass=1.0, omega=1.0, hbar=1.0, c=1.0)


def from_b(b: float) -> OscillatorParams:
    """Params with unit mass, hbar and c and omega = b, so that .b == b exactly."""
    return OscillatorParams(mass=1.0, omega=check_positive("b", b), hbar=1.0, c=1.0)
