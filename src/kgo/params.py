"""Physical parameters of the one-dimensional relativistic oscillator.

Every other module takes its dimensional inputs from OscillatorParams.
The default unit system is natural units (hbar = c = 1 with unit mass);
user-facing energies are dimensionless, Ebar = E / (m c^2).  The grid
(GridSpec, default_extent) lives here too.  The input rules, the overflow
policy and the bounds all modules share live in kgo.errors, beside the
exceptions they raise; so `kgo spectrum` and `kgo table` never load this
module.  Like every module it runs on Python floats and lists of them,
without numpy.  GridSpec and OscillatorParams are immutable namedtuples,
not dataclasses (a slow import); every path that constructs one checks it
and stores the Python floats its rules return.
"""

import math
from collections import namedtuple

from .errors import check_integer, check_points, check_positive, evaluate_finite


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
    keyword, positional, _make, _replace, copy and pickle all check both fields,
    and the extent is stored as the Python float check_positive returns.
    """

    __slots__ = ()

    def __new__(cls, extent: float, points: int):
        self = super().__new__(cls, check_positive("grid extent", extent), check_points(points))
        evaluate_finite(f"grid spacing over [-{extent!r}, {extent!r}]", lambda: self.spacing)
        return self

    @property
    def spacing(self) -> float:
        return (self.extent + self.extent) / (self.points - 1)

    def nodes(self) -> list[float]:
        """The nodes i * spacing, i = -(points - 1)/2 ... (points - 1)/2, as a list."""
        half, h = (self.points - 1) // 2, self.spacing
        return [i * h for i in range(-half, half + 1)]


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
    keyword, positional, _make, _replace, copy and pickle all check every constant,
    and each is stored as the Python float check_positive returns.
    """

    __slots__ = ()

    def __new__(cls, mass: float, omega: float, hbar: float = 1.0, c: float = 1.0):
        return super().__new__(cls, *map(check_positive, cls._fields, (mass, omega, hbar, c)))

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
