"""Physical parameters of the one-dimensional relativistic oscillator.

Every other module takes its dimensional inputs from OscillatorParams.
The default unit system is natural units (hbar = c = 1 with unit mass);
user-facing energies are dimensionless, Ebar = E / (m c^2).  The input
rules and the overflow policy all modules share, the grid defaults the CLI
parser reads and the grid rule itself (GridSpec, default_extent) live here
too.  Like every module they run on Python floats and lists of them,
without numpy.
"""

import contextlib
import math
import numbers
from dataclasses import dataclass

from .errors import InvalidInput, OutOfRange

# plain machine integers for the level index
MAX_LEVEL = 10**6
# a 10^6 + 1 point grid and its formatted rows fit in 1 GiB of address space
MAX_POINTS = 10**6 + 1
# the oracle's default grid and bisection bracket width on k^2
DEFAULT_POINTS = 2001
DEFAULT_TOL = 1e-10


def is_real(value) -> bool:
    """The one rule for a real-number input: any numbers.Real, numpy scalars
    included, except a bool, which check_integer refuses too."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_positive(name: str, value) -> float:
    """value as a Python float if it is a positive, finite real number.

    The one validator for strictly positive inputs.  Anything is_real
    refuses, or an int too large for a float, raises InvalidInput naming the
    offending parameter.
    """
    number = math.nan
    if is_real(value):
        with contextlib.suppress(OverflowError):
            number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise InvalidInput(f"{name} must be positive and finite, got {value!r}")
    return number


def check_integer(n, what: str = "level index", low: int = 0, high: int = MAX_LEVEL) -> int:
    """The one integer rule, for a level (the defaults), a degree, a count or a
    point count: n as a plain int if it is a Python or numpy integer in
    [low, high], else InvalidInput.  A bool is not an integer here, as in
    check_positive, and neither is an array, even a 0-d or a 1-element one."""
    if type(n) is not int:  # needs no numpy
        if not (is_real(n) and isinstance(n, numbers.Integral)):
            raise InvalidInput(f"{what} must be an integer, got {n!r}")
        n = int(n)
    if not low <= n <= high:
        raise InvalidInput(f"{what} must be in [{low}, {high}], got {n}")
    return n


def evaluate_finite(what: str, compute):
    """compute() if its value, a float or a list of floats, is finite everywhere.

    The one overflow policy for computed results: the errors Python floats
    raise instead of giving inf are caught, and any non-finite entry raises
    OutOfRange naming the quantity.
    """
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not all(map(math.isfinite, value if isinstance(value, list) else [value])):
        raise OutOfRange(f"{what} exceeds the floating-point range")
    return value


def check_points(points) -> int:
    """The one grid-size rule: points as a plain int if it is an odd integer
    in [3, MAX_POINTS]."""
    points = check_integer(points, "points", 3, MAX_POINTS)
    if points % 2 == 0:
        raise InvalidInput(f"points must be odd, got {points}")
    return points


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over [-extent, extent] with an odd number of points.

    Odd counts keep x = 0 on the grid and make the point count usable for
    composite Simpson quadrature.  Nodes are built from signed integer
    offsets so that x = 0 is exact and x_{-i} = -x_i bit for bit.
    """

    extent: float
    points: int

    def __post_init__(self):
        check_positive("grid extent", self.extent)
        object.__setattr__(self, "points", check_points(self.points))
        evaluate_finite(f"grid spacing over [-{self.extent!r}, {self.extent!r}]",
                        lambda: self.spacing)

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
