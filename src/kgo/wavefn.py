"""Normalized stationary states psi_n(x) and quadrature checks.

psi_n(x) = N_n exp(-lam x^2 / 2) H_n(sqrt(lam) x) with the constant
N_n = sqrt( sqrt(lam/pi) / (2^n n!) ).  psi evaluates the product N_n H_n
exp(-xi^2/2) at every n through the normalised Hermite-function recurrence
(Gil, Segura & Temme, Numerical Methods for Special Functions, 2007), so
the factorially growing polynomial and the shrinking constant never appear
separately; it works on whole arrays of x at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidGrid
from .params import check_positive
from .specfun import kummer_m

MAX_FACTORIAL_LEVEL = 170


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
        if not (math.isfinite(self.extent) and self.extent > 0.0):
            raise InvalidGrid(f"grid extent must be positive and finite, got {self.extent!r}")
        if not isinstance(self.points, int) or self.points < 3 or self.points % 2 == 0:
            raise InvalidGrid(f"points must be an odd integer >= 3, got {self.points!r}")
        if not math.isfinite(self.spacing):
            raise InvalidGrid(
                f"grid spacing over [-{self.extent!r}, {self.extent!r}] exceeds the "
                "floating-point range")

    @property
    def spacing(self) -> float:
        return (self.extent + self.extent) / (self.points - 1)

    def nodes(self) -> np.ndarray:
        offsets = np.arange(self.points) - (self.points - 1) // 2
        return offsets * self.spacing


@dataclass(frozen=True, eq=False)
class SampledWavefunction:
    """psi_n sampled at every node of a grid."""

    grid: GridSpec
    values: np.ndarray


def default_extent(n: int, lam: float) -> float:
    """Twice the classical turning point of level n plus Gaussian tail padding."""
    return 2.0 * math.sqrt((2.0 * n + 1.0) / lam) + 5.0 / math.sqrt(lam)


def normalization_constant(n: int, lam: float) -> float:
    """N_n = sqrt( sqrt(lam/pi) / (2^n n!) ), evaluated in log space."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > MAX_FACTORIAL_LEVEL:
        raise OverflowError(
            f"n = {n} is beyond the factorial range (n <= {MAX_FACTORIAL_LEVEL})")
    check_positive("lam", lam)
    return math.exp(0.25 * math.log(lam / math.pi)
                    - 0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)))


def psi(n: int, x, lam: float):
    """Normalised stationary state psi_n at x, a float or an array of floats.

    Runs phi_{k+1} = sqrt(2/(k+1)) xi phi_k - sqrt(k/(k+1)) phi_{k-1} from
    phi_0 = pi^(-1/4) exp(-xi^2/2), xi = sqrt(lam) x, keeping only the last
    two arrays; psi_n = lam^(1/4) phi_n.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    check_positive("lam", lam)
    with np.errstate(over="ignore"):
        xi = math.sqrt(lam) * np.asarray(x, dtype=float)
        phi = math.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    # where phi_0 underflows every phi_k is zero; zeroing xi there keeps an
    # overflowed xi from turning 0 * inf into NaN
    xi = np.where(phi == 0.0, 0.0, xi)
    phi_prev = np.zeros_like(phi)
    for k in range(n):
        phi_prev, phi = phi, (math.sqrt(2.0 / (k + 1.0)) * xi * phi
                              - math.sqrt(k / (k + 1.0)) * phi_prev)
    values = lam ** 0.25 * phi
    return float(values) if values.ndim == 0 else values


def psi_general(x: float, a: float, coeff_even: float, coeff_odd: float,
                lam: float) -> float:
    """Even/odd superposition built directly from the hypergeometric kernel.

    coeff_even * exp(-lam x^2/2) M(a, 1/2, lam x^2)
      + coeff_odd * exp(-lam x^2/2) sqrt(lam) x M(a + 1/2, 3/2, lam x^2)
    """
    check_positive("lam", lam)
    y = lam * x * x
    gauss = math.exp(-0.5 * y)
    even_part = coeff_even * kummer_m(a, 0.5, y) if coeff_even != 0.0 else 0.0
    odd_part = (coeff_odd * math.sqrt(lam) * x * kummer_m(a + 0.5, 1.5, y)
                if coeff_odd != 0.0 else 0.0)
    return gauss * (even_part + odd_part)


def sample(n: int, grid: GridSpec, lam: float) -> SampledWavefunction:
    """psi_n evaluated at every grid node."""
    return SampledWavefunction(grid=grid, values=psi(n, grid.nodes(), lam))


def inner_product(f: SampledWavefunction, g: SampledWavefunction) -> float:
    """Composite-Simpson quadrature of f*g over the shared grid."""
    if f.grid != g.grid:
        raise GridMismatch("sampled functions live on different grids")
    w = np.ones(f.grid.points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(f.grid.spacing / 3.0 * np.dot(w, f.values * g.values))
