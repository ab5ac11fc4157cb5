"""Normalized stationary states psi_n(x) and quadrature checks.

psi_n(x) = N_n exp(-lam x^2 / 2) H_n(sqrt(lam) x) with the constant
N_n = sqrt( sqrt(lam/pi) / (2^n n!) ).  psi evaluates the product N_n H_n
exp(-xi^2/2) on whole arrays of x through the normalised Hermite-function
recurrence (Gil, Segura & Temme, Numerical Methods for Special Functions,
2007), so the factorially growing polynomial and the shrinking constant
never appear separately.  A binary exponent, carried where the Gaussian
underflows, keeps it accurate at every level n <= MAX_LEVEL (compare
Townsend, Trogdon & Olver, IMA J. Numer. Anal. 2016).  sample and
inner_product work on plain arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .params import check_levels, check_positive, evaluate_finite
from .specfun import kummer_m

# a 10^6 + 1 point grid and its formatted rows fit in 1 GiB of address space
MAX_POINTS = 10**6 + 1


def check_points(points) -> int:
    """The one grid-size rule: points if it is an odd integer in [3, MAX_POINTS]."""
    if not isinstance(points, int) or not 3 <= points <= MAX_POINTS or points % 2 == 0:
        raise InvalidInput(
            f"points must be an odd integer in [3, {MAX_POINTS}], got {points!r}")
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
        check_points(self.points)
        evaluate_finite(f"grid spacing over [-{self.extent!r}, {self.extent!r}]",
                        lambda: self.spacing)

    @property
    def spacing(self) -> float:
        return (self.extent + self.extent) / (self.points - 1)

    def nodes(self) -> np.ndarray:
        offsets = np.arange(self.points) - (self.points - 1) // 2
        return offsets * self.spacing


def default_extent(n: int, lam: float) -> float:
    """Twice the classical turning point of level n plus Gaussian tail padding."""
    check_levels(n)
    check_positive("lam", lam)
    return 2.0 * math.sqrt((2.0 * n + 1.0) / lam) + 5.0 / math.sqrt(lam)


def psi(n: int, x, lam: float):
    """Normalised stationary state psi_n at x, a float or an array of floats.

    Runs phi_{k+1} = sqrt(2/(k+1)) xi phi_k - sqrt(k/(k+1)) phi_{k-1} from
    phi_0 = pi^(-1/4) exp(-xi^2/2), xi = sqrt(lam) x, keeping only the last
    two arrays; psi_n = lam^(1/4) phi_n.  Where phi_0 is not a normal double
    it runs on phi_k 2^-e and carries e, rescaling by exact powers of two;
    elsewhere every step rounds as in the plain recurrence.
    """
    check_levels(n)
    check_positive("lam", lam)
    with np.errstate(over="ignore"):
        xi = math.sqrt(lam) * np.atleast_1d(np.asarray(x, dtype=float))
        log_gauss = -0.5 * xi * xi
        phi = math.pi ** -0.25 * np.exp(log_gauss)
        # where phi_0 is not a normal double, start from pi^(-1/4) 2^f and
        # carry the exponent e of exp(-xi^2/2) = 2^(f + e), f in (-1, 0]
        fraction, exponent = np.modf(log_gauss / math.log(2.0))
        finite = np.isfinite(exponent)
        carried = finite & (phi < np.finfo(float).tiny)
        phi = np.where(carried, math.pi ** -0.25 * np.exp2(fraction), phi)
        exponent = np.where(carried, exponent, 0.0)
        # where xi^2 overflows psi is zero; zeroing xi there keeps 0 * inf
        # from turning into NaN
        xi = np.where(finite, xi, 0.0)
        phi_prev = np.zeros_like(phi)
        rescale = carried.any()
        for k in range(n):
            phi_prev, phi = phi, (math.sqrt(2.0 / (k + 1.0)) * xi * phi
                                  - math.sqrt(k / (k + 1.0)) * phi_prev)
            # |phi_k| < 1 wherever phi_0 is normal, so only carried values
            # are rescaled; |phi| stays <= 2^500, whose product with
            # sqrt(2) |xi| + 1 is finite wherever xi^2 is
            if rescale and np.vdot(phi, phi) > 2.0 ** 1000:
                big = np.abs(phi) > 1.0
                phi[big], shift = np.frexp(phi[big])
                phi_prev[big] = np.ldexp(phi_prev[big], -shift)
                exponent[big] += shift
    # lam^(1/4) |phi| < 2^757, so clipping exponents at -2000 changes no result
    values = np.ldexp(lam ** 0.25 * phi, np.maximum(exponent, -2000.0).astype(int))
    return float(values[0]) if np.ndim(x) == 0 else values


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


def sample(n: int, grid: GridSpec, lam: float) -> np.ndarray:
    """psi_n evaluated at every grid node."""
    return psi(n, grid.nodes(), lam)


def inner_product(grid: GridSpec, f: np.ndarray, g: np.ndarray) -> float:
    """Composite-Simpson quadrature over grid of f*g, each sampled at its nodes."""
    if np.shape(f) != (grid.points,) or np.shape(g) != (grid.points,):
        raise InvalidInput(f"sampled functions must hold one value per node of {grid}")
    w = np.ones(grid.points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(grid.spacing / 3.0 * np.dot(w, f * g))
