"""Normalized stationary states psi_n(x) and quadrature checks.

psi_n(x) = N_n exp(-lam x^2 / 2) H_n(sqrt(lam) x) with the constant
N_n = sqrt( sqrt(lam/pi) / (2^n n!) ).  psi evaluates the product N_n H_n
exp(-xi^2/2) on whole arrays of x through the normalised Hermite-function
recurrence (Gil, Segura & Temme, Numerical Methods for Special Functions,
2007), so the factorially growing polynomial and the shrinking constant
never appear separately.  A binary exponent, carried where the Gaussian
underflows, keeps it accurate at every level n <= MAX_LEVEL (compare
Townsend, Trogdon & Olver, IMA J. Numer. Anal. 2016).  This is the one
module that loads numpy: psi and sample return arrays, and inner_product
takes arrays or lists of floats.
"""

import math

import numpy as np

from .errors import InvalidInput
# GridSpec, default_extent and MAX_POINTS live in params, which runs without
# numpy; they are re-exported here, beside the grid functions
from .params import (MAX_POINTS, GridSpec, check_integer, check_positive,
                     default_extent, evaluate_finite)


def psi(n: int, x, lam: float):
    """Normalised stationary state psi_n at x, a float or an array of floats.

    Runs phi_{k+1} = sqrt(2/(k+1)) xi phi_k - sqrt(k/(k+1)) phi_{k-1} from
    phi_0 = pi^(-1/4) exp(-xi^2/2), xi = sqrt(lam) x, keeping only the last
    two arrays; psi_n = lam^(1/4) phi_n.  Where phi_0 is not a normal double
    it runs on phi_k 2^-e and carries e, rescaling by exact powers of two;
    elsewhere every step rounds as in the plain recurrence.  An x that is not
    a real number, or that holds a NaN, is InvalidInput; psi is 0 at +-inf.
    """
    n = check_integer(n)
    check_positive("lam", lam)
    try:
        x_values = np.atleast_1d(np.asarray(x, dtype=float))
    except (TypeError, ValueError, OverflowError):  # not numbers, or an int past a double
        x_values = None
    if x_values is None or np.isnan(x_values).any():
        raise InvalidInput(f"x must be real numbers other than NaN, got {x!r}")
    with np.errstate(over="ignore"):
        xi = math.sqrt(lam) * x_values
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


def sample(n: int, grid: GridSpec, lam: float) -> np.ndarray:
    """psi_n evaluated at every grid node."""
    return psi(n, grid.nodes(), lam)


def inner_product(grid: GridSpec, f, g) -> float:
    """Composite-Simpson quadrature over grid of f*g, each sampled at its nodes.

    f and g are arrays or lists of real numbers.  Samples that are not real
    numbers or that hold a NaN are InvalidInput; a sum past the double range,
    from samples that hold an inf or overflow in f*g, is OutOfRange.
    """
    try:
        f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    except (TypeError, ValueError, OverflowError):  # as in psi
        raise InvalidInput("sampled functions must hold real numbers") from None
    if f.shape != (grid.points,) or g.shape != (grid.points,):
        raise InvalidInput(f"sampled functions must hold one value per node of {grid}")
    if np.isnan(f).any() or np.isnan(g).any():
        raise InvalidInput("sampled functions must not hold NaN")
    w = np.ones(grid.points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    with np.errstate(all="ignore"):  # an overflowing sum is OutOfRange, not a warning
        return evaluate_finite("inner product",
                               lambda: float(grid.spacing / 3.0 * np.dot(w, f * g)))
