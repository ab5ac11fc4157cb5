"""Independent finite-difference verification of the closed-form spectrum.

The operator -psi'' + lam^2 x^2 psi is discretised with the second-order
central stencil under Dirichlet boundaries and its lowest eigenvalues k^2
are located by bisection on Sturm pivot counts.  Nothing from the
closed-form spectrum module enters this path, so agreement between the two
is evidence rather than construction.

The module also profiles the effective potential that arises when the
harmonic potential couples as a Lorentz vector instead of through the
momentum.  That route supports no true bound states for positive-energy
particles: the potential is unbounded from below at large |x|, which
profile_effective_potential detects.
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, NonConvergence
from .params import OscillatorParams, check_positive, evaluate_finite
from .wavefn import GridSpec, check_points, default_extent

MACHINE_EPS = sys.float_info.epsilon
BISECTION_MAX_ITER = 200
DEFAULT_POINTS = 2001
DEFAULT_TOL = 1e-10  # bisection bracket width on k^2
# fraction of the beyond-zero samples inspected for the unboundedness flag
TAIL_FRACTION = 0.1


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix from a uniform three-point stencil.

    diagonal is the main diagonal; off_diagonal is the one coupling shared by
    every pair of neighbouring rows.  Intended for positive-semidefinite
    discretisations: eigenvalue brackets start at zero.
    """

    diagonal: np.ndarray
    off_diagonal: float

    def __post_init__(self):
        if len(self.diagonal) < 1:
            raise InvalidInput("operator must have at least one row")
        # sturm_count divides this square by every pivot, so it must be finite
        evaluate_finite("operator coupling squared",
                        lambda: self.off_diagonal * self.off_diagonal)

    @property
    def dimension(self) -> int:
        return len(self.diagonal)

    @cached_property
    def _diag_list(self) -> list:
        return [float(v) for v in self.diagonal]

    @cached_property
    def gershgorin_upper(self) -> float:
        hi = float(np.max(self.diagonal))
        if self.dimension > 1:
            hi += 2.0 * abs(self.off_diagonal)
        return hi


def discretize_weber(lam: float, grid: GridSpec) -> TridiagonalOperator:
    """Central-difference matrix of -psi'' + lam^2 x^2 psi on interior nodes.

    Dirichlet psi = 0 at both grid ends; eigenvalues approximate k^2 with
    O(h^2) error.  The momentum-coupled relativistic oscillator is this
    operator with lam = m omega / hbar, acting on the eigenvalue
    k^2 = (E^2 - m^2 c^4)/(c^2 hbar^2).
    """
    check_positive("lam", lam)
    x = grid.nodes()[1:-1]
    h = grid.spacing
    diagonal = evaluate_finite("operator diagonal 2/h^2 + lam^2 x^2",
                               lambda: 2.0 / h**2 + lam**2 * x**2)
    return TridiagonalOperator(diagonal=diagonal, off_diagonal=-1.0 / h**2)


def sturm_count(op: TridiagonalOperator, shift: float) -> int:
    """Number of eigenvalues strictly below shift, from LDL^T pivot signs.

    A zero pivot is replaced by +eps times the Gershgorin bound, which counts
    a boundary hit as not-below; bisection is insensitive to that choice.
    """
    pivmin = MACHINE_EPS * op.gershgorin_upper or MACHINE_EPS
    offsq = op.off_diagonal * op.off_diagonal
    count = 0
    d = math.inf  # the first row has no predecessor: offsq / inf == 0.0
    for a in op._diag_list:
        d = (a - shift) - offsq / d
        if d == 0.0:
            d = pivmin
        if d < 0.0:
            count += 1
    return count


def _check_count(count: int, dimension: int) -> None:
    if count < 1:
        raise InvalidInput(f"count must be >= 1, got {count}")
    if count > dimension:
        raise InvalidInput(f"count = {count} exceeds the matrix dimension {dimension}")


def lowest_eigenvalues(op: TridiagonalOperator, count: int,
                       tol: float) -> np.ndarray:
    """First `count` eigenvalues by Sturm bisection, as an ascending array.

    Each eigenvalue starts from the bracket [0, Gershgorin upper bound] and
    is bisected until the bracket is narrower than tol; the bracket midpoint
    is returned.
    """
    _check_count(count, op.dimension)
    check_positive("tol", tol)
    hi0 = op.gershgorin_upper
    k_squared = np.empty(count)
    for j in range(count):
        lo, hi = 0.0, hi0
        iterations = 0
        while hi - lo > tol:
            if iterations >= BISECTION_MAX_ITER:
                raise NonConvergence(
                    f"eigenvalue {j}: bracket still {hi - lo:g} wide after "
                    f"{BISECTION_MAX_ITER} bisection steps (tol = {tol:g})")
            mid = 0.5 * (lo + hi)
            if sturm_count(op, mid) >= j + 1:
                hi = mid
            else:
                lo = mid
            iterations += 1
        k_squared[j] = 0.5 * (lo + hi)
    return k_squared


def oracle_energies(params: OscillatorParams, count: int,
                    points: int = DEFAULT_POINTS,
                    tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Lowest `count` finite-difference k^2 and their dimensionless energies.

    The box is twice the turning point of the highest requested level plus
    tail padding, sampled at `points` nodes.  Each k^2 maps through
    Ebar = sqrt(1 + b k^2 / lam), the dimensionless inversion of
    k^2 = (E^2 - m^2 c^4)/(c^2 hbar^2).
    """
    # one operator row per interior node; checked before default_extent, which
    # would report count - 1 as an out-of-range level
    _check_count(count, check_points(points) - 2)
    grid = GridSpec(default_extent(count - 1, params.lam), points)
    k_squared = lowest_eigenvalues(discretize_weber(params.lam, grid), count, tol)
    return k_squared, np.sqrt(1.0 + params.b / params.lam * k_squared)


def effective_potential(params: OscillatorParams, energy: float, x) -> float:
    """Vector-coupling effective potential (E m w^2 x^2 - m^2 w^4 x^4 / 4)/(c^2 hbar^2).

    This is the Schrodinger-form potential (2 E V - V^2)/(c^2 hbar^2) with
    V = m w^2 x^2 / 2 substituted.  Accepts a scalar or an ndarray x.  It is
    evaluated in u = w x, so a tiny w with a huge x (or the reverse) neither
    underflows w^4 nor overflows x^2.
    """
    m = params.mass

    def v_eff():
        # powers via products: multiplication is exactly sign-symmetric, so
        # the profile of this even function mirrors bit for bit
        u = params.omega * x
        u2 = u * u
        numerator = energy * m * u2 - 0.25 * m**2 * u2 * u2
        return numerator / (params.c**2 * params.hbar**2)
    return evaluate_finite("effective potential V_eff", v_eff)


def veff_zero_crossing(params: OscillatorParams, energy: float) -> float:
    """Positive root of the effective potential, x* = 2 sqrt(E/m) / omega.

    Zero for non-positive energies, where the potential is nowhere positive.
    """
    if energy <= 0.0:
        return 0.0
    return 2.0 * math.sqrt(energy / params.mass) / params.omega


def profile_effective_potential(params: OscillatorParams, energy: float,
                                grid: GridSpec) -> tuple[np.ndarray, bool]:
    """(v_eff, unbounded_below): V_eff at grid.nodes() and a flag.

    The flag is set when, over the outermost tenth of the samples beyond the
    sign change at x* = 2 sqrt(E/m)/omega, the potential is negative and
    still decreasing outward.  At least 2 grid nodes must lie beyond x*.
    """
    xstar = veff_zero_crossing(params, energy)
    x = grid.nodes()
    beyond = np.flatnonzero(x > xstar)
    if len(beyond) < 2:
        raise InvalidInput(
            f"grid has {len(beyond)} node(s) beyond the potential zero at "
            f"{xstar:g}; at least 2 are needed")
    v = effective_potential(params, energy, x)
    tail = v[beyond[-max(2, math.ceil(TAIL_FRACTION * len(beyond))):]]
    return v, bool(np.all(tail < 0.0) and np.all(np.diff(tail) < 0.0))
