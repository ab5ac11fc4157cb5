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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import List, Optional

import numpy as np

from .errors import (BudgetExceeded, GridTooSmall, InvalidGrid,
                     NonPositiveParameter)
from .params import OscillatorParams, check_positive
from .wavefn import GridSpec

MACHINE_EPS = sys.float_info.epsilon
BISECTION_MAX_ITER = 200
DEFAULT_POINTS = 2001
# fraction of the beyond-zero samples inspected for the unboundedness flag
TAIL_FRACTION = 0.1


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix from a uniform three-point stencil.

    Intended for positive-semidefinite discretisations: eigenvalue brackets
    start at zero.
    """

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    spacing: float
    origin: float

    def __post_init__(self):
        if len(self.diagonal) < 1:
            raise InvalidGrid("operator must have at least one row")
        if len(self.off_diagonal) != len(self.diagonal) - 1:
            raise InvalidGrid("off-diagonal must be one entry shorter than diagonal")

    @property
    def dimension(self) -> int:
        return len(self.diagonal)

    @cached_property
    def _diag_list(self) -> list:
        return [float(v) for v in self.diagonal]

    @cached_property
    def _offsq_list(self) -> list:
        return [float(v) * float(v) for v in self.off_diagonal]

    @cached_property
    def norm_inf(self) -> float:
        off = np.abs(self.off_diagonal)
        rowsum = np.abs(self.diagonal).astype(float)
        if self.dimension > 1:
            rowsum[:-1] += off
            rowsum[1:] += off
        return float(rowsum.max())

    @cached_property
    def gershgorin_upper(self) -> float:
        hi = float(np.max(self.diagonal))
        if self.dimension > 1:
            hi += 2.0 * float(np.max(np.abs(self.off_diagonal)))
        return hi


@dataclass(frozen=True)
class EigenResult:
    """One bisected eigenvalue; energy_dimensionless is filled by oracle_energies."""

    index: int
    k_squared: float
    energy_dimensionless: Optional[float]
    converged: bool
    interval_width: float


@dataclass(frozen=True, eq=False)
class EffectivePotentialProfile:
    """Sampled vector-coupling effective potential (columns x, V_eff)."""

    energy: float
    samples: np.ndarray
    unbounded_below_detected: bool


def discretize_weber(lam: float, grid: GridSpec) -> TridiagonalOperator:
    """Central-difference matrix of -psi'' + lam^2 x^2 psi on interior nodes.

    Dirichlet psi = 0 at both grid ends; eigenvalues approximate k^2 with
    O(h^2) error.
    """
    check_positive("lam", lam)
    if not grid.is_symmetric:
        raise InvalidGrid("discretisation expects a symmetric grid")
    x = grid.nodes()[1:-1]
    h = grid.spacing
    diagonal = 2.0 / h**2 + lam**2 * x**2
    off_diagonal = np.full(len(x) - 1, -1.0 / h**2)
    return TridiagonalOperator(diagonal=diagonal, off_diagonal=off_diagonal,
                               spacing=h, origin=float(x[0]))


def discretize_kg(params: OscillatorParams, grid: GridSpec) -> TridiagonalOperator:
    """Momentum-coupled relativistic oscillator operator.

    The symmetrised substitution p -> p - i m omega x produces exactly the
    operator of discretize_weber with lam = m omega / hbar, acting on the
    eigenvalue (E^2 - m^2 c^4)/(c^2 hbar^2); both entry points share one
    code path so the equivalence holds by construction.
    """
    return discretize_weber(params.lam, grid)


def sturm_count(op: TridiagonalOperator, shift: float) -> int:
    """Number of eigenvalues strictly below shift, from LDL^T pivot signs.

    A zero pivot is replaced by +eps * ||op||_inf, which counts a boundary
    hit as not-below; bisection is insensitive to that choice.
    """
    pivmin = MACHINE_EPS * op.norm_inf
    if pivmin == 0.0:
        pivmin = MACHINE_EPS
    diag = op._diag_list
    offsq = op._offsq_list
    d = diag[0] - shift
    if d == 0.0:
        d = pivmin
    count = 1 if d < 0.0 else 0
    for i in range(1, len(diag)):
        d = (diag[i] - shift) - offsq[i - 1] / d
        if d == 0.0:
            d = pivmin
        if d < 0.0:
            count += 1
    return count


def lowest_eigenvalues(op: TridiagonalOperator, count: int,
                       tol: float) -> List[EigenResult]:
    """First `count` eigenvalues by Sturm bisection, ascending.

    Each eigenvalue starts from the bracket [0, Gershgorin upper bound] and
    is bisected until the bracket is narrower than tol.
    """
    if count < 1:
        raise NonPositiveParameter(f"count must be >= 1, got {count}")
    if count > op.dimension:
        raise NonPositiveParameter(
            f"count = {count} exceeds the matrix dimension {op.dimension}")
    check_positive("tol", tol)
    hi0 = op.gershgorin_upper
    results = []
    for j in range(count):
        lo, hi = 0.0, hi0
        iterations = 0
        while hi - lo > tol:
            if iterations >= BISECTION_MAX_ITER:
                raise BudgetExceeded(
                    f"eigenvalue {j}: bracket still {hi - lo:g} wide after "
                    f"{BISECTION_MAX_ITER} bisection steps (tol = {tol:g})")
            mid = 0.5 * (lo + hi)
            if sturm_count(op, mid) >= j + 1:
                hi = mid
            else:
                lo = mid
            iterations += 1
        width = hi - lo
        results.append(EigenResult(index=j, k_squared=0.5 * (lo + hi),
                                   energy_dimensionless=None,
                                   converged=width <= tol,
                                   interval_width=width))
    return results


def default_box(params: OscillatorParams, count: int) -> float:
    """Box extent: twice the highest requested turning point plus tail padding."""
    lam = params.lam
    return 2.0 * math.sqrt((2.0 * count - 1.0) / lam) + 5.0 / math.sqrt(lam)


def oracle_energies(params: OscillatorParams, count: int,
                    grid: Optional[GridSpec] = None,
                    tol: float = 1e-10) -> List[EigenResult]:
    """Finite-difference eigenvalues mapped to dimensionless energies.

    Each k^2 maps through Ebar = sqrt(1 + b k^2 / lam), the dimensionless
    inversion of k^2 = (E^2 - m^2 c^4)/(c^2 hbar^2).
    """
    if count < 1:
        raise NonPositiveParameter(f"count must be >= 1, got {count}")
    if grid is None:
        grid = GridSpec.symmetric(default_box(params, count), DEFAULT_POINTS)
    op = discretize_kg(params, grid)
    ratio = params.b / params.lam
    results = []
    for r in lowest_eigenvalues(op, count, tol):
        ebar = math.sqrt(1.0 + ratio * r.k_squared)
        results.append(replace(r, energy_dimensionless=ebar))
    return results


def effective_potential(params: OscillatorParams, energy: float, x) -> float:
    """Vector-coupling effective potential (E m w^2 x^2 - m^2 w^4 x^4 / 4)/(c^2 hbar^2).

    This is the Schrodinger-form potential (2 E V - V^2)/(c^2 hbar^2) with
    V = m w^2 x^2 / 2 substituted.  Accepts a scalar or an ndarray x.
    """
    m, w = params.mass, params.omega
    # powers via products: multiplication is exactly sign-symmetric, so the
    # profile of this even function mirrors bit for bit on symmetric grids
    x2 = x * x
    numerator = energy * m * w**2 * x2 - 0.25 * m**2 * w**4 * x2 * x2
    return numerator / (params.c**2 * params.hbar**2)


def veff_zero_crossing(params: OscillatorParams, energy: float) -> float:
    """Positive root of the effective potential, x* = 2 sqrt(E/m) / omega.

    Zero for non-positive energies, where the potential is nowhere positive.
    """
    if energy <= 0.0:
        return 0.0
    return 2.0 * math.sqrt(energy / params.mass) / params.omega


def profile_effective_potential(params: OscillatorParams, energy: float,
                                grid: GridSpec) -> EffectivePotentialProfile:
    """Sample the effective potential and flag unboundedness from below.

    The flag is set when, over the outermost tenth of the samples beyond the
    sign change at x* = 2 sqrt(E/m)/omega, the potential is negative and
    still decreasing outward.  The grid must extend beyond x*.
    """
    xstar = veff_zero_crossing(params, energy)
    if grid.x_max <= xstar:
        raise GridTooSmall(
            f"grid ends at {grid.x_max!r}, inside the potential zero at {xstar:g}")
    x = grid.nodes()
    v = effective_potential(params, energy, x)
    beyond = np.where(x > xstar)[0]
    if len(beyond) < 2:
        raise GridTooSmall(
            f"grid has {len(beyond)} node(s) beyond the potential zero at "
            f"{xstar:g}; at least 2 are needed")
    tail_len = max(2, math.ceil(TAIL_FRACTION * len(beyond)))
    tail = v[beyond[-min(tail_len, len(beyond)):]]
    detected = bool(np.all(tail < 0.0) and np.all(np.diff(tail) < 0.0))
    return EffectivePotentialProfile(energy=float(energy),
                                     samples=np.column_stack([x, v]),
                                     unbounded_below_detected=detected)
