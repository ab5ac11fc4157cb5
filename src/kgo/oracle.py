"""Independent finite-difference verification of the closed-form spectrum.

The operator -psi'' + lam^2 x^2 psi is discretised with the second-order
central stencil under Dirichlet boundaries and its lowest eigenvalues k^2
are located by bisection on Sturm pivot counts, on the even and odd
half-line blocks of the mirror-symmetric matrix (lowest_eigenvalues), with
sweeps that end past the classical turning point of their shift
(sturm_count).  Each level is one work of kgo.fork's apart, which, where
the sweeps repay a fork and a fork pays, has a forked child bisect levels
from the odd block's highest down, with results identical to those of one
process; this module itself knows nothing of processes.  Nothing from the closed-form
spectrum module enters this path, so agreement between the two is evidence
rather than construction.
The module runs on lists of Python floats and never loads numpy.

The module also profiles the effective potential that arises when the
harmonic potential couples as a Lorentz vector instead of through the
momentum.  That route supports no true bound states for positive-energy
particles: the potential is unbounded from below at large |x|, which
profile_effective_potential detects.
"""

import math
import sys
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate, islice

from .errors import (DEFAULT_POINTS, DEFAULT_TOL, InvalidInput, NonConvergence, check_instance,
                     check_integer, check_points, check_positive, check_real, evaluate_finite,
                     real_floats)
from .params import GridSpec, OscillatorParams, default_extent

MACHINE_EPS = sys.float_info.epsilon
BISECTION_MAX_ITER = 200
# A forked child costs about 3 ms; from about 10^6 rows of Sturm sweeps the
# second CPU repays it (lowest_eigenvalues, on a 2-vCPU Linux VM)
_FORK_MIN_ROWS = 10**6
# fraction of the beyond-zero samples inspected for the unboundedness flag
TAIL_FRACTION = 0.1


class TridiagonalOperator:
    """Symmetric tridiagonal matrix from a uniform three-point stencil.

    diagonal is the main diagonal, a sequence of finite real numbers
    (errors.real_floats: no text, and a refusal names the first refused
    entry and its index), held as a list of Python floats; off_diagonal is
    the one coupling shared by every pair of neighbouring rows, a finite
    real number (errors.check_real).  Intended for positive-semidefinite
    discretisations: eigenvalue brackets start at zero.
    _mirror_row marks the even block of a folded operator (see
    lowest_eigenvalues), whose row 0 couples to row 1 through
    sqrt(2) * off_diagonal; only _block makes one.
    """

    def __init__(self, diagonal, off_diagonal: float):
        # Python floats, so every pivot is a double whatever the input types
        self.diagonal = real_floats("operator diagonal", diagonal)
        self.off_diagonal = check_real("operator coupling", off_diagonal)
        if not self.diagonal:
            raise InvalidInput("operator must have at least one row")
        # an infinite entry makes the bisection bracket infinite, and
        # sturm_count divides the coupling's square by every pivot
        if not all(map(math.isfinite, self.diagonal)):
            index = [*map(math.isfinite, self.diagonal)].index(False)
            raise InvalidInput(
                f"operator diagonal must be finite, got {self.diagonal[index]} at index {index}")
        evaluate_finite("operator coupling squared", lambda: self.off_diagonal ** 2)
        self._mirror_row = False

    @classmethod
    def _block(cls, diagonal: list, off_diagonal: float, mirror_row: bool):
        """An operator on entries known to pass __init__'s checks, unchecked."""
        self = cls.__new__(cls)
        self.diagonal, self.off_diagonal, self._mirror_row = diagonal, off_diagonal, mirror_row
        return self

    @property
    def dimension(self) -> int:
        return len(self.diagonal)

    @cached_property
    def _rows(self) -> tuple[float, list, list]:
        """(first, rest, floor): the diagonal split after row 0, and
        floor[i] = min(rest[i:]), which never decreases (see sturm_count)."""
        first, *rest = self.diagonal
        floor = list(accumulate(reversed(rest), min))
        floor.reverse()
        return first, rest, floor

    @cached_property
    def gershgorin_upper(self) -> float:
        hi = max(self.diagonal)
        if self.dimension > 1:
            hi += 2.0 * abs(self.off_diagonal)
        return hi


def discretize_weber(lam: float, grid: GridSpec) -> TridiagonalOperator:
    """Central-difference matrix of -psi'' + lam^2 x^2 psi on interior nodes.

    Dirichlet psi = 0 at both grid ends; eigenvalues approximate k^2 with
    O(h^2) error.  The momentum-coupled relativistic oscillator is this
    operator with lam = m omega / hbar, acting on the eigenvalue
    k^2 = (E^2 - m^2 c^4)/(c^2 hbar^2).  The rows are the interior nodes of
    grid.nodes().
    """
    lam, h = check_positive("lam", lam), check_instance("grid", grid, GridSpec).spacing

    def diagonal():
        centre, lam_squared = 2.0 / h**2, lam**2
        return [centre + lam_squared * (x * x) for x in grid.nodes()[1:-1]]
    diagonal = evaluate_finite("operator diagonal 2/h^2 + lam^2 x^2", diagonal)
    off_diagonal = -1.0 / h**2  # finite, as 2/h^2 is
    evaluate_finite("operator coupling squared", lambda: off_diagonal ** 2)
    return TridiagonalOperator._block(diagonal, off_diagonal, False)  # floats __init__ passes


def sturm_count(op: TridiagonalOperator, shift: float, limit: int | None = None) -> int:
    """Number of eigenvalues strictly below shift, from LDL^T pivot signs, or
    limit, a count >= 1, once that many are found: min(count, limit).

    shift is a finite real number (errors.check_real).  The count only grows
    along the rows, so the sweep returns when it reaches limit.

    A zero pivot is replaced by +eps times the Gershgorin bound, which counts
    a boundary hit as not-below; bisection is insensitive to that choice.

    The sweep ends once no later row can add to the count.  With r the
    coupling's magnitude, a pivot d >= r followed by a row whose a - shift is
    at least r + off^2/r = 2r gives a pivot (a - shift) - off^2/d >= r again.
    The cut is the first row from which every remaining diagonal entry clears
    that bound, found by bisection on floor, the running minimum _rows keeps;
    rows before the cut are swept in full, rows after it only while d < r.
    The bound and the shift plus it are each rounded up one ulp, and every
    rounded operation of the pivot update is monotone in a and d, so the
    computed pivots past the stop are >= r > 0 as well: the count is the full
    sweep's, bit for bit.  On an oscillator block those rows lie past the
    classical turning point of the shift.
    """
    op = check_instance("operator", op, TridiagonalOperator)
    shift = check_real("shift", shift)
    limit = op.dimension if limit is None else check_integer(limit, "limit", 1, math.inf)
    pivmin = MACHINE_EPS * op.gershgorin_upper or MACHINE_EPS
    offsq = op.off_diagonal * op.off_diagonal
    reach = abs(op.off_diagonal) or MACHINE_EPS  # r: any positive float keeps the proof
    bound = math.nextafter(reach + offsq / reach, math.inf)
    first, rest, floor = op._rows
    cut = bisect_left(floor, math.nextafter(shift + bound, math.inf))
    d = (first - shift) or pivmin  # the first row has no predecessor
    count = int(d < 0.0)
    if count == limit:
        return count
    if op._mirror_row:
        # the next row divides 2 offsq by this pivot; halving it is exact
        # unless it rounds the pivot to 0, which keeps it whole
        d = 0.5 * d or d
    rows = iter(rest)
    past_cut = False
    for part in (islice(rows, cut), rows):
        for a in part:
            if past_cut and d >= reach:
                break
            d = (a - shift) - offsq / d
            if d <= 0.0:  # most pivots are positive and pass this one test
                if d:
                    count += 1
                    if count == limit:
                        return count
                else:
                    d = pivmin
        past_cut = True
    return count


def _half_line_blocks(op: TridiagonalOperator) -> list[TridiagonalOperator]:
    """[even block, odd block] of a mirror-symmetric operator, else [op].

    An odd-dimension operator whose diagonal reads the same backwards
    commutes with the reflection about its centre row m, so its spectrum is
    that of the even (Neumann) block, rows m... with row m coupled through
    sqrt(2) * off_diagonal, joined with the odd (Dirichlet) block, rows m+1....
    """
    diagonal = op.diagonal
    if op.dimension < 3 or op.dimension % 2 == 0 or diagonal != diagonal[::-1]:
        return [op]
    m = op.dimension // 2
    return [TridiagonalOperator._block(diagonal[m:], op.off_diagonal, True),
            TridiagonalOperator._block(diagonal[m + 1:], op.off_diagonal, False)]


def lowest_eigenvalues(op: TridiagonalOperator, count: int,
                       tol: float) -> list[float]:
    """First `count` eigenvalues by Sturm bisection, as an ascending list.

    Each eigenvalue starts from the bracket [0, Gershgorin upper bound] and
    is bisected until the bracket is narrower than tol; the bracket midpoint
    is returned.  An operator with an eigenvalue below 0 is refused, and the
    lowest level whose bracket is still wider than tol after
    BISECTION_MAX_ITER steps raises NonConvergence.

    A mirror-symmetric operator is folded into its even and odd half-line
    blocks: by the discrete oscillation theorem level j has parity (-1)^j,
    so it is level j // 2 of the even block for even j and of the odd block
    for odd j, and each Sturm sweep runs over half the rows.  All levels
    bisect one tree of midpoints from the same root, so each block counts a
    midpoint once, in a memo that its levels share, and later levels reuse
    the counts of earlier ones, as the shared brackets of LAPACK dstebz do.
    Each sweep ends once its pivots can no longer turn negative, past the
    turning point of the midpoint, and gives the full sweep's count (see
    sturm_count), or once it has counted as many eigenvalues as the levels
    taken from its block: every index bisected there is below that number,
    so each decision is the one the full count gives, and the memo holds the
    capped count.  In exact arithmetic every decision is the unfolded one;
    in floating point a midpoint within rounding of an eigenvalue, where tol
    is below the rounding of a Sturm count, can go either way.

    Each level is one work of fork.apart, the even block's levels first and
    then the odd block's: where the sweeps hold _FORK_MIN_ROWS rows or more,
    apart may have a forked child bisect from the odd block's highest level
    down while this process bisects from the even block's lowest up.  One
    that runs out of its own block's levels bisects the other's without that
    block's memo, to the same bits: each level runs the same loop on the same
    numbers wherever it runs, so the results, and the failure, are bit for
    bit those of one process.
    """
    op = check_instance("operator", op, TridiagonalOperator)
    count = check_integer(count, "count", 1, op.dimension)
    tol = check_positive("tol", tol)
    if min(op.diagonal) - 2.0 * abs(op.off_diagonal) < 0.0:
        below = sturm_count(op, 0.0)
        if below:
            raise InvalidInput(f"{below} eigenvalue(s) lie below 0, where the brackets start")
    folds = _half_line_blocks(op)
    # level j is level j // len(folds) of block j % len(folds)
    per_block = [range(parity, count, len(folds)) for parity in range(len(folds))]
    levels = [j for part in per_block for j in part]  # the work items, block by block
    memos = [{} for _ in folds]  # per block: midpoint -> Sturm count, up to its level count

    def bisect(item):  # the last bracket (lo, hi) of levels[item]
        index, parity = divmod(levels[item], len(folds))
        block, memo, limit = folds[parity], memos[parity], len(per_block[parity])
        lo, hi = 0.0, op.gershgorin_upper
        for _ in range(BISECTION_MAX_ITER):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            below = memo.get(mid)
            if below is None:
                below = memo[mid] = sturm_count(block, mid, limit)
            if below > index:
                hi = mid
            else:
                lo = mid
        return lo, hi
    # count levels x rows x bisection steps from the bracket's start to tol
    rows = count * op.dimension * math.frexp(op.gershgorin_upper / tol)[1]
    if len(per_block[0]) < count and rows >= _FORK_MIN_ROWS:  # the odd block has a level
        from . import fork
        brackets = fork.apart(bisect, count)
    else:
        brackets = map(bisect, range(count))
    brackets = sorted(zip(levels, brackets))  # in level order
    for j, (lo, hi) in brackets:
        if hi - lo > tol:
            raise NonConvergence(f"eigenvalue {j}: bracket still {hi - lo:g} wide after "
                                 f"{BISECTION_MAX_ITER} bisection steps (tol = {tol:g})")
    return [0.5 * (lo + hi) for _, (lo, hi) in brackets]


def oracle_energies(params: OscillatorParams, count: int,
                    points: int = DEFAULT_POINTS,
                    tol: float = DEFAULT_TOL) -> tuple[list[float], list[float]]:
    """Lowest `count` finite-difference k^2 and their dimensionless energies, as lists.

    The box is twice the turning point of the highest requested level plus
    tail padding, sampled at `points` nodes.  Each k^2 maps through
    Ebar = sqrt(1 + b k^2 / lam), the dimensionless inversion of
    k^2 = (E^2 - m^2 c^4)/(c^2 hbar^2).
    """
    # one operator row per interior node; checked before default_extent, which
    # would report count - 1 as an out-of-range level
    count = check_integer(count, "count", 1, check_points(points) - 2)
    params = check_instance("params", params, OscillatorParams)
    grid = GridSpec(default_extent(count - 1, params.lam), points)
    k_squared = lowest_eigenvalues(discretize_weber(params.lam, grid), count, tol)
    ratio = params.b / params.lam
    return k_squared, evaluate_finite("oracle energy sqrt(1 + b k^2 / lam)",
                                      lambda: [math.sqrt(1.0 + ratio * k) for k in k_squared])


def effective_potential(params: OscillatorParams, energy: float, x: float) -> float:
    """Vector-coupling effective potential (E m w^2 x^2 - m^2 w^4 x^4 / 4)/(c^2 hbar^2).

    This is the Schrodinger-form potential (2 E V - V^2)/(c^2 hbar^2) with
    V = m w^2 x^2 / 2 substituted, at a real energy and a real x
    (errors.check_real), each taken as a Python float: _v_eff on [x].
    """
    params = check_instance("params", params, OscillatorParams)
    return _v_eff(params, check_real("energy", energy), [check_real("x", x)])[0]


def _v_eff(params: OscillatorParams, energy: float, xs: list) -> list:
    """V_eff at each float of xs, for checked params and a float energy: the
    one formula, in u = w x, so a tiny w with a huge x (or the reverse)
    neither underflows w^4 nor overflows x^2."""
    m, omega = params.mass, params.omega

    def v_eff():
        quadratic, quartic, scale = energy * m, 0.25 * m**2, params.c**2 * params.hbar**2
        # u * u: a product is exactly sign-symmetric, so the profile mirrors bit for bit
        squares = [u * u for u in [omega * x for x in xs]]
        return [(quadratic * u2 - quartic * u2 * u2) / scale for u2 in squares]
    return evaluate_finite("effective potential V_eff", v_eff)


def veff_zero_crossing(params: OscillatorParams, energy: float) -> float:
    """Positive root of the effective potential, x* = 2 sqrt(E/m) / omega.

    Zero for a real energy <= 0 (errors.check_real), where V_eff is nowhere
    positive; elsewhere computed from the energy as a Python float.
    """
    params = check_instance("params", params, OscillatorParams)
    energy = check_real("energy", energy)
    if energy <= 0.0:
        return 0.0
    return evaluate_finite("V_eff zero crossing 2 sqrt(E/m)/omega",
                           lambda: 2.0 * math.sqrt(energy / params.mass) / params.omega)


def profile_effective_potential(params: OscillatorParams, energy: float,
                                grid: GridSpec) -> tuple:
    """(v_eff, unbounded_below): V_eff at grid.nodes(), as a list, and a flag.

    The list is _v_eff on the nodes, at the energy as a Python float
    (errors.check_real): each entry is effective_potential at its node bit
    for bit, and a profile that overflows raises what its first overflowing
    node raises.  The flag is set when, over the outermost tenth of the
    samples beyond the sign change at x* = 2 sqrt(E/m)/omega, the potential
    is negative and still decreasing outward.  At least 2 grid nodes must
    lie beyond x*.
    """
    xstar = veff_zero_crossing(params, energy)
    x = check_instance("grid", grid, GridSpec).nodes()
    beyond = len(x) - bisect_right(x, xstar)  # the nodes ascend
    if beyond < 2:
        raise InvalidInput(
            f"grid has {beyond} node(s) beyond the potential zero at "
            f"{xstar:g}; at least 2 are needed")
    v = _v_eff(params, check_real("energy", energy), x)
    tail = v[-max(2, math.ceil(TAIL_FRACTION * beyond)):]
    return v, all(a < 0.0 for a in tail) and all(b < a for a, b in zip(tail, tail[1:]))
