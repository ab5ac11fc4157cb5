"""Normalized stationary states psi_n(x) and quadrature checks.

psi_n(x) = N_n exp(-lam x^2 / 2) H_n(sqrt(lam) x) with the constant
N_n = sqrt( sqrt(lam/pi) / (2^n n!) ).  psi evaluates the product N_n H_n
exp(-xi^2/2) point by point through the normalised Hermite-function
recurrence (Gil, Segura & Temme, Numerical Methods for Special Functions,
2007), so the factorially growing polynomial and the shrinking constant
never appear separately.  A binary exponent, carried where the Gaussian
underflows, keeps it accurate at every level n <= MAX_LEVEL (compare
Townsend, Trogdon & Olver, IMA J. Numer. Anal. 2016), and past a proven
bound, where psi rounds to 0, the recurrence is skipped.  Like every module
of the package it runs on Python floats: psi takes a float or a sequence of
them, sample returns a list and inner_product takes lists.  The grid they
take is a kgo.params.GridSpec (errors.check_instance).  sample may share a
large grid with a forked child through kgo.fork, which alone knows of processes.
"""

import math
import sys
from bisect import bisect_left
from itertools import chain

from .errors import (InvalidInput, check_instance, check_integer, check_positive,
                     evaluate_finite, is_real, real_floats)
from .params import GridSpec

_LN2 = math.log(2.0)
# log2 of a bound on |psi| far under 2^-1075, half the least subnormal
_UNDERFLOW_LOG2 = -1100.0
_RESCALE = 2.0 ** 500  # past this phi_k and phi_{k-1} are scaled to below 1
# sample counts a point as _POINT_STEPS recurrence steps (exp, loop set-up).  A
# fork costs a kgo start about 10 ms, repaid from about 2 * 10^5 steps (2-vCPU
# Linux VM); a work of fork.apart holds at most _PART_STEPS steps, about 0.2 s
_POINT_STEPS = 4
_FORK_MIN_STEPS = 2 * 10**5
_PART_STEPS = 2 * 10**6


def psi(n: int, x, lam: float):
    """Normalised stationary state psi_n at x, a real number or a sequence of them.

    Runs phi_{k+1} = sqrt(2/(k+1)) xi phi_k - sqrt(k/(k+1)) phi_{k-1} from
    phi_0 = pi^(-1/4) exp(-xi^2/2), xi = sqrt(lam) x; psi_n = lam^(1/4) phi_n.
    Where phi_0 is not a normal double it runs on phi_k 2^-e and carries e,
    rescaling by exact powers of two; elsewhere |phi_k| < 1 and every step
    rounds as in the plain recurrence.  From _underflow_start on psi is 0,
    with no step run.  Returns a float for a number and a list of floats for
    a sequence.  An x that errors.real_floats refuses, NaN included, is
    InvalidInput; psi is 0 at +-inf.
    """
    n, lam, scalar = check_integer(n), check_positive("lam", lam), is_real(x)
    values = _recurrence(n, lam, _underflow_start(n, lam))(real_floats("x", [x] if scalar else x))
    return values[0] if scalar else values


def _recurrence(n: int, lam: float, skip: float):
    """psi's values at xs, a list of floats other than NaN, as a function of xs
    set up once for a checked n and lam and skip = _underflow_start(n, lam)."""
    steps = [(math.sqrt(2.0 / (k + 1.0)), math.sqrt(k / (k + 1.0))) for k in range(n)]
    # a step grows max(|phi_k|, |phi_{k-1}|) by at most sqrt(2) |xi| + 1, so
    # from 2^500 a chunk of steps stays below 2^1000: carried values are
    # checked for rescaling once per chunk
    size = int(500.0 / math.log2(math.sqrt(2.0) * skip + 1.0))
    chunks = [steps[k:k + size] for k in range(0, n, size)]
    root, scale, start, tiny = math.sqrt(lam), lam ** 0.25, math.pi ** -0.25, sys.float_info.min

    def values_at(xs):
        values = []
        for point in xs:
            xi = root * point
            if not abs(xi) < skip:  # psi rounds to 0, also at +-inf
                values.append(0.0)
                continue
            log_gauss = -0.5 * xi * xi
            phi, phi_prev = start * math.exp(log_gauss), 0.0
            if phi >= tiny:  # then |phi_k| < 1 at every k
                for a, b in steps:
                    phi_prev, phi = phi, a * xi * phi - b * phi_prev
                values.append(scale * phi)
                continue
            # start from pi^(-1/4) 2^f and carry the exponent e of
            # exp(-xi^2/2) = 2^(f + e), f in (-1, 0]
            fraction, exponent = math.modf(log_gauss / _LN2)
            phi, exponent = start * 2.0 ** fraction, int(exponent)
            for chunk in chunks:
                for a, b in chunk:
                    phi_prev, phi = phi, a * xi * phi - b * phi_prev
                if max(abs(phi), abs(phi_prev)) > _RESCALE:
                    shift = math.frexp(max(abs(phi), abs(phi_prev)))[1]
                    phi, phi_prev = math.ldexp(phi, -shift), math.ldexp(phi_prev, -shift)
                    exponent += shift
            values.append(math.ldexp(scale * phi, exponent))
        return values
    return values_at


def _underflow_start(n: int, lam: float) -> float:
    """An xi >= sqrt(2n + 1) from which on |psi_n| < 2^_UNDERFLOW_LOG2.

    The zeros of H_n lie below sqrt(2n + 1), and past the largest one
    |H_n(xi)| <= (2 xi)^n, so there log2 |psi_n| is at most
    log2(lam^(1/4) pi^(-1/4) (2 xi)^n exp(-xi^2/2) / sqrt(2^n n!)).  That
    bound falls wherever xi^2 > n; bisection finds where it passes the limit.
    """
    constant = 0.25 * (math.log2(lam) - math.log2(math.pi)) - 0.5 * (
        n + math.lgamma(n + 1.0) / _LN2)

    def underflows(xi):
        return constant + n * math.log2(2.0 * xi) - 0.5 * xi * xi / _LN2 < _UNDERFLOW_LOG2

    low = high = math.sqrt(2.0 * n + 1.0)
    while not underflows(high):
        low, high = high, 2.0 * high
    for _ in range(30):  # high stays where the bound has passed the limit
        middle = 0.5 * (low + high)
        low, high = (low, middle) if underflows(middle) else (middle, high)
    return high


def sample(n: int, grid: GridSpec, lam: float, _nodes: list | None = None) -> list:
    """psi_n evaluated at every grid node, as a list.

    The nodes are odd and psi_n has parity (-1)^n, both bit for bit, so psi
    runs on the nodes x >= 0, unchecked, and the rest is their mirror image.
    From _FORK_MIN_STEPS steps on, they are an even number of fork.apart works
    that share the nodes below the underflow start evenly and one set-up of
    the recurrence, which a forked child may run from the last down, with
    the bits of one process.  _nodes, if given, is grid.nodes(), built by
    the caller (kgo wavefn).
    """
    n, lam = check_integer(n), check_positive("lam", lam)
    grid = check_instance("grid", grid, GridSpec)
    nodes = grid.nodes() if _nodes is None else _nodes
    right = nodes[grid.points // 2:]
    below = bisect_left(right, (skip := _underflow_start(n, lam)) / math.sqrt(lam))  # psi is 0
    steps, values_at = below * (n + _POINT_STEPS), _recurrence(n, lam, skip)
    if steps < _FORK_MIN_STEPS:
        right = values_at(right)
    else:
        from . import fork
        parts = 2 * -(-steps // (2 * _PART_STEPS))
        edges = [below * k // parts for k in range(parts)] + [len(right)]
        right = list(chain.from_iterable(fork.apart(
            lambda k: values_at(right[edges[k]:edges[k + 1]]), parts)))
    left = right[:0:-1]
    return (left if n % 2 == 0 else [-v for v in left]) + right


def inner_product(grid: GridSpec, f, g) -> float:
    """Composite-Simpson quadrature over grid of f*g, each sampled at its nodes.

    f and g are sequences of real numbers, one per node; the weighted
    products are summed exactly with math.fsum.  Samples that
    errors.real_floats refuses, NaN included, are InvalidInput; a sum past
    the double range, from samples that hold an inf or overflow in f*g, is
    OutOfRange.
    """
    grid, f, g = check_instance("grid", grid, GridSpec), real_floats("f", f), real_floats("g", g)
    if len(f) != grid.points or len(g) != grid.points:
        raise InvalidInput(f"sampled functions must hold one value per node of {grid}")
    weights = [1.0] + [4.0, 2.0] * (grid.points // 2 - 1) + [4.0, 1.0]
    terms = [w * (a * b) for w, a, b in zip(weights, f, g)]
    return evaluate_finite("inner product", lambda: grid.spacing / 3.0 * math.fsum(terms)
                           if all(map(math.isfinite, terms)) else math.inf)
