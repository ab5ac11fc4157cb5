"""Special-function kernel: physicists' Hermite polynomials and the regular
confluent hypergeometric function M(a, c, y).

Only real arguments are supported.  The series for M terminates to a
polynomial whenever a is a non-positive integer; that case is summed
exactly over its finitely many nonzero terms.  The convergent branch for
non-integer a exists for diagnostics and is capped at SERIES_MAX_TERMS.
"""

import math

from .errors import NonConvergence, PoleAtC
from .params import check_levels

# |v - round(v)| below this counts as an integer.  The quantisation algebra
# upstream produces exact non-positive integers; the tolerance only guards
# float noise.
INTEGER_TOL = 1e-9

SERIES_REL_TOL = 1e-16
SERIES_MAX_TERMS = 500


def _is_nonpositive_integer(v: float) -> bool:
    return abs(v - round(v)) <= INTEGER_TOL and round(v) <= 0


def hermite(n: int, xi: float) -> float:
    """H_n(xi) by the three-term recurrence H_{k+1} = 2 xi H_k - 2 k H_{k-1}."""
    check_levels(n, what="polynomial degree")
    if n == 0:
        return 1.0
    h_prev, h = 1.0, 2.0 * xi
    for k in range(1, n):
        h_prev, h = h, 2.0 * xi * h - 2.0 * k * h_prev
    if not math.isfinite(h):
        raise OverflowError(f"H_{n}({xi!r}) exceeds the floating-point range")
    return h


def kummer_m(a: float, c: float, y: float) -> float:
    """M(a, c, y) = sum_k (a)_k / (c)_k * y^k / k! by direct summation.

    Terminating case (a a non-positive integer): the sum runs over its
    -round(a) + 1 nonzero terms only.  Otherwise terms accumulate until two
    consecutive terms fall below SERIES_REL_TOL relative to the partial sum.
    A non-positive integer c (within INTEGER_TOL) is a pole: PoleAtC.
    """
    if _is_nonpositive_integer(c):
        raise PoleAtC(f"M(a, c, y) has a pole at c = {c!r}")
    s = 1.0
    term = 1.0
    if _is_nonpositive_integer(a):
        for k in range(int(-round(a))):
            term *= (a + k) / (c + k) * y / (k + 1)
            s += term
        return s
    consecutive_small = 0
    for k in range(SERIES_MAX_TERMS):
        term *= (a + k) / (c + k) * y / (k + 1)
        s += term
        if not math.isfinite(s):
            raise NonConvergence(
                f"M({a!r}, {c!r}, {y!r}) is not representable in double precision")
        if abs(term) <= SERIES_REL_TOL * abs(s):
            consecutive_small += 1
            if consecutive_small >= 2:
                return s
        else:
            consecutive_small = 0
    raise NonConvergence(
        f"M({a!r}, {c!r}, {y!r}) did not converge within {SERIES_MAX_TERMS} terms")


def _rising_product(lo: int, hi: int) -> float:
    """lo * (lo + 1) * ... * hi in floating point (1.0 for an empty range)."""
    p = 1.0
    for k in range(lo, hi + 1):
        p *= k
        if not math.isfinite(p):
            raise OverflowError(
                f"factorial prefactor {lo}*...*{hi} exceeds the floating-point range")
    return p


def hermite_from_kummer_even(n: int, xi: float) -> float:
    """H_{2n}(xi) through the identity (-1)^n (2n)!/n! M(-n, 1/2, xi^2)."""
    check_levels(n)
    prefactor = _rising_product(n + 1, 2 * n)  # (2n)!/n!
    return (-1.0) ** n * prefactor * kummer_m(-float(n), 0.5, xi * xi)


def hermite_from_kummer_odd(n: int, xi: float) -> float:
    """H_{2n+1}(xi) through (-1)^n 2 (2n+1)!/n! xi M(-n, 3/2, xi^2).

    The explicit xi factor is required: without it the right-hand side is
    an even function of xi and cannot equal an odd polynomial.
    """
    check_levels(n)
    prefactor = 2.0 * _rising_product(n + 1, 2 * n + 1)  # 2 (2n+1)!/n!
    return (-1.0) ** n * prefactor * xi * kummer_m(-float(n), 1.5, xi * xi)
