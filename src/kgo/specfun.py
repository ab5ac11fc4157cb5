"""Special-function kernel: physicists' Hermite polynomials and the regular
confluent hypergeometric function M(a, c, y).

Only real arguments are supported.  The series for M terminates to a
polynomial whenever a is a non-positive integer; that case is summed
exactly over its finitely many nonzero terms.  The convergent branch for
non-integer a exists for diagnostics and is capped at SERIES_MAX_TERMS.
A result outside the double range raises OutOfRange (params.evaluate_finite).
"""

import math

from .errors import InvalidInput, NonConvergence
from .params import check_levels, evaluate_finite

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
    h_prev, h = 0.0, 1.0
    for k in range(n):
        h_prev, h = h, 2.0 * xi * h - 2.0 * k * h_prev
    return evaluate_finite(f"H_{n}({xi!r})", lambda: h)


def kummer_m(a: float, c: float, y: float) -> float:
    """M(a, c, y) = sum_k (a)_k / (c)_k * y^k / k! by direct summation.

    Terminating case (a a non-positive integer): the sum runs over its
    -round(a) + 1 nonzero terms only, and the degree -round(a) must be a
    level (params.check_levels).  Otherwise terms accumulate until two
    consecutive terms fall below SERIES_REL_TOL relative to the partial sum.
    A non-positive integer c (within INTEGER_TOL) is a pole: InvalidInput.
    A sum outside the double range is OutOfRange; NonConvergence means only
    that SERIES_MAX_TERMS terms did not meet the tolerance.
    """
    if not (math.isfinite(a) and math.isfinite(c)):  # round() needs finite values
        raise InvalidInput(f"M(a, c, y) needs finite a and c, got {a!r}, {c!r}")
    if _is_nonpositive_integer(c):
        raise InvalidInput(f"M(a, c, y) has a pole at c = {c!r}")
    what = f"M({a!r}, {c!r}, {y!r})"
    s = term = 1.0
    if _is_nonpositive_integer(a):
        degree = int(-round(a))
        check_levels(degree, what="polynomial degree")  # bounds the loop
        for k in range(degree):
            term *= (a + k) / (c + k) * y / (k + 1)
            s += term
        return evaluate_finite(what, lambda: s)
    consecutive_small = 0
    for k in range(SERIES_MAX_TERMS):
        term *= (a + k) / (c + k) * y / (k + 1)
        s += term
        # an inf or nan partial sum stops here too, and evaluate_finite reports it
        if not abs(term) > SERIES_REL_TOL * abs(s):
            consecutive_small += 1
            if consecutive_small >= 2:
                return evaluate_finite(what, lambda: s)
        else:
            consecutive_small = 0
    raise NonConvergence(f"{what} did not converge within {SERIES_MAX_TERMS} terms")


def hermite_from_kummer_even(n: int, xi: float) -> float:
    """H_{2n}(xi) through the identity (-1)^n (2n)!/n! M(-n, 1/2, xi^2)."""
    check_levels(n)
    prefactor = math.prod(map(float, range(n + 1, 2 * n + 1)))  # (2n)!/n!
    m = kummer_m(-float(n), 0.5, xi * xi)
    return evaluate_finite(f"H_{2 * n}({xi!r})", lambda: (-1.0) ** n * prefactor * m)


def hermite_from_kummer_odd(n: int, xi: float) -> float:
    """H_{2n+1}(xi) through (-1)^n 2 (2n+1)!/n! xi M(-n, 3/2, xi^2).

    The explicit xi factor is required: without it the right-hand side is
    an even function of xi and cannot equal an odd polynomial.
    """
    check_levels(n)
    prefactor = 2.0 * math.prod(map(float, range(n + 1, 2 * n + 2)))  # 2 (2n+1)!/n!
    m = kummer_m(-float(n), 1.5, xi * xi)
    return evaluate_finite(f"H_{2 * n + 1}({xi!r})",
                           lambda: (-1.0) ** n * prefactor * xi * m)
