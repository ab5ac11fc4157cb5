"""Special-function kernel: physicists' Hermite polynomials and the regular
confluent hypergeometric function M(a, c, y).

Only real arguments are supported: each is an errors.is_real number, taken
as a Python float, so numpy scalars of any width are computed in double;
anything else is InvalidInput.  M is summed only where its series
terminates, at a non-positive integer a: there it is a polynomial in y,
summed exactly over its finitely many nonzero terms, which is all the
Hermite bridges and the quantised states need.  Any other a is refused.
A non-finite xi or y, an int past the double range, or a result outside
it raises OutOfRange (errors.evaluate_finite).
"""

import math

from .errors import InvalidInput, check_integer, evaluate_finite, is_real

# |v - round(v)| up to this counts as an integer, for kummer_m's a (a
# terminating series) and c (a pole).  The Hermite bridges pass exact
# integers; the tolerance lets an a or c that a caller computed in floating
# point, with rounding noise, count as the integer it stands for.
INTEGER_TOL = 1e-9


def _is_nonpositive_integer(v: float) -> bool:
    return abs(v - round(v)) <= INTEGER_TOL and round(v) <= 0


def _real_xi(xi) -> float:
    """xi as a Python float: the one argument rule of the Hermite functions."""
    if not is_real(xi):
        raise InvalidInput(f"H_n(xi) needs a real xi, got {xi!r}")
    return evaluate_finite("H_n(xi) argument xi", lambda: float(xi))


def hermite(n: int, xi: float) -> float:
    """H_n(xi) by the three-term recurrence H_{k+1} = 2 xi H_k - 2 k H_{k-1}."""
    n, xi = check_integer(n, "polynomial degree"), _real_xi(xi)
    h_prev, h = 0.0, 1.0
    for k in range(n):
        h_prev, h = h, 2.0 * xi * h - 2.0 * k * h_prev
    return evaluate_finite(f"H_{n}({xi!r})", lambda: h)


def kummer_m(a: float, c: float, y: float) -> float:
    """M(a, c, y) = sum_k (a)_k / (c)_k * y^k / k! for a non-positive integer a.

    There (within INTEGER_TOL) the series terminates: the sum runs over its
    -round(a) + 1 nonzero terms only, and the degree -round(a) must be a
    level (errors.check_integer).  Any other a, and a non-positive integer c
    (a pole), is InvalidInput.  A sum outside the double range is OutOfRange.
    """
    if not all(map(is_real, (a, c, y))):
        raise InvalidInput(f"M(a, c, y) needs real a, c and y, got {a!r}, {c!r}, {y!r}")
    if any(v != v or abs(v) == math.inf for v in (a, c)):  # round() needs finite values
        raise InvalidInput(f"M(a, c, y) needs finite a and c, got {a!r}, {c!r}")
    a, c, y = evaluate_finite("M(a, c, y) argument", lambda: [float(a), float(c), float(y)])
    if _is_nonpositive_integer(c):
        raise InvalidInput(f"M(a, c, y) has a pole at c = {c!r}")
    if not _is_nonpositive_integer(a):
        raise InvalidInput(f"M(a, c, y) needs a non-positive integer a, got {a!r}")
    degree = check_integer(-round(a), "polynomial degree")  # bounds the loop
    s = term = 1.0
    for k in range(degree):
        term *= (a + k) / (c + k) * y / (k + 1)
        s += term
    return evaluate_finite(f"M({a!r}, {c!r}, {y!r})", lambda: s)


def _hermite_from_kummer(n: int, xi: float, odd: int) -> float:
    """H_{2n+odd}(xi) = (-1)^n (1 + odd) (2n+odd)!/n! xi^odd M(-n, 1/2 + odd, xi^2)."""
    n, xi = check_integer(n), _real_xi(xi)
    prefactor = (1.0 + odd) * math.prod(map(float, range(n + 1, 2 * n + 1 + odd)))
    m = kummer_m(-float(n), 0.5 + odd, xi * xi)
    return evaluate_finite(f"H_{2 * n + odd}({xi!r})",
                           lambda: (-1.0) ** n * prefactor * (xi if odd else 1.0) * m)


def hermite_from_kummer_even(n: int, xi: float) -> float:
    """H_{2n}(xi) through the identity (-1)^n (2n)!/n! M(-n, 1/2, xi^2)."""
    return _hermite_from_kummer(n, xi, 0)


def hermite_from_kummer_odd(n: int, xi: float) -> float:
    """H_{2n+1}(xi) through (-1)^n 2 (2n+1)!/n! xi M(-n, 3/2, xi^2).

    The explicit xi factor is required: without it the right-hand side is
    an even function of xi and cannot equal an odd polynomial.
    """
    return _hermite_from_kummer(n, xi, 1)
