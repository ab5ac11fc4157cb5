import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgo.errors import MAX_LEVEL, InvalidInput, KgoError, OutOfRange
from kgo.specfun import (hermite, hermite_from_kummer_even,
                         hermite_from_kummer_odd, kummer_m)

XI_SAMPLE = (-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0)

# explicit coefficient forms, the independent check for the recurrence
DIRECT_POLYS = {
    0: lambda x: 1.0,
    1: lambda x: 2.0 * x,
    2: lambda x: 4.0 * x**2 - 2.0,
    3: lambda x: 8.0 * x**3 - 12.0 * x,
    4: lambda x: 16.0 * x**4 - 48.0 * x**2 + 12.0,
    5: lambda x: 32.0 * x**5 - 160.0 * x**3 + 120.0 * x,
    6: lambda x: 64.0 * x**6 - 480.0 * x**4 + 720.0 * x**2 - 120.0,
}


def test_hermite_low_orders():
    for xi in XI_SAMPLE:
        assert hermite(0, xi) == 1.0
        assert hermite(1, xi) == 2.0 * xi
    assert hermite(2, 0.0) == -2.0
    assert hermite(3, 1.0) == -4.0


def test_hermite_against_direct_polynomials():
    for n, poly in DIRECT_POLYS.items():
        for xi in XI_SAMPLE:
            got = hermite(n, xi)
            want = poly(xi)
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12), (n, xi)


def test_hermite_recurrence_self_consistency():
    for n in range(1, 26):
        for xi in XI_SAMPLE:
            lhs = hermite(n + 1, xi)
            rhs = 2.0 * xi * hermite(n, xi) - 2.0 * n * hermite(n - 1, xi)
            assert lhs == rhs, (n, xi)


def test_hermite_parity_bit_for_bit():
    for n in range(26):
        sign = (-1.0) ** n
        for xi in (0.1, 0.73, 1.0, 2.5, 3.0):
            assert hermite(n, -xi) == sign * hermite(n, xi), (n, xi)


def test_hermite_rejects_negative_degree():
    with pytest.raises(ValueError):
        hermite(-1, 0.5)


def test_hermite_overflow_signalled():
    with pytest.raises(OverflowError):
        hermite(500, 10.0)
    # an int past the double range raised a bare OverflowError from float(),
    # then OutOfRange: it is an input, refused as every input is
    with pytest.raises(InvalidInput,
                       match="^xi must be a real number, got a positive int of 1329 bits$"):
        hermite(3, 10**400)


def test_kummer_at_origin_is_one():
    for a in (-3.0, -1.0, 0.0):
        for c in (0.5, 1.5, 2.2):
            assert kummer_m(a, c, 0.0) == 1.0


def test_kummer_two_term_polynomial():
    # M(-1, 3/2, y) = 1 - (2/3) y
    for y in (-2.0, -0.3, 0.0, 0.25, 1.0, 9.0):
        assert kummer_m(-1.0, 1.5, y) == pytest.approx(1.0 - 2.0 * y / 3.0,
                                                       rel=1e-15, abs=1e-15)


def test_kummer_three_term_polynomial():
    # M(-2, 1/2, 1) = 1 - 4 + 4/3
    assert kummer_m(-2.0, 0.5, 1.0) == pytest.approx(-5.0 / 3.0, rel=1e-14)


def test_kummer_pole_at_nonpositive_integer_c():
    for c in (0.0, -1.0, -6.0, -2.0 + 1e-12):
        with pytest.raises(InvalidInput,
                           match=rf"^M\(a, c, y\) has a pole at c = {re.escape(repr(c))}$"):
            kummer_m(1.0, c, 0.5)


def test_kummer_m_terminates_exactly_on_nonpositive_integer_a():
    # a non-positive integer a (within INTEGER_TOL) sums exactly -round(a)
    # terms after the leading 1; any other a is refused
    y = 2.3
    for a, c, terms in ((0.0, 0.5, 0), (-4.0, 1.5, 4), (-7.0 + 4e-10, 0.5, 7)):
        s, term = 1.0, 1.0
        for k in range(terms):
            term *= (a + k) / (c + k) * y / (k + 1)
            s += term
        assert kummer_m(a, c, y) == s, a
    for a in (-0.5, 1.2, 0.5, -3.0 + 2e-9, 1.0):
        with pytest.raises(InvalidInput, match=rf"^M\(a, c, y\) needs a non-positive "
                                               rf"integer a, got {re.escape(repr(a))}$"):
            kummer_m(a, 1.5, y)


def test_kummer_terminating_next_coefficient_is_exactly_zero():
    # the (n+1)-th Pochhammer factor (a)_{n+1} vanishes identically at a = -n
    a = -5.0
    poch = 1.0
    for k in range(6):
        poch *= a + k
    assert poch == 0.0
    # summing the finitely many terms equals an explicit 6-term evaluation
    y, c = 2.3, 0.5
    s, term = 1.0, 1.0
    for k in range(5):
        term *= (a + k) / (c + k) * y / (k + 1)
        s += term
    assert kummer_m(a, c, y) == s


def test_kummer_terminating_tolerates_float_noise_in_a():
    noisy = kummer_m(-3.0 + 5e-10, 0.5, 1.7)
    exact = kummer_m(-3.0, 0.5, 1.7)
    assert noisy == pytest.approx(exact, rel=1e-8)


def _hyp1f1_reference(a, c, y):
    """mpmath 1F1(a; c; y) at 50 digits and the sum of |terms| of its series."""
    with mpmath.workdps(50):
        a, c, y = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(y)
        term = magnitude = mpmath.mpf(1)
        for k in range(1000):
            term *= (a + k) / (c + k) * y / (k + 1)
            magnitude += abs(term)
            if abs(term) <= mpmath.mpf(10) ** -40 * magnitude:
                break
        return mpmath.hyp1f1(a, c, y), magnitude


def test_kummer_matches_mpmath_hyp1f1():
    # direct summation in double precision errs by a few eps times the sum of
    # |terms| (measured <= 5.1 eps); that sum exceeds |M| where terms cancel
    for a, c, y in itertools.product((0.0, -1.0, -2.0, -5.0, -10.0, -20.0),
                                     (0.5, 1.5, 3.2),
                                     (-4.0, -3.0, 0.1, 1.0, 2.0, 9.0, 20.0)):
        want, magnitude = _hyp1f1_reference(a, c, y)
        got = kummer_m(a, c, y)
        assert abs(got - want) <= 32 * 2.0**-52 * magnitude, (a, c, y)


@pytest.mark.parametrize("a, c, y", [(1.5, 1.5, 2.0), (0.5, 1.5, 400.0), (0.5, 1.5, 800.0)],
                         ids=["exponential", "past_the_term_cap", "past_the_double_range"])
def test_kummer_refuses_a_series_that_does_not_terminate(a, c, y):
    # M(a, a, y) = e^y, and sums that ran past a term cap or the double
    # range: a non-integer a is refused before any term is summed
    with pytest.raises(InvalidInput, match=r"^M\(a, c, y\) needs a non-positive integer a"):
        kummer_m(a, c, y)


def test_kummer_terminating_overflow_signalled():
    # the polynomial's terms pass the double range and cancel into nan
    with pytest.raises(OutOfRange):
        kummer_m(-400.0, 0.5, 900.0)
    # an int past the double range raised a bare OverflowError from float(),
    # then OutOfRange: it is an input, refused as every input is
    with pytest.raises(InvalidInput,
                       match="^y must be a real number, got a positive int of 1329 bits$"):
        kummer_m(-1, 0.5, 10**400)


@pytest.mark.parametrize("a, degree", [(-(MAX_LEVEL + 1.0), MAX_LEVEL + 1),
                                       (-1e300, int(1e300))])
def test_kummer_terminating_degree_is_a_checked_level(a, degree):
    # unchecked, the polynomial branch would run -a iterations before failing;
    # the message shows at most 80 characters of the degree
    shown = str(degree) if len(str(degree)) <= 80 else str(degree)[:77] + "..."
    with pytest.raises(InvalidInput,
                       match=rf"^polynomial degree must be in \[0, {MAX_LEVEL}\], "
                             rf"got {re.escape(shown)}$"):
        kummer_m(a, 0.5, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: kummer_m(math.nan, 0.5, 1.0), "^a must be a real number, got nan$"),
    (lambda: kummer_m(-math.inf, 0.5, 1.0), "^a must be a real number, got -inf$"),
    (lambda: kummer_m(0.5, math.nan, 1.0), "^c must be a real number, got nan$"),
    (lambda: kummer_m(0.5, math.inf, 1.0), "^c must be a real number, got inf$"),
    (lambda: kummer_m(math.inf, 0.5, 1.0), "^a must be a real number, got inf$"),
    (lambda: kummer_m(0.5, -math.inf, 1.0), "^c must be a real number, got -inf$"),
], ids=["a_nan", "a_minus_inf", "c_nan", "c_inf", "a_inf", "c_minus_inf"])
def test_kummer_rejects_non_finite_a_and_c(call, message):
    # round() on a non-finite a or c would raise a bare ValueError or OverflowError
    with pytest.raises(InvalidInput, match=message):
        call()


def test_numpy_scalar_arguments_are_computed_in_double():
    # a float32 xi, a or y used to keep the recurrence in single precision:
    # hermite(3, np.float32(0.3)) was np.float32(-3.384)
    xi = np.float32(0.3)
    assert type(hermite(3, xi)) is float and hermite(3, xi) == hermite(3, float(xi))
    got = kummer_m(np.float32(-3.0), np.float32(0.5), xi)
    assert type(got) is float and got == kummer_m(-3.0, 0.5, float(xi))
    assert hermite(np.int64(2), np.float64(1.5)) == 7.0


@pytest.mark.parametrize("call, message", [
    (lambda: hermite(3, "a"), "^xi must be a real number, got 'a'$"),
    (lambda: hermite(3, None), "^xi must be a real number, got None$"),
    (lambda: hermite(3, 1j), "^xi must be a real number, got 1j$"),
    (lambda: hermite(3, True), "^xi must be a real number, got True$"),
    (lambda: kummer_m("a", 0.5, 1.0), "^a must be a real number, got 'a'$"),
    (lambda: kummer_m(-1.0, None, 1.0), "^c must be a real number, got None$"),
    (lambda: kummer_m(-1.0, 0.5, np.array([1.0])), r"^y must be a real number, got array\(\[1\.\]\)$"),
    (lambda: kummer_m(False, 0.5, 1.0), "^a must be a real number, got False$"),
    (lambda: hermite_from_kummer_even(3, "a"), "^xi must be a real number, got 'a'$"),
    (lambda: hermite_from_kummer_even(3, True), "^xi must be a real number, got True$"),
    (lambda: hermite_from_kummer_odd(3, None), "^xi must be a real number, got None$"),
], ids=["xi_str", "xi_none", "xi_complex", "xi_bool", "a_str", "c_none", "y_array", "a_bool",
        "even_xi_str", "even_xi_bool", "odd_xi_none"])
def test_arguments_that_are_not_real_numbers_are_invalid_input(call, message):
    # kummer_m("a", 0.5, 1.0) raised a bare TypeError from math.isfinite, and
    # hermite_from_kummer_even(3, "a") one from xi * xi
    with pytest.raises(InvalidInput, match=message):
        call()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(n=st.integers(0, 600), xi=st.floats(-1e3, 1e3),
       a=st.one_of(st.integers(-60, 0).map(float), st.floats(-1e3, 1e3)),
       c=st.sampled_from([0.5, 1.5, 3.2]), y=st.floats(-1e3, 1e3))
def test_results_are_finite_or_a_kgo_error(n, xi, a, c, y):
    for compute in (lambda: hermite(n, xi), lambda: kummer_m(a, c, y)):
        try:
            value = compute()
        except KgoError:
            continue
        assert isinstance(value, float) and math.isfinite(value), (n, xi, a, c, y)


def test_even_bridge_examples():
    for xi in XI_SAMPLE:
        assert hermite_from_kummer_even(0, xi) == 1.0
    assert hermite_from_kummer_even(2, 1.0) == pytest.approx(-20.0, rel=1e-13)
    assert hermite_from_kummer_even(1, 0.0) == -2.0


def test_odd_bridge_examples():
    for xi in XI_SAMPLE:
        assert hermite_from_kummer_odd(0, xi) == 2.0 * xi
    assert hermite_from_kummer_odd(1, 1.0) == pytest.approx(-4.0, rel=1e-13)
    for n in range(8):
        assert hermite_from_kummer_odd(n, 0.0) == 0.0


def test_bridge_matches_recurrence():
    xs = [-3.0 + 0.25 * i for i in range(25)]
    for n in range(11):
        for xi in xs:
            even = hermite_from_kummer_even(n, xi)
            assert math.isclose(even, hermite(2 * n, xi),
                                rel_tol=1e-10, abs_tol=1e-12), ("even", n, xi)
            odd = hermite_from_kummer_odd(n, xi)
            assert math.isclose(odd, hermite(2 * n + 1, xi),
                                rel_tol=1e-10, abs_tol=1e-12), ("odd", n, xi)


def test_bridge_prefactor_overflow_signalled():
    with pytest.raises(OverflowError):
        hermite_from_kummer_even(150, 1.0)
