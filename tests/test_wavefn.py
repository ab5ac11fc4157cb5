import math
import warnings

import mpmath
import numpy as np
import pytest

from kgo.errors import InvalidInput, OutOfRange
from kgo.specfun import hermite
from kgo.wavefn import (MAX_POINTS, GridSpec, default_extent, inner_product,
                        psi, psi_general, sample)

MAX_FACTORIAL_LEVEL = 170  # n! is finite up to 170!


def normalization_constant(n, lam):
    """N_n = sqrt( sqrt(lam/pi) / (2^n n!) ), evaluated in log space.

    The constant of the direct product N_n H_n exp(-xi^2/2) that the
    reference checks of psi and psi_general build.
    """
    assert 0 <= n <= MAX_FACTORIAL_LEVEL
    return math.exp(0.25 * math.log(lam / math.pi)
                    - 0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)))


POINTS_RULE = rf"^points must be an odd integer in \[3, {MAX_POINTS}\], got "


def test_gridspec_validation():
    with pytest.raises(InvalidInput, match=POINTS_RULE + "4$"):
        GridSpec(1.0, 4)              # even
    with pytest.raises(InvalidInput, match=POINTS_RULE + "1$"):
        GridSpec(1.0, 1)              # too few
    for extent in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidInput,
                           match=f"^grid extent must be positive and finite, got {extent!r}$"):
            GridSpec(extent, 5)
    with pytest.raises(OutOfRange):
        GridSpec(1e308, 5)            # spacing overflows


def test_gridspec_points_capped():
    assert GridSpec(1.0, MAX_POINTS).points == MAX_POINTS
    for points in (MAX_POINTS + 2, 200000001):
        with pytest.raises(InvalidInput, match=f"{POINTS_RULE}{points}$"):
            GridSpec(1.0, points)


def test_gridspec_nodes_symmetric_and_exact():
    g = GridSpec(8.0, 801)
    assert g.spacing == pytest.approx(0.02, rel=1e-15)
    x = g.nodes()
    assert len(x) == 801
    assert x[400] == 0.0
    # bitwise antisymmetry of the node set
    assert np.all(x[::-1] == -x)
    assert x[0] == pytest.approx(-8.0, abs=1e-14)
    assert x[-1] == pytest.approx(8.0, abs=1e-14)


def test_normalization_constant_values():
    assert normalization_constant(0, 1.0) == pytest.approx(math.pi ** -0.25,
                                                           rel=1e-12)
    assert normalization_constant(1, 1.0) == pytest.approx(
        math.sqrt(math.pi ** -0.5 / 2.0), rel=1e-12)
    for lam in (0.01, 0.5, 2.0, 7.3):
        assert normalization_constant(0, lam) == pytest.approx(
            (lam / math.pi) ** 0.25, rel=1e-12)


def test_psi_point_values():
    assert psi(1, 0.0, 1.0) == 0.0
    assert psi(1, 0.0, 4.2) == 0.0
    assert psi(0, 0.0, 1.0) == pytest.approx(math.pi ** -0.25, rel=1e-12)
    expected = (math.pi ** -0.25 / math.sqrt(8.0)) * math.exp(-0.5) * 2.0
    assert psi(2, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
    assert abs(psi(2, 1.0, 1.0) - 0.3229) < 1e-3


def test_psi_parity():
    for n in range(21):
        sign = (-1.0) ** n
        for x in (0.2, 0.9, 1.7, 3.1):
            lhs = psi(n, -x, 1.3)
            rhs = sign * psi(n, x, 1.3)
            assert math.isclose(lhs, rhs, rel_tol=1e-12), (n, x)


def test_psi_large_n_recurrence_matches_direct_product():
    # psi runs the normalised recurrence at every n; check it against the
    # explicit N_n H_n exp product while that is still finite
    for n, lam, x in ((31, 1.0, 1.3), (35, 2.0, 0.7), (40, 0.5, -2.1)):
        direct = (normalization_constant(n, lam)
                  * math.exp(-0.5 * lam * x * x)
                  * hermite(n, math.sqrt(lam) * x))
        assert psi(n, x, lam) == pytest.approx(direct, rel=1e-9), (n, lam, x)


def _psi_mpmath(n, x, lam):
    """psi_n(x) from its definition at 50 significant digits."""
    with mpmath.workdps(50):
        xi = mpmath.sqrt(lam) * mpmath.mpf(x)
        norm = (mpmath.mpf(lam) / mpmath.pi) ** 0.25 / mpmath.sqrt(
            mpmath.mpf(2) ** n * mpmath.factorial(n))
        return float(norm * mpmath.exp(-xi * xi / 2) * mpmath.hermite(n, xi))


@pytest.mark.parametrize("n", [0, 1, 5, 30, 31, 60, 120, 200, 700, 800, 1500])
def test_psi_matches_mpmath_reference(n):
    # out to the classical turning point sqrt(2n + 1) and six units of tail
    # beyond it, in xi = sqrt(lam) x; error relative to max |psi_n|.  From
    # n ~ 700 the tail, and from n ~ 745 the turning point, lie where
    # exp(-xi^2/2) underflows
    for lam in (1.0, 2.5):
        reach = math.sqrt(2.0 * n + 1.0) + 6.0
        x = np.linspace(-reach, reach, 61) / math.sqrt(lam)
        want = np.array([_psi_mpmath(n, v, lam) for v in x.tolist()])
        error = np.abs(psi(n, x, lam) - want).max() / np.abs(want).max()
        assert error < 1e-15 * (n + 5), (n, lam, error)


def _psi_plain_recurrence(n, x, lam):
    """The normalised recurrence without any rescaling."""
    xi = math.sqrt(lam) * x
    phi = math.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    phi_prev = np.zeros_like(phi)
    for k in range(n):
        phi_prev, phi = phi, (math.sqrt(2.0 / (k + 1.0)) * xi * phi
                              - math.sqrt(k / (k + 1.0)) * phi_prev)
    return lam ** 0.25 * phi


@pytest.mark.parametrize("n", [0, 30, 120, 745])
def test_psi_is_the_plain_recurrence_where_the_gaussian_is_normal(n):
    # |xi| <= 37 keeps exp(-xi^2/2) a normal double, so nothing is rescaled
    # and every value is bit for bit that of the plain recurrence
    for lam in (0.3, 1.0, 7.0):
        x = np.linspace(-37.0, 37.0, 2001) / math.sqrt(lam)
        assert np.array_equal(psi(n, x, lam), _psi_plain_recurrence(n, x, lam))


def test_psi_accepts_scalar_or_array():
    x = np.array([-2.0, -0.3, 0.0, 1.1])
    values = psi(7, x, 1.7)
    assert isinstance(values, np.ndarray) and values.shape == x.shape
    for xv, v in zip(x.tolist(), values.tolist()):
        got = psi(7, xv, 1.7)
        assert isinstance(got, float) and got == v


def test_psi_far_tails_are_zero_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = psi(4, np.array([-1e300, -5e299, 0.0, 5e299, 1e300]), 1.0)
        assert psi(3, 1e200, 1e308) == 0.0    # sqrt(lam) x overflows to inf
    assert values[[0, 1, 3, 4]].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert values[2] == psi(4, 0.0, 1.0)


def test_psi_general_reduces_to_gaussian():
    for lam in (0.5, 1.0, 3.0):
        for x in (-1.2, 0.0, 0.4, 2.0):
            assert psi_general(x, 0.0, 1.0, 0.0, lam) == pytest.approx(
                math.exp(-0.5 * lam * x * x), rel=1e-14)


def test_psi_general_at_origin_is_even_coefficient():
    for a in (-2.0, -0.3, 1.1):
        assert psi_general(0.0, a, 3.5, 2.2, 1.0) == 3.5


def test_psi_general_two_term_case():
    want = math.exp(-0.5) * (-1.0)
    assert psi_general(1.0, -1.0, 1.0, 0.0, 1.0) == pytest.approx(want, rel=1e-13)


def test_psi_general_out_of_range_signalled():
    # M(-400, 1/2, 900) sums past the double range
    with pytest.raises(OutOfRange):
        psi_general(30.0, -400.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("coeffs", [(1.0, 0.0), (0.0, 1.0)])
def test_psi_general_rejects_a_huge_polynomial_degree(coeffs):
    with pytest.raises(InvalidInput, match="^polynomial degree"):
        psi_general(1.0, -1e300, *coeffs, 1.0)


def test_psi_general_reproduces_even_states():
    # A carries the even Hermite prefactor (-1)^k (2k)!/k! times N_{2k}
    lam = 1.0
    for k in range(6):
        prefactor = 1.0
        for j in range(k + 1, 2 * k + 1):
            prefactor *= j
        coeff = normalization_constant(2 * k, lam) * (-1.0) ** k * prefactor
        for x in (-2.6, -0.9, 0.37, 1.45):
            want = psi(2 * k, x, lam)
            got = psi_general(x, -float(k), coeff, 0.0, lam)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-13), (k, x)


def test_psi_general_reproduces_odd_states():
    # B carries the odd prefactor (-1)^k 2 (2k+1)!/k! times N_{2k+1}; the
    # explicit x factor lives inside psi_general's odd branch
    lam = 1.0
    for k in range(6):
        prefactor = 2.0
        for j in range(k + 1, 2 * k + 2):
            prefactor *= j
        coeff = normalization_constant(2 * k + 1, lam) * (-1.0) ** k * prefactor
        for x in (-2.6, -0.9, 0.37, 1.45):
            want = psi(2 * k + 1, x, lam)
            got = psi_general(x, -float(k) - 0.5, 0.0, coeff, lam)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-13), (k, x)


def _sign_changes(values):
    signs = [v for v in values if v != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a < 0) != (b < 0))


def test_sample_ground_state_shape():
    g = GridSpec(6.0, 201)
    s = sample(0, g, 1.0)
    assert np.all(s > 0.0)
    assert s.argmax() == 100


def test_sample_parity_and_node_counts():
    g = GridSpec(6.0, 401)
    s1 = sample(1, g, 1.0)
    assert np.all(s1[::-1] == -s1)
    assert _sign_changes(s1) == 1
    s4 = sample(4, g, 1.0)
    assert _sign_changes(s4) == 4


def test_sample_node_count_matches_level():
    lam = 1.0
    for n in range(21):
        g = GridSpec(default_extent(n, lam), 1201)
        assert _sign_changes(sample(n, g, lam)) == n, n


def test_inner_product_norm_and_orthogonality():
    g = GridSpec(8.0, 801)
    s0 = sample(0, g, 1.0)
    s1 = sample(1, g, 1.0)
    s3 = sample(3, g, 1.0)
    s5 = sample(5, g, 1.0)
    assert inner_product(g, s0, s0) == pytest.approx(1.0, abs=1e-8)
    assert inner_product(g, s0, s1) == pytest.approx(0.0, abs=1e-12)
    assert inner_product(g, s3, s5) == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("n", [800, 1500])
def test_sample_norm_where_the_gaussian_underflows(n):
    # on the default grid most of psi_n lies where exp(-xi^2/2) underflows
    grid = GridSpec(default_extent(n, 1.0), 40001)
    s = sample(n, grid, 1.0)
    assert inner_product(grid, s, s) == pytest.approx(1.0, abs=1e-8)


def test_inner_product_grid_mismatch():
    g = GridSpec(8.0, 801)
    a = sample(0, g, 1.0)
    b = sample(0, GridSpec(8.0, 803), 1.0)
    with pytest.raises(InvalidInput, match="^sampled functions must hold one value per node of "):
        inner_product(g, a, b)
    with pytest.raises(InvalidInput, match="^sampled functions must hold one value per node of "):
        inner_product(g, b, a)


def test_gram_matrix_is_identity():
    lam = 1.0
    extent = 2.0 * math.sqrt(2.0 * 10 + 1.0) / math.sqrt(lam)
    g = GridSpec(extent, 1601)
    states = [sample(n, g, lam) for n in range(11)]
    for i in range(11):
        for j in range(11):
            want = 1.0 if i == j else 0.0
            assert abs(inner_product(g, states[i], states[j]) - want) < 1e-7, (i, j)


def _max_weber_residual(n, lam, points):
    grid = GridSpec(default_extent(n, lam), points)
    v = sample(n, grid, lam)
    x = grid.nodes()
    h = grid.spacing
    second = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
    ksq = (2.0 * n + 1.0) * lam
    residual = second + (ksq - lam**2 * x[1:-1] ** 2) * v[1:-1]
    return float(np.abs(residual).max())


def test_sampled_states_satisfy_weber_equation():
    # the discrete residual must shrink like h^2
    for n in (0, 3, 10):
        coarse = _max_weber_residual(n, 1.0, 801)
        fine = _max_weber_residual(n, 1.0, 1601)
        assert coarse < 0.05
        assert 3.0 < coarse / fine < 5.0, n
