import math
import mmap
import os
import re
import warnings

import mpmath
import numpy as np
import pytest

from kgo import fork, wavefn
from kgo.errors import MAX_POINTS, InvalidInput, OutOfRange
from kgo.params import GridSpec, default_extent
from kgo.specfun import hermite, kummer_m
from kgo.wavefn import _underflow_start, inner_product, psi, sample
from test_oracle import (_dying_marshal, assert_a_killed_kgo_leaves_no_process, needs_children,
                         pin_the_child_to_all_works_but_the_first)

MAX_FACTORIAL_LEVEL = 170  # n! is finite up to 170!


def normalization_constant(n, lam):
    """N_n = sqrt( sqrt(lam/pi) / (2^n n!) ), evaluated in log space.

    The constant of the direct product N_n H_n exp(-xi^2/2) that the
    reference checks of psi build.
    """
    assert 0 <= n <= MAX_FACTORIAL_LEVEL
    return math.exp(0.25 * math.log(lam / math.pi)
                    - 0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)))


POINTS_RULE = rf"^points must be in \[3, {MAX_POINTS}\], got "


def test_gridspec_validation():
    with pytest.raises(InvalidInput, match="^points must be odd, got 4$"):
        GridSpec(1.0, 4)              # even
    with pytest.raises(InvalidInput, match=POINTS_RULE + "1$"):
        GridSpec(1.0, 1)              # too few
    for points in (11.0, np.array([11]), np.array(11), np.True_):
        with pytest.raises(InvalidInput,
                           match=f"^points must be an integer, got {re.escape(repr(points))}$"):
            GridSpec(1.0, points)
    grid = GridSpec(1.0, np.int64(11))  # a numpy count is taken as a plain int
    assert grid.points == 11 and type(grid.points) is int
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
    x = np.asarray(g.nodes())
    assert len(x) == 801
    assert x[400] == 0.0
    # bitwise antisymmetry of the node set
    assert np.all(x[::-1] == -x)
    assert x[0] == pytest.approx(-8.0, abs=1e-14)
    assert x[-1] == pytest.approx(8.0, abs=1e-14)


@pytest.mark.parametrize("extent, points", [(8.0, 801), (1.0, 3), (0.3, 1001), (37.5, 69001),
                                            (1e-3, MAX_POINTS), (1e300, MAX_POINTS)])
def test_gridspec_nodes_are_the_signed_offsets_times_the_spacing_bit_for_bit(extent, points):
    grid = GridSpec(extent, points)
    offsets = np.arange(points) - (points - 1) // 2
    assert grid.nodes() == (offsets * grid.spacing).tolist()


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
    """The normalised recurrence without any rescaling, at each float of x."""
    values = []
    for point in x:
        xi = math.sqrt(lam) * point
        phi, phi_prev = math.pi ** -0.25 * math.exp(-0.5 * xi * xi), 0.0
        for k in range(n):
            phi_prev, phi = phi, (math.sqrt(2.0 / (k + 1.0)) * xi * phi
                                  - math.sqrt(k / (k + 1.0)) * phi_prev)
        values.append(lam ** 0.25 * phi)
    return values


@pytest.mark.parametrize("n", [0, 30, 120, 745])
def test_psi_is_the_plain_recurrence_where_the_gaussian_is_normal(n):
    # |xi| <= 37 keeps exp(-xi^2/2) a normal double, so nothing is rescaled
    # and every value is bit for bit that of the plain recurrence
    for lam in (0.3, 1.0, 7.0):
        x = np.linspace(-37.0, 37.0, 2001) / math.sqrt(lam)
        assert np.array_equal(psi(n, x, lam), _psi_plain_recurrence(n, x, lam))


@pytest.mark.parametrize("n", [0, 1, 4, 31, 120, 3000])
def test_sample_mirrors_psi_bit_for_bit(n):
    # sample runs psi on the nodes x >= 0 only and mirrors them; float == is
    # bitwise equality apart from the sign of zero
    lam = 1.3
    grid = GridSpec(default_extent(n, lam), 801)
    values = sample(n, grid, lam)
    assert all(v == (-1) ** n * w for v, w in zip(values, reversed(values)))
    assert values == psi(n, grid.nodes(), lam)


def _psi_never_skipped(n, x, lam):
    """psi_n at each float of x by the normalised recurrence on phi_k 2^-e, with
    e carried from phi_0 on, phi_k rescaled after every step and no point
    skipped."""
    steps = [(math.sqrt(2.0 / (k + 1.0)), math.sqrt(k / (k + 1.0))) for k in range(n)]
    values = []
    for point in x:
        xi = math.sqrt(lam) * point
        log2_gauss = -0.5 * xi * xi / math.log(2.0)
        exponent = math.floor(log2_gauss)
        phi, phi_prev = math.pi ** -0.25 * 2.0 ** (log2_gauss - exponent), 0.0
        for a, b in steps:
            phi_prev, phi = phi, a * xi * phi - b * phi_prev
            phi, shift = math.frexp(phi)
            phi_prev = math.ldexp(phi_prev, -shift)
            exponent += shift
        values.append(math.ldexp(lam ** 0.25 * phi, exponent))
    return values


@pytest.mark.parametrize("n", [745, 3000, 20000])
def test_psi_skips_only_cells_that_underflow(n):
    # psi writes 0 without running the recurrence from the bound's underflow
    # point on, which must lie past the largest zero of H_n, below sqrt(2n + 1);
    # on the default grid every skipped cell is 0 in the reference too, and the
    # cells just inside agree with it
    grid = GridSpec(default_extent(n, 1.0), 2001)
    skip = _underflow_start(n, 1.0)
    assert skip > math.sqrt(2.0 * n + 1.0)
    right = grid.nodes()[grid.points // 2:]
    first = next(i for i, x in enumerate(right) if x >= skip)
    checked = right[first - 5:]
    assert len(checked) > 100
    got, want = psi(n, checked, 1.0), _psi_never_skipped(n, checked, 1.0)
    assert got[5:] == [0.0] * len(got[5:]) == want[5:]
    assert all(math.isclose(g, w, rel_tol=1e-9) for g, w in zip(got[:5], want[:5]))


def test_psi_accepts_scalar_or_array():
    # a sequence of reals, a list or an array, gives a list of floats
    x = [-2.0, -0.3, 0.0, 1.1]
    values = psi(7, x, 1.7)
    assert type(values) is list and len(values) == len(x)
    assert psi(7, np.array(x), 1.7) == psi(7, tuple(x), 1.7) == values
    for xv, v in zip(x, values):
        got = psi(7, xv, 1.7)
        assert isinstance(got, float) and got == v


@pytest.mark.parametrize("x, shown", [
    ("a", "'a'"), (None, "None"), (1j, "1j"), (math.nan, "nan at index 0"),
    ([0.0, math.nan], "nan at index 1"),
    (np.array([math.nan]), f"{np.float64(math.nan)!r} at index 0"),
    ([0.0, None], "None at index 1"), (10**400, "a positive int of 1329 bits at index 0"),
    ("1.5", "'1.5'"), (True, "True"), ([0.0, True], "True at index 1"),
    (np.array([[0.0]]), "array([0.]) at index 0"), ("", "''"), (b"\x00", "b'\\x00'"),
    (bytearray(2), "bytearray(b'\\x00\\x00')"),
], ids=["str", "none", "complex", "nan", "nan_in_list", "nan_array", "none_in_list",
        "int_past_a_double", "numeric_str", "bool", "bool_in_list", "2d_array", "empty_str",
        "bytes", "bytearray"])
def test_psi_refuses_an_x_that_is_not_real_or_is_nan(x, shown):
    # "a" raised a bare ValueError, and a NaN x returned nan; "1.5" and True
    # were taken as the numbers 1.5 and 1, "" as no x and b"\x00" as x = 0.
    # One real number is checked as the sequence [x]; the message shows the
    # first refused entry and its index, or the x that is no sequence
    with pytest.raises(InvalidInput, match=f"^x must be real numbers, got {re.escape(shown)}$"):
        psi(3, x, 1.0)


def test_psi_far_tails_are_zero_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = psi(4, [-1e300, -5e299, 0.0, 5e299, 1e300], 1.0)
        assert psi(3, 1e200, 1e308) == 0.0    # sqrt(lam) x overflows to inf
        assert psi(3, math.inf, 1.0) == psi(3, -math.inf, 1.0) == 0.0
    assert [values[i] for i in (0, 1, 3, 4)] == [0.0, 0.0, 0.0, 0.0]
    assert values[2] == psi(4, 0.0, 1.0)


def kummer_state(n, x, lam):
    """psi_n in the paper's Kummer form, with M(-k, c, xi^2) summed by kummer_m.

    N_n (-1)^k (2k)!/k! M(-k, 1/2, xi^2) e^(-xi^2/2) for n = 2k and
    N_n (-1)^k 2 (2k+1)!/k! xi M(-k, 3/2, xi^2) e^(-xi^2/2) for n = 2k + 1.
    """
    k, odd = divmod(n, 2)
    xi = math.sqrt(lam) * x
    prefactor = (2.0 if odd else 1.0) * math.prod(map(float, range(k + 1, n + 1)))
    m = kummer_m(-float(k), 1.5 if odd else 0.5, xi * xi)
    return (normalization_constant(n, lam) * (-1.0) ** k * prefactor * xi**odd * m
            * math.exp(-0.5 * xi * xi))


def test_psi_ground_state_is_the_normalised_gaussian():
    # M(0, 1/2, xi^2) = 1: psi_0 = (lam/pi)^(1/4) exp(-lam x^2 / 2)
    for lam in (0.5, 1.0, 3.0):
        for x in (-1.2, 0.0, 0.4, 2.0):
            assert psi(0, x, lam) == pytest.approx(
                (lam / math.pi) ** 0.25 * math.exp(-0.5 * lam * x * x), rel=1e-14)


def test_psi_at_origin_is_the_even_kummer_coefficient():
    # M(-k, c, 0) = 1, so psi_2k(0) is N_2k (-1)^k (2k)!/k! and odd states vanish
    for lam in (0.5, 2.0):
        for k in range(8):
            want = (normalization_constant(2 * k, lam) * (-1.0) ** k
                    * math.prod(map(float, range(k + 1, 2 * k + 1))))
            assert psi(2 * k, 0.0, lam) == pytest.approx(want, rel=1e-12), (k, lam)
            assert psi(2 * k + 1, 0.0, lam) == 0.0


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
def test_psi_states_are_the_terminating_kummer_polynomials(parity):
    # the quantised a = -k makes M(a, c, xi^2) a polynomial: psi's Hermite-
    # function recurrence and the paper's Kummer form give the same state
    for lam in (0.7, 1.0):
        for k in range(6):
            n = 2 * k + parity
            for x in (-2.6, -0.9, 0.37, 1.45):
                assert math.isclose(psi(n, x, lam), kummer_state(n, x, lam),
                                    rel_tol=1e-9, abs_tol=1e-13), (n, lam, x)


def _sign_changes(values):
    signs = [v for v in values if v != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a < 0) != (b < 0))


def test_sample_ground_state_shape():
    g = GridSpec(6.0, 201)
    s = sample(0, g, 1.0)
    assert min(s) > 0.0
    assert s.index(max(s)) == 100


def test_sample_parity_and_node_counts():
    g = GridSpec(6.0, 401)
    s1 = sample(1, g, 1.0)
    assert s1[::-1] == [-v for v in s1]
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


def test_inner_product_refuses_nan_samples_and_names_an_overflowing_sum():
    g = GridSpec(8.0, 801)
    s = sample(1, g, 1.0)
    bad = s.copy()
    bad[400] = math.nan
    for f, h, name in ((bad, s, "f"), (s, bad, "g")):
        with pytest.raises(InvalidInput,
                           match=f"^{name} must be real numbers, got nan at index 400$"):
            inner_product(g, f, h)
    bad[400] = math.inf
    with pytest.raises(OutOfRange, match="^inner product exceeds the floating-point range$"):
        inner_product(g, bad, bad)
    with pytest.raises(OutOfRange, match="^inner product exceeds the floating-point range$"):
        inner_product(g, np.full(801, 1e200), np.full(801, 1e200))
    # finite terms whose sum overflows, and opposite infinities
    for f, h in (([1e154, 1e153, 1e154], [1e154, 1e153, 1e154]),
                 ([math.inf, 0.0, -math.inf], [1.0] * 3)):
        with pytest.raises(OutOfRange, match="^inner product exceeds the floating-point range$"):
            inner_product(GridSpec(1.0, 3), f, h)


def test_inner_product_is_the_exact_sum_of_the_simpson_terms():
    # terms 1e16, 1, -1e16, 1, 0: summed in order they give 1, exactly 2
    grid = GridSpec(1.5, 5)  # h/3 = 0.25
    f = [1e16, 0.25, -0.5e16, 0.25, 0.0]
    assert inner_product(grid, f, [1.0] * 5) == 0.5


def test_inner_product_takes_lists_and_refuses_non_numbers():
    # a list of floats raised a bare TypeError
    grid = GridSpec(1.0, 3)
    assert inner_product(grid, [1.0] * 3, [1.0] * 3) == 2.0
    assert inner_product(grid, grid.nodes(), [1, 2, 3]) == inner_product(
        grid, np.array(grid.nodes()), np.array([1.0, 2.0, 3.0]))
    # "1", True and None were taken as 1.0, 1.0 and NaN
    for f, shown in ((["a"] * 3, "'a' at index 0"), ([1.0, [1.0], 1.0], "[1.0] at index 1"),
                     ([10**400] * 3, "a positive int of 1329 bits at index 0"),
                     (["1"] * 3, "'1' at index 0"), ([True] * 3, "True at index 0"),
                     ([1.0, None, 1.0], "None at index 1"), ("abc", "'abc'"), (None, "None"),
                     (b"abc", "b'abc'")):
        rule = f"must be real numbers, got {re.escape(shown)}$"
        with pytest.raises(InvalidInput, match="^f " + rule):
            inner_product(grid, f, [1.0] * 3)
        with pytest.raises(InvalidInput, match="^g " + rule):
            inner_product(grid, [1.0] * 3, f)


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
    v = np.asarray(sample(n, grid, lam))
    x = np.asarray(grid.nodes())
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


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns in this process, with _WORK_STEPS at 1, so
    every sample forks, however few its nodes."""
    pids = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(wavefn, "_WORK_STEPS", 1)
    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def _bits(values):
    return [v.hex() for v in values]  # tells -0.0 from 0.0, as == does not


def _one_process(n, grid, lam):
    """sample in this process alone, in one run of the recurrence over its nodes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(os, "fork")
        patch.setattr(wavefn, "_WORK_STEPS", math.inf)
        return sample(n, grid, lam)


def _past_the_start(n, lam, factor, points):
    """A grid that reaches factor times past psi's underflow start."""
    return GridSpec(factor * _underflow_start(n, lam) / math.sqrt(lam), points)


@pytest.mark.parametrize("n", [0, 1, 3, 10, 20, 65, 115])
@pytest.mark.parametrize("grid", ["default", "tails", "past"])
def test_two_processes_give_the_bits_of_one(forks, n, grid):
    # "tails" holds nodes where exp(-xi^2/2) is not a normal double, so the
    # exponent is carried, and nodes past _underflow_start, where psi is 0;
    # every node of "past" but x = 0 lies past that start
    lam = 0.7
    grid = {"default": GridSpec(default_extent(n, lam), 2001),
            "tails": _past_the_start(n, lam, 1.3, 2001),
            "past": _past_the_start(n, lam, 1.01, 3)}[grid]
    alone = _one_process(n, grid, lam)
    assert not forks
    assert _bits(sample(n, grid, lam)) == _bits(alone)
    assert len(forks) == 1
    _assert_no_child()


def test_the_tails_grid_holds_carried_and_skipped_nodes():
    lam = 0.7
    for n in (0, 115):
        xis = [math.sqrt(lam) * x for x in _past_the_start(n, lam, 1.3, 2001).nodes()]
        assert any(math.exp(-0.5 * xi * xi) < 2.0**-1022 and xi < _underflow_start(n, lam)
                   for xi in xis)
        assert sum(xi > _underflow_start(n, lam) for xi in xis) > 100


@pytest.mark.parametrize("frames, cut", [(0, False), (1, False), (1, True)],
                         ids=["report", "one-frame", "cut-frame"])
def test_a_child_killed_after_its_report_leaves_the_bits_unchanged(forks, monkeypatch,
                                                                   frames, cut):
    # the child's part is every work but the first, each sent as one frame:
    # those that arrive are kept, and this process evaluates the rest from the
    # first that does not
    monkeypatch.setattr(wavefn, "_WORK_STEPS", 8000)
    n, lam = 12, 1.0
    grid = GridSpec(default_extent(n, lam), 4001)
    alone = _one_process(n, grid, lam)
    loaded = []
    monkeypatch.setattr(fork, "marshal", _dying_marshal(os.getpid(), frames, cut, loaded))
    pin_the_child_to_all_works_but_the_first(monkeypatch)
    assert _bits(sample(n, grid, lam)) == _bits(alone)
    assert len(forks) == 1 and len(loaded) == 1 + frames and loaded[0] == 1
    _assert_no_child()


def test_two_processes_of_4_works_find_the_underflow_start_once(forks, monkeypatch):
    # sample computes the underflow start, and the step coefficients, once
    # before the fork, and each work of either process reuses them
    monkeypatch.setattr(wavefn, "_WORK_STEPS", 8000)
    n, lam = 12, 1.0
    grid = GridSpec(default_extent(n, lam), 4001)
    alone = _one_process(n, grid, lam)
    calls, works = mmap.mmap(-1, 1), []  # calls: shared with the child
    underflow_start, apart = wavefn._underflow_start, fork.apart

    def counted(*args):
        calls[0] += 1
        return underflow_start(*args)

    monkeypatch.setattr(wavefn, "_underflow_start", counted)
    monkeypatch.setattr(fork, "apart", lambda work, count: works.append(count) or
                        apart(work, count))
    assert _bits(sample(n, grid, lam)) == _bits(alone)
    assert (len(forks), works, calls[0]) == (1, [4], 1)
    _assert_no_child()


def _works(monkeypatch):
    """The counts of works that sample hands fork.apart, one per call."""
    works, apart = [], fork.apart
    monkeypatch.setattr(fork, "apart", lambda work, count: works.append(count) or
                        apart(work, count))
    return works


def test_two_processes_share_the_nodes_in_works_of_work_steps(monkeypatch):
    # 34501 nodes x (15 + 4) = 655,519 steps: 6 works, which claims can
    # share out between two processes of unequal speed
    grid = GridSpec(default_extent(15, 1.0), 69001)
    alone = _one_process(15, grid, 1.0)
    works = _works(monkeypatch)
    assert _bits(sample(15, grid, 1.0)) == _bits(alone)
    assert works == [6]
    _assert_no_child()


@pytest.mark.parametrize("points, works", [(99999, [2]), (99997, [])])
def test_a_sample_forks_from_two_works_of_steps(monkeypatch, points, works):
    # at n = 0 every node x >= 0 of the default grid holds 4 steps: 50000
    # nodes are the 200,000 steps of two works, and 49999 nodes, 199,996
    # steps, stay in one process
    counted = _works(monkeypatch)
    grid = GridSpec(default_extent(0, 1.0), points)
    assert _bits(sample(0, grid, 1.0)) == _bits(_one_process(0, grid, 1.0))
    assert counted == works
    _assert_no_child()


def test_a_child_is_forked_where_its_steps_repay_it(monkeypatch):
    # sample counts the nodes below the underflow start times n plus a
    # point's own cost: the README state stays in one process, 69001 nodes
    # of n = 15 fork, and so do 69001 nodes of n = 2, whose cost is mostly
    # per point
    assert fork.pays()  # this process runs one thread
    real_fork = os.fork
    pids = []
    monkeypatch.setattr(os, "fork", lambda: pids.append(None) or real_fork())
    sample(4, GridSpec(6.0, 241), 1.0)
    assert not pids
    for n in (15, 2):
        grid = GridSpec(default_extent(n, 1.0), 69001)
        assert _bits(sample(n, grid, 1.0)) == _bits(_one_process(n, grid, 1.0))
    assert len(pids) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    sample(15, GridSpec(default_extent(15, 1.0), 69001), 1.0)
    assert len(pids) == 2  # one CPU: nothing to run the child on
    _assert_no_child()


@needs_children
def test_a_killed_kgo_wavefn_leaves_its_pipes_closed_and_no_child():
    # about 4 s in two processes, in works of _WORK_STEPS steps: the child
    # would run on for seconds after the kill
    assert_a_killed_kgo_leaves_no_process("wavefn", "--n", "4000", "--lambda", "1",
                                          "--points", "69001")
