import math

import numpy as np
import pytest

from kgo.errors import (BudgetExceeded, GridTooSmall, NonPositiveParameter,
                        OutOfRange)
from kgo.oracle import (MACHINE_EPS, TridiagonalOperator, discretize_weber,
                        effective_potential, lowest_eigenvalues,
                        oracle_energies, profile_effective_potential,
                        sturm_count, veff_zero_crossing)
from kgo.params import OscillatorParams, from_b, natural_units
from kgo.spectrum import energy_combined, table_row
from kgo.wavefn import GridSpec


def _toy_operator():
    # eigenvalues 2 - sqrt(2), 2, 2 + sqrt(2)
    return TridiagonalOperator(diagonal=np.array([2.0, 2.0, 2.0]),
                               off_diagonal=np.array([-1.0, -1.0]))


def test_discretize_weber_hand_assembly():
    op = discretize_weber(1.0, GridSpec(2.0, 5))
    assert np.array_equal(op.diagonal, [3.0, 2.0, 3.0])
    assert np.array_equal(op.off_diagonal, [-1.0, -1.0])


def test_discretize_weber_uniform_off_diagonal():
    g = GridSpec(4.0, 41)
    op = discretize_weber(0.7, g)
    assert np.all(op.off_diagonal == -1.0 / g.spacing**2)
    assert op.dimension == 39


def test_discretize_weber_validation():
    with pytest.raises(NonPositiveParameter):
        discretize_weber(0.0, GridSpec(2.0, 5))
    with pytest.raises(OutOfRange, match="lam"):
        discretize_weber(1e200, GridSpec(2.0, 5))   # lam**2 overflows
    with pytest.raises(OutOfRange, match="2/h"):
        discretize_weber(1.0, GridSpec(1e-200, 5))  # h**2 underflows to 0


def test_sturm_count_analytic_3x3():
    op = _toy_operator()
    assert sturm_count(op, 0.0) == 0
    assert sturm_count(op, 2.0) == 1   # strictly below an exact eigenvalue
    assert sturm_count(op, 4.0) == 3
    assert sturm_count(op, 2.0 - math.sqrt(2.0) + 1e-9) == 1
    assert sturm_count(op, 2.0 + math.sqrt(2.0) + 1e-9) == 3


def test_sturm_count_monotone_and_saturating():
    op = discretize_weber(1.0, GridSpec(6.0, 61))
    shifts = np.linspace(0.0, op.gershgorin_upper * 1.1, 40)
    counts = [sturm_count(op, s) for s in shifts]
    assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    assert counts[0] == 0
    assert counts[-1] == op.dimension


def test_sturm_count_brackets_give_interval_counts():
    op = _toy_operator()
    eigs = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    for lo, hi in ((0.0, 1.0), (0.5, 2.5), (1.0, 4.0), (2.5, 3.0)):
        inside = sum(1 for e in eigs if lo <= e < hi)
        assert sturm_count(op, hi) - sturm_count(op, lo) == inside


def test_lowest_eigenvalues_toy_matrix():
    got = lowest_eigenvalues(_toy_operator(), 3, tol=1e-12)
    want = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    assert got == pytest.approx(want, abs=1e-12)


def test_lowest_eigenvalues_match_scipy_eigh_tridiagonal():
    linalg = pytest.importorskip("scipy.linalg")
    op = discretize_weber(0.7, GridSpec(6.0, 401))
    tol = 1e-10
    got = lowest_eigenvalues(op, 10, tol)
    want = linalg.eigh_tridiagonal(op.diagonal, op.off_diagonal, eigvals_only=True,
                                   select="i", select_range=(0, 9))
    # bisection stops with the eigenvalue inside a bracket narrower than tol;
    # both solvers also carry rounding of order eps * ||op||
    slack = 16.0 * MACHINE_EPS * op.norm_inf
    assert np.all(np.diff(got) > 0.0)
    assert np.all(np.abs(got - want) <= tol + slack)


def test_lowest_eigenvalues_validation():
    op = _toy_operator()
    with pytest.raises(NonPositiveParameter):
        lowest_eigenvalues(op, 0, 1e-10)
    with pytest.raises(NonPositiveParameter):
        lowest_eigenvalues(op, 4, 1e-10)
    with pytest.raises(NonPositiveParameter):
        lowest_eigenvalues(op, 1, 0.0)


def test_lowest_eigenvalues_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        lowest_eigenvalues(_toy_operator(), 1, tol=1e-300)


def test_weber_spectrum_odd_integers():
    op = discretize_weber(1.0, GridSpec(10.0, 2001))
    results = lowest_eigenvalues(op, 5, tol=1e-10)
    for n, k_squared in enumerate(results):
        exact = 2.0 * n + 1.0
        assert abs(k_squared - exact) / exact < 1e-3, n


def test_weber_eigenvalue_convergence_is_second_order():
    for n in (0, 1, 2):
        exact = 2.0 * n + 1.0
        coarse = lowest_eigenvalues(
            discretize_weber(1.0, GridSpec(10.0, 1001)), n + 1,
            tol=1e-12)[n]
        fine = lowest_eigenvalues(
            discretize_weber(1.0, GridSpec(10.0, 2001)), n + 1,
            tol=1e-12)[n]
        ratio = abs(coarse - exact) / abs(fine - exact)
        assert 3.5 < ratio < 4.5, n


def test_oracle_energies_natural_units():
    k_squared, energy = oracle_energies(natural_units(), 3, tol=1e-10)
    want = [math.sqrt(2.0), 2.0, math.sqrt(6.0)]
    for e, w in zip(energy, want):
        assert abs(e - w) / w < 2e-3
        assert e >= 1.0
    # Ebar^2 - 1 = b k^2 / lam, and b = lam = 1 here
    assert energy**2 - 1.0 == pytest.approx(k_squared, rel=1e-12)


def test_oracle_energies_adjudicates_ground_state():
    # the derived law gives sqrt(1.001) ~ 1.0005; the tabulated law 1.001
    _, (energy,) = oracle_energies(from_b(0.001), 1)
    assert abs(energy - 1.0005) <= 5e-6
    assert abs(energy - 1.001) > 4e-4


def test_oracle_energies_validation():
    with pytest.raises(NonPositiveParameter):
        oracle_energies(natural_units(), 0)


def test_oracle_confirms_combined_law_across_b():
    for b in (1e-4, 1e-3, 0.1):
        _, energy = oracle_energies(from_b(b), 9, 2001, tol=1e-12)
        for n, e in enumerate(energy):
            want = energy_combined(n, b)
            assert abs(e - want) / want < 2e-3, (b, n)
    # ... and visibly rejects the (n+1) law at b = 0.1
    _, (ground,) = oracle_energies(from_b(0.1), 1, 2001, tol=1e-12)
    alt = table_row(0, 0.1).e_rel
    assert abs(ground - alt) / alt > 0.02


def test_effective_potential_values():
    p = natural_units()
    assert effective_potential(p, 1.0, 2.0) == 0.0
    assert effective_potential(p, 1.0, 3.0) == -11.25
    assert effective_potential(p, 1.0, 0.0) == 0.0
    assert effective_potential(p, 7.3, 0.0) == 0.0


def test_effective_potential_unit_bookkeeping():
    p = OscillatorParams(mass=2.0, omega=3.0, hbar=0.5, c=2.0)
    e, x = 1.7, 0.9
    want = (e * p.mass * p.omega**2 * x**2
            - 0.25 * p.mass**2 * p.omega**4 * x**4) / (p.c**2 * p.hbar**2)
    assert effective_potential(p, e, x) == pytest.approx(want, rel=1e-15)


def test_veff_zero_crossing():
    assert veff_zero_crossing(natural_units(), 1.0) == 2.0
    assert veff_zero_crossing(from_b(0.5), 1.0) == 4.0
    assert veff_zero_crossing(natural_units(), -1.0) == 0.0


def test_profile_detects_unboundedness():
    profile = profile_effective_potential(natural_units(), 1.0,
                                          GridSpec(5.0, 201))
    assert profile.unbounded_below_detected
    x, v = profile.samples[:, 0], profile.samples[:, 1]
    # even function: mirrored samples agree exactly
    assert np.all(v[::-1] == v)
    idx = int(np.argmin(np.abs(x - 3.0)))
    assert x[idx] == pytest.approx(3.0, abs=1e-12)
    assert v[idx] == pytest.approx(-11.25, abs=1e-9)


def test_profile_requires_grid_beyond_zero():
    with pytest.raises(GridTooSmall):
        profile_effective_potential(natural_units(), 1.0,
                                    GridSpec(1.0, 51))
    with pytest.raises(GridTooSmall):
        profile_effective_potential(natural_units(), 1.0,
                                    GridSpec(2.0, 51))
