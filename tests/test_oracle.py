import math

import numpy as np
import pytest

from kgo.errors import (BudgetExceeded, GridTooSmall, InvalidGrid,
                        NonPositiveParameter)
from kgo.oracle import (TridiagonalOperator, default_box, discretize_kg,
                        discretize_weber, effective_potential,
                        lowest_eigenvalues, oracle_energies,
                        profile_effective_potential, sturm_count,
                        veff_zero_crossing)
from kgo.params import OscillatorParams, from_b, natural_units
from kgo.spectrum import energy_combined, table_row
from kgo.wavefn import GridSpec


def _toy_operator():
    # eigenvalues 2 - sqrt(2), 2, 2 + sqrt(2)
    return TridiagonalOperator(diagonal=np.array([2.0, 2.0, 2.0]),
                               off_diagonal=np.array([-1.0, -1.0]),
                               spacing=1.0, origin=0.0)


def test_discretize_weber_hand_assembly():
    op = discretize_weber(1.0, GridSpec.symmetric(2.0, 5))
    assert np.array_equal(op.diagonal, [3.0, 2.0, 3.0])
    assert np.array_equal(op.off_diagonal, [-1.0, -1.0])
    assert op.spacing == 1.0
    assert op.origin == -1.0


def test_discretize_weber_uniform_off_diagonal():
    g = GridSpec.symmetric(4.0, 41)
    op = discretize_weber(0.7, g)
    assert np.all(op.off_diagonal == -1.0 / g.spacing**2)
    assert op.dimension == 39


def test_discretize_weber_validation():
    with pytest.raises(NonPositiveParameter):
        discretize_weber(0.0, GridSpec.symmetric(2.0, 5))
    with pytest.raises(InvalidGrid):
        discretize_weber(1.0, GridSpec(x_min=-1.0, x_max=2.0, points=5))


def test_discretize_kg_shares_weber_path():
    params = OscillatorParams(mass=1.3, omega=0.8, hbar=0.9, c=2.0)
    g = GridSpec.symmetric(5.0, 101)
    kg = discretize_kg(params, g)
    weber = discretize_weber(params.lam, g)
    assert np.array_equal(kg.diagonal, weber.diagonal)
    assert np.array_equal(kg.off_diagonal, weber.off_diagonal)


def test_sturm_count_analytic_3x3():
    op = _toy_operator()
    assert sturm_count(op, 0.0) == 0
    assert sturm_count(op, 2.0) == 1   # strictly below an exact eigenvalue
    assert sturm_count(op, 4.0) == 3
    assert sturm_count(op, 2.0 - math.sqrt(2.0) + 1e-9) == 1
    assert sturm_count(op, 2.0 + math.sqrt(2.0) + 1e-9) == 3


def test_sturm_count_monotone_and_saturating():
    op = discretize_weber(1.0, GridSpec.symmetric(6.0, 61))
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
    for res, w in zip(got, want):
        assert res.k_squared == pytest.approx(w, abs=1e-12)
        assert res.converged
        assert 0.0 < res.interval_width <= 1e-12
    assert [r.index for r in got] == [0, 1, 2]


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
    op = discretize_weber(1.0, GridSpec.symmetric(10.0, 2001))
    results = lowest_eigenvalues(op, 5, tol=1e-10)
    for n, res in enumerate(results):
        exact = 2.0 * n + 1.0
        assert abs(res.k_squared - exact) / exact < 1e-3, n


def test_weber_eigenvalue_convergence_is_second_order():
    for n in (0, 1, 2):
        exact = 2.0 * n + 1.0
        coarse = lowest_eigenvalues(
            discretize_weber(1.0, GridSpec.symmetric(10.0, 1001)), n + 1,
            tol=1e-12)[n].k_squared
        fine = lowest_eigenvalues(
            discretize_weber(1.0, GridSpec.symmetric(10.0, 2001)), n + 1,
            tol=1e-12)[n].k_squared
        ratio = abs(coarse - exact) / abs(fine - exact)
        assert 3.5 < ratio < 4.5, n


def test_oracle_energies_natural_units():
    results = oracle_energies(natural_units(), 3,
                              GridSpec.symmetric(10.0, 2001), tol=1e-10)
    want = [math.sqrt(2.0), 2.0, math.sqrt(6.0)]
    for res, w in zip(results, want):
        assert abs(res.energy_dimensionless - w) / w < 2e-3
        assert res.energy_dimensionless >= 1.0


def test_oracle_energies_adjudicates_ground_state():
    # the derived law gives sqrt(1.001) ~ 1.0005; the tabulated law 1.001
    result = oracle_energies(from_b(0.001), 1)[0]
    assert abs(result.energy_dimensionless - 1.0005) <= 5e-6
    assert abs(result.energy_dimensionless - 1.001) > 4e-4


def test_oracle_energies_validation():
    with pytest.raises(NonPositiveParameter):
        oracle_energies(natural_units(), 0)


def test_oracle_confirms_combined_law_across_b():
    for b in (1e-4, 1e-3, 0.1):
        params = from_b(b)
        grid = GridSpec.symmetric(default_box(params, 9), 2001)
        results = oracle_energies(params, 9, grid, tol=1e-12)
        for n, res in enumerate(results):
            want = energy_combined(n, b)
            assert abs(res.energy_dimensionless - want) / want < 2e-3, (b, n)
    # ... and visibly rejects the (n+1) law at b = 0.1
    params = from_b(0.1)
    grid = GridSpec.symmetric(default_box(params, 1), 2001)
    ground = oracle_energies(params, 1, grid, tol=1e-12)[0]
    alt = table_row(0, 0.1).e_rel
    assert abs(ground.energy_dimensionless - alt) / alt > 0.02


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
                                          GridSpec.symmetric(5.0, 201))
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
                                    GridSpec.symmetric(1.0, 51))
    with pytest.raises(GridTooSmall):
        profile_effective_potential(natural_units(), 1.0,
                                    GridSpec.symmetric(2.0, 51))
