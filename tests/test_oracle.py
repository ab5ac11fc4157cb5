import math

import numpy as np
import pytest

from kgo.errors import InvalidInput, NonConvergence, OutOfRange
from kgo.oracle import (MACHINE_EPS, TridiagonalOperator, discretize_weber,
                        effective_potential, lowest_eigenvalues,
                        oracle_energies, profile_effective_potential,
                        sturm_count, veff_zero_crossing)
from kgo.params import OscillatorParams, from_b, natural_units
from kgo.spectrum import energy_combined, generate_table
from kgo.wavefn import GridSpec


def _toy_operator():
    # eigenvalues 2 - sqrt(2), 2, 2 + sqrt(2)
    return TridiagonalOperator(diagonal=np.array([2.0, 2.0, 2.0]),
                               off_diagonal=-1.0)


def test_discretize_weber_hand_assembly():
    op = discretize_weber(1.0, GridSpec(2.0, 5))
    assert np.array_equal(op.diagonal, [3.0, 2.0, 3.0])
    assert op.off_diagonal == -1.0


def test_discretize_weber_uniform_off_diagonal():
    g = GridSpec(4.0, 41)
    op = discretize_weber(0.7, g)
    assert op.off_diagonal == -1.0 / g.spacing**2
    assert op.dimension == 39


def test_discretize_weber_validation():
    with pytest.raises(InvalidInput, match="^lam must be positive and finite, got 0.0$"):
        discretize_weber(0.0, GridSpec(2.0, 5))
    with pytest.raises(OutOfRange, match="lam"):
        discretize_weber(1e200, GridSpec(2.0, 5))   # lam**2 overflows
    with pytest.raises(OutOfRange, match="2/h"):
        discretize_weber(1.0, GridSpec(1e-200, 5))  # h**2 underflows to 0


def test_operator_rejects_a_coupling_whose_square_overflows():
    with pytest.raises(OutOfRange, match="coupling"):
        TridiagonalOperator(np.ones(3), 1e200)


def test_operator_rejects_an_empty_diagonal():
    with pytest.raises(InvalidInput, match="^operator must have at least one row$"):
        TridiagonalOperator(np.array([]), 1.0)


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
    off_diagonal = np.full(op.dimension - 1, op.off_diagonal)
    want = linalg.eigh_tridiagonal(op.diagonal, off_diagonal, eigvals_only=True,
                                   select="i", select_range=(0, 9))
    # bisection stops with the eigenvalue inside a bracket narrower than tol;
    # both solvers also carry rounding of order eps * ||op||_inf, the largest
    # absolute row sum (the end rows have one neighbour)
    row_sums = np.abs(op.diagonal)
    row_sums[:-1] += abs(op.off_diagonal)
    row_sums[1:] += abs(op.off_diagonal)
    slack = 16.0 * MACHINE_EPS * row_sums.max()
    assert np.all(np.diff(got) > 0.0)
    assert np.all(np.abs(got - want) <= tol + slack)


def test_lowest_eigenvalues_validation():
    op = _toy_operator()
    with pytest.raises(InvalidInput, match="^count must be >= 1, got 0$"):
        lowest_eigenvalues(op, 0, 1e-10)
    with pytest.raises(InvalidInput, match="^count = 4 exceeds the matrix dimension 3$"):
        lowest_eigenvalues(op, 4, 1e-10)
    with pytest.raises(InvalidInput, match="^tol must be positive and finite, got 0.0$"):
        lowest_eigenvalues(op, 1, 0.0)


def test_lowest_eigenvalues_bisection_cap_signalled():
    with pytest.raises(NonConvergence, match=r"^eigenvalue 0: bracket still .* wide "
                                             r"after 200 bisection steps \(tol = 1e-300\)$"):
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


# k^2 of the default oracle run, pinned bit for bit: the Sturm loop and the
# bisection must reproduce these exact doubles
_PINNED_K_SQUARED = {
    (1e-8, 5, 2001): [1.0006652078925807e-08, 3.0019956236777426e-08,
                      5.003326039462903e-08, 6.996746058347728e-08,
                      8.998076474132888e-08],
    (1e-3, 5, 2001): [0.000999992439113234, 0.0029999621691034505,
                      0.004999901662972704, 0.0069998109207209894,
                      0.008999689942348316],
    (0.37, 5, 2001): [0.36999720181769524, 1.1099860091539022,
                      1.8499636236300616, 2.5899300449844933,
                      3.3298852728682897],
    (7.5, 5, 2001): [7.499943280834338, 22.499716402403713,
                     37.49926264123279, 52.49858199223824, 67.49767445017105],
    (0.01, 3, 20001): [0.009999999460116966, 0.02999999719241131,
                       0.04999999270721844],
}


@pytest.mark.parametrize("key", list(_PINNED_K_SQUARED))
def test_oracle_k_squared_pinned_bit_for_bit(key):
    b, count, points = key
    k_squared, _ = oracle_energies(from_b(b), count, points=points)
    assert k_squared.tolist() == _PINNED_K_SQUARED[key]


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
    with pytest.raises(InvalidInput, match="^count must be >= 1, got 0$"):
        oracle_energies(natural_units(), 0)
    # the count is checked against the operator's dimension before the box
    # is built, so the error names the count and not a level derived from it
    with pytest.raises(InvalidInput,
                       match="^count = 1000002 exceeds the matrix dimension 1999$"):
        oracle_energies(natural_units(), 1000002)
    with pytest.raises(InvalidInput, match="^count = 4 exceeds the matrix dimension 3$"):
        oracle_energies(natural_units(), 4, points=5)
    with pytest.raises(InvalidInput, match=r"^points must be an odd integer in \[3, "):
        oracle_energies(natural_units(), 1, points=4)


def test_oracle_confirms_combined_law_across_b():
    for b in (1e-4, 1e-3, 0.1):
        _, energy = oracle_energies(from_b(b), 9, 2001, tol=1e-12)
        for n, e in enumerate(energy):
            want = energy_combined(n, b)
            assert abs(e - want) / want < 2e-3, (b, n)
    # ... and visibly rejects the (n+1) law at b = 0.1
    _, (ground,) = oracle_energies(from_b(0.1), 1, 2001, tol=1e-12)
    (alt,), _ = generate_table([0.1], [0], "table")
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
    grid = GridSpec(5.0, 201)
    v, unbounded_below = profile_effective_potential(natural_units(), 1.0, grid)
    assert unbounded_below
    x = grid.nodes()
    # even function: mirrored samples agree exactly
    assert np.all(v[::-1] == v)
    idx = int(np.argmin(np.abs(x - 3.0)))
    assert x[idx] == pytest.approx(3.0, abs=1e-12)
    assert v[idx] == pytest.approx(-11.25, abs=1e-9)


def test_profile_requires_grid_beyond_zero():
    with pytest.raises(InvalidInput, match=r"^grid has 0 node\(s\) beyond the potential "
                                           r"zero at 2; at least 2 are needed$"):
        profile_effective_potential(natural_units(), 1.0,
                                    GridSpec(1.0, 51))
    with pytest.raises(InvalidInput, match=r"^grid has 0 node\(s\) beyond the potential "
                                           r"zero at 2; at least 2 are needed$"):
        profile_effective_potential(natural_units(), 1.0,
                                    GridSpec(2.0, 51))
