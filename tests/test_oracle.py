import io
import marshal
import math
import mmap
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgo import fork, oracle
from kgo.errors import DEFAULT_POINTS, DEFAULT_TOL, InvalidInput, NonConvergence, OutOfRange
from kgo.fork import pays
from kgo.oracle import (BISECTION_MAX_ITER, MACHINE_EPS, TridiagonalOperator, discretize_weber,
                        effective_potential, lowest_eigenvalues,
                        oracle_energies, profile_effective_potential,
                        sturm_count, veff_zero_crossing)
from kgo.params import GridSpec, OscillatorParams, default_extent, from_b, natural_units
from kgo.spectrum import energy_combined, generate_table


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
    # lam**2 overflows; the operator's own diagonal check does not mask this message
    with pytest.raises(OutOfRange, match=r"^operator diagonal 2/h\^2 \+ lam\^2 x\^2 exceeds"):
        discretize_weber(1e200, GridSpec(2.0, 5))
    with pytest.raises(OutOfRange, match="2/h"):
        discretize_weber(1.0, GridSpec(1e-200, 5))  # h**2 underflows to 0


def test_operator_rejects_a_coupling_whose_square_overflows():
    with pytest.raises(OutOfRange, match="coupling"):
        TridiagonalOperator(np.ones(3), 1e200)


@pytest.mark.parametrize("entry, rule", [
    (math.nan, f"be real numbers, got {np.float64(math.nan)!r}"), (math.inf, "be finite, got inf"),
    (-math.inf, "be finite, got -inf")], ids=["nan", "inf", "-inf"])
def test_operator_rejects_a_non_finite_diagonal(entry, rule):
    # a NaN diagonal made the Gershgorin bound NaN, so no bisection step ran
    # and lowest_eigenvalues returned NaNs with no error
    diagonal = np.array([1.0, entry, 1.0])
    with pytest.raises(InvalidInput,
                       match=rf"^operator diagonal must {re.escape(rule)} at index 1$"):
        lowest_eigenvalues(TridiagonalOperator(diagonal, -0.1), 2, 1e-10)


def test_operator_rejects_an_empty_diagonal():
    with pytest.raises(InvalidInput, match="^operator must have at least one row$"):
        TridiagonalOperator(np.array([]), 1.0)


def test_operator_rejects_a_diagonal_that_is_not_one_dimensional():
    # a square diagonal used to pass, and _rows then raised a bare TypeError
    # a ragged one raised numpy's bare ValueError
    # the message shows the first entry that is no real number, or the value
    # that is no sequence
    for diagonal, shown in ((np.ones((3, 3)), f"{np.ones(3)!r} at index 0"),
                            (np.float64(1.0), repr(np.float64(1.0))),
                            ([[1.0], 2.0], "[1.0] at index 0")):
        with pytest.raises(InvalidInput, match="^operator diagonal must be real numbers, "
                                               f"got {re.escape(shown)}$"):
            lowest_eigenvalues(TridiagonalOperator(diagonal, -1.0), 1, 1e-10)


@pytest.mark.parametrize("coupling", ["a", True, 1j, None])
def test_operator_rejects_a_coupling_that_is_not_a_real_number(coupling):
    with pytest.raises(InvalidInput,
                       match=rf"^operator coupling must be a real number, got {re.escape(repr(coupling))}$"):
        TridiagonalOperator(np.ones(3), coupling)


def test_operator_holds_its_coupling_as_a_python_float():
    # a float32 coupling would otherwise turn pivots into float32 arithmetic
    for coupling in (np.float32(-0.5), np.float64(-0.5), -1, -0.5):
        op = TridiagonalOperator(np.ones(3), coupling)
        assert type(op.off_diagonal) is float and op.off_diagonal == float(coupling)
    with pytest.raises(InvalidInput, match="^operator coupling must be a real number, "
                                           "got a positive int of 1329 bits$"):
        TridiagonalOperator(np.ones(3), 10**400)


def test_operator_holds_any_real_sequence_as_python_floats():
    # the solver runs on Python floats, so it needs no numpy and no ndarray
    for diagonal in (np.ones(3, dtype=np.float32), [1, 1, 1], (1.0, np.float32(1.0), np.int64(1))):
        op = TridiagonalOperator(diagonal, -0.5)
        assert op.diagonal == [1.0, 1.0, 1.0] and {type(a) for a in op.diagonal} == {float}
    for diagonal, shown in ((["a", "b"], "'a' at index 0"), ([1.0, None], "None at index 1"),
                            ([1.0, True], "True at index 1"),
                            (np.array([1j, 1j]), f"{np.complex128(1j)!r} at index 0"),
                            ([1.0, 10**400], "a positive int of 1329 bits at index 1"),
                            ("ab", "'ab'"), (b"\x01", "b'\\x01'")):
        with pytest.raises(InvalidInput, match="^operator diagonal must be real numbers, "
                                               f"got {re.escape(shown)}$"):
            TridiagonalOperator(diagonal, -0.5)


def test_sturm_count_analytic_3x3():
    op = _toy_operator()
    assert sturm_count(op, 0.0) == 0
    assert sturm_count(op, 2.0) == 1   # strictly below an exact eigenvalue
    assert sturm_count(op, 4.0) == 3
    assert sturm_count(op, 2.0 - math.sqrt(2.0) + 1e-9) == 1
    assert sturm_count(op, 2.0 + math.sqrt(2.0) + 1e-9) == 3
    # a mirror block [[0, sqrt(2) c], [sqrt(2) c, 0]] at a shift one subnormal
    # below 0: its first pivot, halved, rounded to 0 and the sweep divided by it
    for c, below in ((0.0, 0), (1.0, 1)):
        assert sturm_count(TridiagonalOperator._block([0.0, 0.0], c, True), -5e-324) == below
    # the even block [[3, sqrt(2)], [sqrt(2), 3]] 1e154 of a 3x3 operator whose
    # squared coupling doubled would overflow: eigenvalues (3 -+ sqrt(2)) 1e154
    even, _ = oracle._half_line_blocks(TridiagonalOperator(np.full(3, 3e154), 1e154))
    for shift, below in ((1e154, 0), (2e154, 1), (4e154, 1), (5e154, 2)):
        assert sturm_count(even, shift) == _full_sweep_count(even, shift) == below
    assert lowest_eigenvalues(TridiagonalOperator(np.full(3, 3e154), 1e154), 1, 1e140) \
        == pytest.approx([(3.0 - math.sqrt(2.0)) * 1e154])


def test_sturm_count_monotone_and_saturating():
    op = discretize_weber(1.0, GridSpec(6.0, 61))
    shifts = np.linspace(0.0, op.gershgorin_upper * 1.1, 40)
    counts = [sturm_count(op, s) for s in shifts]
    assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    assert counts[0] == 0
    assert counts[-1] == op.dimension


def test_sturm_count_stops_at_its_limit_with_the_capped_count():
    op = discretize_weber(1.0, GridSpec(6.0, 61))
    for block in (op, *oracle._half_line_blocks(op)):
        for shift in np.linspace(0.0, block.gershgorin_upper * 1.1, 25):
            full = sturm_count(block, shift)
            for limit in (1, 2, 5, block.dimension, 10**6):
                assert sturm_count(block, shift, limit) == min(full, limit), (shift, limit)


@pytest.mark.parametrize("shift, shown", [
    ("a", "'a'"), (None, "None"), (math.nan, "nan"), (math.inf, "inf"), (True, "True"),
    (10**400, "a positive int of 1329 bits"),
], ids=["str", "none", "nan", "inf", "bool", "huge-int"])
def test_sturm_count_takes_a_finite_real_shift(shift, shown):
    # "a" and None raised a bare TypeError, nan counted 0 and True counted 1
    with pytest.raises(InvalidInput, match=f"^shift must be a real number, got {shown}$"):
        sturm_count(_toy_operator(), shift)
    assert sturm_count(_toy_operator(), np.float64(2.5)) == sturm_count(_toy_operator(), 2) + 1


@pytest.mark.parametrize("limit", [0, -1, 1.5, True, "a"])
def test_sturm_count_limit_is_a_count_of_at_least_one(limit):
    with pytest.raises(InvalidInput, match="^limit must be "):
        sturm_count(_toy_operator(), 1.0, limit)


def test_fold_blocks_slice_the_checked_diagonal_without_checking_it_again():
    op = discretize_weber(1e-3, GridSpec(default_extent(9, 1e-3), 2001))
    with mock.patch.object(oracle, "evaluate_finite", side_effect=AssertionError("checked")):
        even, odd = oracle._half_line_blocks(op)
    m = op.dimension // 2
    assert (even.diagonal, odd.diagonal) == (op.diagonal[m:], op.diagonal[m + 1:])
    assert (even.off_diagonal, odd.off_diagonal) == (op.off_diagonal,) * 2
    assert (even._mirror_row, odd._mirror_row) == (True, False)


def test_sturm_count_brackets_give_interval_counts():
    op = _toy_operator()
    eigs = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    for lo, hi in ((0.0, 1.0), (0.5, 2.5), (1.0, 4.0), (2.5, 3.0)):
        inside = sum(1 for e in eigs if lo <= e < hi)
        assert sturm_count(op, hi) - sturm_count(op, lo) == inside


def _full_sweep_count(op, shift):
    # sturm_count before the sweep ended early, verbatim: every row at every shift
    pivmin = MACHINE_EPS * op.gershgorin_upper or MACHINE_EPS
    offsq = op.off_diagonal * op.off_diagonal
    first, *rest = np.asarray(op.diagonal, dtype=float).tolist()
    d = (first - shift) or pivmin  # the first row has no predecessor
    count = int(d < 0.0)
    if op._mirror_row:
        # the next row divides 2 offsq by this pivot; halving it is exact
        d *= 0.5
    for a in rest:
        d = (a - shift) - offsq / d
        if d <= 0.0:  # most pivots are positive and pass this one test
            if d:
                count += 1
            else:
                d = pivmin
    return count


@st.composite
def _operators_and_shifts(draw):
    """(operator, shifts) with shifts where an early stop could go wrong.

    Weber matrices (whole, which dips to the centre, or a half-line block),
    increasing and unordered diagonals, of odd and even dimension, each with
    and without the mirror row.  Shifts sit at and one ulp either side of
    a - 2|coupling| for drawn rows a, the edge of the cut; within a few ulps
    of eigenvalues, where the pivots past the turning point decide the
    count; and at and far above the Gershgorin bound.
    """
    kind = draw(st.sampled_from(["weber", "increasing", "unordered"]))
    if kind == "weber":
        lam = 10.0 ** draw(st.floats(-8.0, 3.0))
        level = draw(st.integers(0, 30))
        whole = discretize_weber(lam, GridSpec(default_extent(level, lam),
                                               draw(st.integers(2, 100)) * 2 + 1))
        start = draw(st.sampled_from([0, whole.dimension // 2, whole.dimension // 2 + 1]))
        diagonal, coupling = whole.diagonal[start:], whole.off_diagonal
    else:
        size = draw(st.integers(1, 40))
        scale = 10.0 ** draw(st.floats(-2.0, 10.0))
        entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
        diagonal = scale * np.array(sorted(entries) if kind == "increasing" else entries)
        # a coupling far below the diagonal's ulp puts every edge on a row
        coupling = draw(st.sampled_from([0.0, -1.0, 1e-3, -1e-30, 1e-200])
                        | st.floats(-1e3, 1e3))
    checked = TridiagonalOperator(diagonal, coupling)
    op = TridiagonalOperator._block(checked.diagonal, checked.off_diagonal, draw(st.booleans()))
    r = abs(op.off_diagonal)
    shifts = [0.0, op.gershgorin_upper, 2.0 * op.gershgorin_upper + 1e3 * (r + 1.0)]
    for a in draw(st.lists(st.sampled_from(op.diagonal), min_size=1, max_size=4)):
        edge = a - 2.0 * r
        shifts += [a, edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    couplings = np.full(op.dimension - 1, op.off_diagonal)
    couplings[:1] *= math.sqrt(2.0) if op._mirror_row else 1.0
    matrix = np.diag(op.diagonal) + np.diag(couplings, 1) + np.diag(couplings, -1)
    eigenvalues = np.linalg.eigvalsh(matrix).tolist()
    for below in draw(st.lists(st.sampled_from(eigenvalues), min_size=1, max_size=3)):
        shifts.append(below)
        above = below
        for _ in range(3):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            shifts += [below, above]
    return op, shifts


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(case=_operators_and_shifts())
def test_sturm_count_ends_early_with_the_full_sweep_count(case):
    op, shifts = case
    for shift in shifts:
        assert sturm_count(op, shift) == _full_sweep_count(op, shift), shift


def test_lowest_eigenvalues_toy_matrix():
    got = lowest_eigenvalues(_toy_operator(), 3, tol=1e-12)
    want = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    assert isinstance(got, list) and [type(k) for k in got] == [float] * 3
    assert got == pytest.approx(want, abs=1e-12)


def _scipy_lowest(op, count, eigvals_only=True):
    linalg = pytest.importorskip("scipy.linalg")
    off_diagonal = np.full(op.dimension - 1, op.off_diagonal)
    return linalg.eigh_tridiagonal(op.diagonal, off_diagonal, eigvals_only=eigvals_only,
                                   select="i", select_range=(0, count - 1))


def _rounding_slack(op):
    # bisection stops with the eigenvalue inside a bracket narrower than tol;
    # both solvers also carry rounding of order eps * ||op||_inf, the largest
    # absolute row sum (the end rows have one neighbour)
    row_sums = np.abs(op.diagonal)
    row_sums[:-1] += abs(op.off_diagonal)
    row_sums[1:] += abs(op.off_diagonal)
    return 16.0 * MACHINE_EPS * row_sums.max()


def test_lowest_eigenvalues_match_scipy_eigh_tridiagonal():
    op = discretize_weber(0.7, GridSpec(6.0, 401))
    tol = 1e-10
    want = _scipy_lowest(op, 10)
    got = lowest_eigenvalues(op, 10, tol)
    assert np.all(np.diff(got) > 0.0)
    assert np.all(np.abs(got - want) <= tol + _rounding_slack(op))


@st.composite
def _dominant_operators(draw):
    """(shape, operator): diagonally dominant, so every eigenvalue is >= 0.

    shape "mirror" is odd-dimensional with a diagonal that reads the same
    backwards, the case lowest_eigenvalues folds; "asymmetric" (odd, not
    mirrored) and "even" (even dimension) must run on the whole matrix.
    """
    shape = draw(st.sampled_from(["mirror", "asymmetric", "even"]))
    coupling = draw(st.floats(0.01, 100.0))
    excess = st.floats(0.0, 1000.0)
    if shape == "mirror":
        half = draw(st.lists(excess, min_size=2, max_size=20))
        excesses = half[:0:-1] + half
    else:
        size = draw(st.integers(1, 20)) * 2 + (shape == "asymmetric")
        excesses = draw(st.lists(excess, min_size=size, max_size=size))
    diagonal = 2.0 * coupling + np.array(excesses)
    # checked after rounding: 2 * coupling + excess absorbs a tiny excess, so
    # excesses that differ can still give a diagonal that reads the same backwards
    assume(shape == "mirror" or not np.array_equal(diagonal, diagonal[::-1]))
    return shape, TridiagonalOperator(diagonal, -coupling)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=_dominant_operators(), count=st.integers(1, 41),
       tol=st.sampled_from([1e-12, 1e-10, 1e-6]))
def test_folded_and_whole_matrix_paths_match_scipy(case, count, tol):
    shape, op = case
    count = min(count, op.dimension)
    dimensions = []

    def counted(block, shift, *limit):
        dimensions.append(block.dimension)
        return sturm_count(block, shift, *limit)

    with mock.patch.object(oracle, "sturm_count", counted):
        got = lowest_eigenvalues(op, count, tol)
    half = op.dimension // 2
    folded = {half, half + 1} if count > 1 else {half + 1}
    assert dimensions and set(dimensions) <= (folded if shape == "mirror" else {op.dimension})
    assert np.all(np.abs(got - _scipy_lowest(op, count)) <= tol + _rounding_slack(op))


def test_weber_eigenvectors_alternate_in_parity():
    # the fold rests on this: level j of the mirror-symmetric operator is
    # even about x = 0 for even j and odd for odd j, the paper's split into
    # even level n at combined index 2n and odd level n at 2n + 1
    op = discretize_weber(1e-3, GridSpec(default_extent(49, 1e-3), DEFAULT_POINTS))
    _, vectors = _scipy_lowest(op, 50, eigvals_only=False)
    for j, v in enumerate(vectors.T):
        assert np.max(np.abs(v[::-1] - (-1) ** j * v)) < 1e-9 * np.max(np.abs(v)), j


def _unfolded_bisection(op, count, tol):
    # the solver before the fold and the shared tree: every level bisects the
    # whole matrix from the root and counts every midpoint afresh
    k_squared = []
    for j in range(count):
        lo, hi = 0.0, op.gershgorin_upper
        iterations = 0
        while hi - lo > tol:
            assert iterations < BISECTION_MAX_ITER
            mid = 0.5 * (lo + hi)
            if sturm_count(op, mid) >= j + 1:
                hi = mid
            else:
                lo = mid
            iterations += 1
        k_squared.append(0.5 * (lo + hi))
    return k_squared


# oracle runs in the benchmark's bands of b, where tol exceeds the rounding
# of a Sturm count, so the folded counts take every decision the whole
# matrix takes; far above (b >~ 10 with tol 1e-10) a decision at a midpoint
# within rounding of an eigenvalue can go either way, in both solvers
@pytest.mark.parametrize("b, count, points", [
    (3e-8, 12, 2001), (5e-4, 50, 2001), (0.02, 20, 4001), (0.37, 10, 1001),
    (4.0, 8, 2001), (9.5, 5, 6001)])
def test_folded_bisection_takes_the_unfolded_decisions_bit_for_bit(b, count, points):
    op = discretize_weber(b, GridSpec(default_extent(count - 1, b), points))
    assert lowest_eigenvalues(op, count, DEFAULT_TOL) == \
        _unfolded_bisection(op, count, DEFAULT_TOL)


def _one_process(op, count, tol):
    """lowest_eigenvalues with no os.fork: both blocks bisect in this process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(os, "fork")
        return lowest_eigenvalues(op, count, tol)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns in this process, with _FORK_MIN_ROWS at 0, so
    every operator of two blocks forks at a count above 1, however small."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(oracle, "_FORK_MIN_ROWS", 0)
    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def _mirror_operator(rng):
    coupling = rng.uniform(0.01, 100.0)
    half = [rng.uniform(0.0, 1000.0) for _ in range(rng.randint(2, 30))]
    return TridiagonalOperator([2.0 * coupling + e for e in half[:0:-1] + half], -coupling)


@pytest.mark.parametrize("seed", range(10))
def test_two_processes_give_the_bits_of_one(seed, forks):
    # a forked child bisects from the odd block's last level down; each level
    # runs the same loop on the same numbers wherever it runs
    rng = random.Random(seed)
    op = _mirror_operator(rng) if seed else discretize_weber(0.37, GridSpec(12.0, 201))
    counts = sorted({1, 2, 3, 4, op.dimension // 2, op.dimension - 1, op.dimension})
    for count in counts:
        tol = rng.choice([1e-12, 1e-10, 1e-6])
        forked = lowest_eigenvalues(op, count, tol)
        assert forked == _one_process(op, count, tol), count
        _assert_no_child()
    assert len(forks) == len(counts) - 1  # every count but 1 leaves the odd block a level


def test_a_child_is_forked_where_its_sweeps_repay_it(monkeypatch):
    # _FORK_MIN_ROWS counts levels x rows x bisection steps: the README oracle
    # (5 levels of 2001 points) stays in one process, 50 levels of it fork
    assert pays()  # this process runs one thread
    fork = os.fork
    pids = []
    monkeypatch.setattr(os, "fork", lambda: pids.append(None) or fork())
    op = discretize_weber(1e-3, GridSpec(default_extent(49, 1e-3), DEFAULT_POINTS))
    small = lowest_eigenvalues(op, 5, DEFAULT_TOL)
    assert not pids
    large = lowest_eigenvalues(op, 50, DEFAULT_TOL)
    assert len(pids) == 1
    assert large[:5] == small
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert lowest_eigenvalues(op, 50, DEFAULT_TOL) == large
    assert len(pids) == 1  # one CPU: nothing to run the child on
    _assert_no_child()


def test_a_process_with_threads_bisects_both_blocks_itself(forks):
    # a forked child holds the calling thread alone, and any lock another
    # thread held stays held there; the OS counts native threads too
    op = discretize_weber(0.37, GridSpec(12.0, 1001))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        got = lowest_eigenvalues(op, 10, DEFAULT_TOL)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and not forks
    assert got == lowest_eigenvalues(op, 10, DEFAULT_TOL)
    assert len(forks) == 1


@pytest.mark.parametrize("b, count, level", [(1e5, 5, 3), (3e5, 5, 1), (1.5e5, 6, 2),
                                             (7e5, 5, 0)])
def test_a_failure_names_the_lowest_failing_level(b, count, level, forks):
    # in this band both blocks fail to reach tol; the odd levels (the child
    # starts at the last of them) fail first at b = 1e5 and 3e5, the even ones
    # at 1.5e5 and 7e5
    params = from_b(b)
    op = discretize_weber(params.lam, GridSpec(default_extent(count - 1, params.lam), 2001))
    with pytest.raises(NonConvergence) as alone:
        _one_process(op, count, DEFAULT_TOL)
    assert re.fullmatch(rf"eigenvalue {level}: bracket still \S+ wide after 200 bisection "
                        r"steps \(tol = 1e-10\)", str(alone.value))
    with pytest.raises(NonConvergence, match=f"^{re.escape(str(alone.value))}$"):
        oracle_energies(params, count)
    assert len(forks) == 1
    _assert_no_child()


def test_the_child_is_killed_and_reaped_when_this_process_raises(forks):
    parent = os.getpid()

    def interrupted(block, shift, *limit):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return sturm_count(block, shift, *limit)

    with mock.patch.object(oracle, "sturm_count", interrupted):
        with pytest.raises(KeyboardInterrupt):
            lowest_eigenvalues(discretize_weber(1.0, GridSpec(10.0, 2001)), 6, DEFAULT_TOL)
    assert len(forks) == 1
    _assert_no_child()


def test_a_child_that_dies_before_it_writes_leaves_the_result_unchanged(forks):
    op = discretize_weber(0.02, GridSpec(default_extent(9, 0.02), 2001))
    parent = os.getpid()

    def dying(block, shift, *limit):
        if os.getpid() != parent:
            os._exit(3)
        return sturm_count(block, shift, *limit)

    with mock.patch.object(oracle, "sturm_count", dying):
        got = lowest_eigenvalues(op, 10, DEFAULT_TOL)
    assert len(forks) == 1
    assert got == _one_process(op, 10, DEFAULT_TOL)
    _assert_no_child()


def test_a_caller_that_ignores_sigchld_gets_the_same_result(forks):
    # the kernel reaps each child at once, so waitpid finds none to reap
    op = discretize_weber(0.02, GridSpec(default_extent(9, 0.02), 2001))
    alone = _one_process(op, 10, DEFAULT_TOL)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        got = lowest_eigenvalues(op, 10, DEFAULT_TOL)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 1
    assert got == alone
    _assert_no_child()


def _children(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as children:
        return [int(child) for child in children.read().split()]


def _ended(pid):
    # gone, or a zombie that nothing reaps (a container's init may not)
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _streams(pid):
    return [os.readlink(f"/proc/{pid}/fd/{fd}") for fd in (0, 1, 2)]


def _dying_marshal(parent, frames, cut, loaded):
    """marshal for kgo.fork, whose dump SIGKILLs a forked child once it has
    sent its success report and frames frames, after half of the next frame
    if cut; loads records in loaded each value that this process loads."""
    sent = []

    def dump(value, pipe):
        if os.getpid() != parent and len(sent) == 1 + frames:
            data = marshal.dumps(value)
            pipe.write(data[:len(data) // 2] if cut else b"")
            pipe.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        sent.append(value)
        marshal.dump(value, pipe)

    def loads(data):
        value = marshal.loads(data)
        loaded.append(value)
        return value
    return SimpleNamespace(dump=dump, dumps=marshal.dumps, load=marshal.load, loads=loads)


class _CountedReads(io.RawIOBase):
    """A readable raw stream over data that counts the reads made of it."""

    def __init__(self, data):
        self.data, self.reads = memoryview(data), 0

    def readable(self):
        return True

    def readinto(self, buffer):
        self.reads += 1
        size = min(len(buffer), len(self.data))
        buffer[:size], self.data = self.data[:size], self.data[size:]
        return size


def test_a_list_frame_loads_in_one_read():
    # marshal.load reads a list from a file two reads a float, each a call
    # into the buffered pipe; a frame of the list's marshal bytes is one read
    values = [k / 7.0 for k in range(10**5)]
    raw = _CountedReads(marshal.dumps(marshal.dumps(values)))
    assert fork._load(io.BufferedReader(raw)) == values
    assert raw.reads <= 3
    assert fork._load(io.BufferedReader(_CountedReads(b""))) is None


def _wait_until(ready):
    """Poll ready() until it holds, for at most 30 s."""
    deadline = time.monotonic() + 30
    while not ready():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def pin_the_child_to_all_works_but_the_first(monkeypatch):
    """Patch fork.apart so that this process's work 0 waits until a forked
    child has begun work 1: the child, which claims works from the last down,
    then runs works 1 on and this process work 0 alone, however the two are
    scheduled."""
    apart, parent = fork.apart, os.getpid()

    def pinned(work, count):
        begun = mmap.mmap(-1, 1)  # shared with the child that apart forks after this

        def waiting(i):
            if os.getpid() != parent and i == 1:
                begun[0] = 1
            elif os.getpid() == parent and i == 0:
                _wait_until(lambda: begun[0])
            return work(i)
        return apart(waiting, count)
    monkeypatch.setattr(fork, "apart", pinned)


@pytest.mark.parametrize("frames", [0, 1, None], ids=["report", "one-frame", "all-frames"])
@pytest.mark.parametrize("count", [10, 11])
def test_a_child_killed_after_some_levels_leaves_the_result_unchanged(forks, monkeypatch,
                                                                       count, frames):
    # the child bisects every level but the first work's, even level 0, and
    # sends each as one frame: those that arrive are kept, and this process
    # bisects the rest from the first that does not
    frames = count - 1 if frames is None else frames
    op = discretize_weber(0.02, GridSpec(default_extent(count - 1, 0.02), 2001))
    alone = _one_process(op, count, DEFAULT_TOL)
    loaded = []
    monkeypatch.setattr(fork, "marshal", _dying_marshal(os.getpid(), frames, False, loaded))
    pin_the_child_to_all_works_but_the_first(monkeypatch)
    assert lowest_eigenvalues(op, count, DEFAULT_TOL) == alone
    assert len(forks) == 1 and len(loaded) == 1 + frames and loaded[0] == 1
    _assert_no_child()


class _Runs:
    """Works for fork.apart that record, in an mmap shared with a forked
    child, the pid of each process that ran each of them, and whose results
    depend on the index alone.  wait(i) is called before work i runs."""

    def __init__(self, count, wait=lambda runs, i: None):
        self.count, self.wait, self.parent = count, wait, os.getpid()
        self.pids = mmap.mmap(-1, 8 * count)  # per work: this process's pid, the child's

    def ran(self, i, child=False):
        """The pid of the process, this one or the child, that ran work i, or 0."""
        return int.from_bytes(self.pids[8 * i + 4 * child:8 * i + 4 * child + 4], "little")

    def __call__(self, i):
        at = 8 * i + 4 * (os.getpid() != self.parent)
        self.pids[at:at + 4] = os.getpid().to_bytes(4, "little")
        self.wait(self, i)
        return [i, i / 7.0]

    def run(self):
        """The results of apart, checked against one process's, and the works
        that this process and the child ran."""
        got = list(fork.apart(self, self.count))
        assert got == [[i, i / 7.0] for i in range(self.count)]
        _assert_no_child()
        return ([i for i in range(self.count) if self.ran(i) == self.parent],
                [i for i in range(self.count) if self.ran(i, True)])


def test_a_child_claims_all_but_a_prefix_of_a_slow_process(forks):
    # this process's work 0 lasts until the child has begun work 1
    runs = _Runs(12, lambda runs, i: i == 0 and _wait_until(lambda: runs.ran(1, True)))
    assert runs.run() == ([0], list(range(1, 12)))
    assert [runs.ran(i, True) for i in range(1, 12)] == forks * 11


def test_this_process_claims_all_but_the_last_work_of_a_slow_child(forks):
    # this process's work 0 lasts until the child has begun the last work,
    # which lasts until this process has begun the one before it
    def wait(runs, i):
        if i == 0:
            _wait_until(lambda: runs.ran(11, True))
        elif i == 11 and os.getpid() != runs.parent:
            _wait_until(lambda: runs.ran(10))
    runs = _Runs(12, wait)
    assert runs.run() == (list(range(11)), [11])


def test_a_work_that_both_processes_ran_is_handed_out_once(forks, monkeypatch):
    # where both load work 6's claim as unset, both run it, each in work 6
    # waiting until the other has begun it; each then stops at the next claim
    class Unseen:
        def __init__(self, claims):
            self.claims = claims

        def __getitem__(self, i):
            return 0 if i == 6 else self.claims[i]

        def __setitem__(self, i, value):
            self.claims[i] = value

    runs = _Runs(12, lambda runs, i: i == 6 and _wait_until(
        lambda: runs.ran(6) and runs.ran(6, True)))
    real = mmap.mmap
    monkeypatch.setattr(mmap, "mmap", lambda *args: Unseen(real(*args)))
    assert runs.run() == (list(range(7)), list(range(6, 12)))


@pytest.mark.parametrize("seed", range(3))
def test_claims_under_random_timing_hand_out_every_work_once(forks, seed):
    # works of random lengths, 0 to 0.5 ms: this process runs a prefix and
    # the child the rest, maybe with the work where they met in both
    rng = random.Random(seed)
    for count in rng.sample(range(2, 60), 20):
        delays = [rng.uniform(0.0, 5e-4) for _ in range(count)]
        mine, child = _Runs(count, lambda runs, i: time.sleep(delays[i])).run()
        assert mine == list(range(len(mine))) and child == list(range(count - len(child), count))
        assert len(mine) + len(child) >= count
    assert len(forks) == 20


def test_works_a_killed_child_claimed_are_run_here(forks):
    # the child claims works 11, 10 and 9 and is killed in work 9, before its
    # report; this process's work 0 lasts until then, and it stops at work 9
    def wait(runs, i):
        if i == 0:
            _wait_until(lambda: runs.ran(9, True))
        elif i == 9 and os.getpid() != runs.parent:
            os.kill(os.getpid(), signal.SIGKILL)
    runs = _Runs(12, wait)
    assert runs.run() == (list(range(12)), [9, 10, 11])


def assert_a_killed_kgo_leaves_no_process(*argv):
    """Start `python -m kgo` on argv, SIGKILL it once its forked child has
    pointed its streams at os.devnull, and check that the pipes reach EOF at
    once and that the child, which has seconds of work left, ends within 2 s:
    it checks before each part of its work that its parent is unchanged."""
    proc = subprocess.Popen([sys.executable, "-m", "kgo", *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30
        while not _children(proc.pid) or _streams(_children(proc.pid)[0]) != [os.devnull] * 3:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        [child] = _children(proc.pid)
    finally:
        proc.kill()
    start = time.monotonic()
    out, err = proc.communicate(timeout=10)
    assert time.monotonic() - start < 2
    assert (out, err, proc.returncode) == (b"", b"", -signal.SIGKILL)
    deadline = time.monotonic() + 2
    try:
        while not _ended(child):
            assert time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        if not _ended(child):
            os.kill(child, signal.SIGKILL)


needs_children = pytest.mark.skipif(
    not os.path.exists(f"/proc/self/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<pid>/children")


@needs_children
def test_a_killed_kgo_leaves_its_pipes_closed_and_no_process():
    # the slowest shape the work budget accepts: about 10 s in two processes,
    # a few ms a level, so the child would run on for seconds after the kill
    assert_a_killed_kgo_leaves_no_process("oracle", "--b", "10", "--count", "4999",
                                          "--points", "5001")


def test_lowest_eigenvalues_validation():
    op = _toy_operator()
    with pytest.raises(InvalidInput, match=r"^count must be in \[1, 3\], got 0$"):
        lowest_eigenvalues(op, 0, 1e-10)
    with pytest.raises(InvalidInput, match=r"^count must be in \[1, 3\], got 4$"):
        lowest_eigenvalues(op, 4, 1e-10)
    with pytest.raises(InvalidInput, match="^tol must be positive and finite, got 0.0$"):
        lowest_eigenvalues(op, 1, 0.0)
    for count in (2.0, True, "2", None, np.array([2]), np.array(2), np.True_):
        with pytest.raises(InvalidInput,
                           match=f"^count must be an integer, got {re.escape(repr(count))}$"):
            lowest_eigenvalues(op, count, 1e-8)
    assert lowest_eigenvalues(op, np.int64(1), 1e-12) == pytest.approx([2 - 2**0.5])


@pytest.mark.parametrize("op", ["x", None, [1.0, 2.0], np.array([2.0, 2.0]), 3.0])
def test_sturm_count_and_lowest_eigenvalues_take_only_an_operator(op):
    # each ended in a bare AttributeError (no attribute 'dimension')
    message = f"^operator must be a TridiagonalOperator, got {re.escape(repr(op))}$"
    with pytest.raises(InvalidInput, match=message):
        sturm_count(op, 1.0)
    with pytest.raises(InvalidInput, match=message):
        lowest_eigenvalues(op, 1, 1e-8)


def test_lowest_eigenvalues_refuses_eigenvalues_below_zero():
    # eigenvalues -1 - 1/sqrt(2), -1, -1 + 1/sqrt(2): brackets start at 0, so
    # these would all come back clamped to 0
    op = TridiagonalOperator(np.array([-1.0, -1.0, -1.0]), 0.5)
    assert sturm_count(op, 0.0) == 3
    with pytest.raises(InvalidInput, match="^3 eigenvalue\\(s\\) lie below 0"):
        lowest_eigenvalues(op, 2, 1e-10)
    # a negative Gershgorin bound alone is no error: these are 0.5 and 3.5
    op = TridiagonalOperator(np.array([2.0, 2.0]), -1.5)
    assert lowest_eigenvalues(op, 2, 1e-12) == pytest.approx([0.5, 3.5], abs=1e-12)


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
    assert k_squared == _PINNED_K_SQUARED[key]


def test_oracle_energies_natural_units():
    k_squared, energy = map(np.asarray, oracle_energies(natural_units(), 3, tol=1e-10))
    want = [math.sqrt(2.0), 2.0, math.sqrt(6.0)]
    for e, w in zip(energy, want):
        assert abs(e - w) / w < 2e-3
        assert e >= 1.0
    # Ebar^2 - 1 = b k^2 / lam, and b = lam = 1 here
    assert energy**2 - 1.0 == pytest.approx(k_squared, rel=1e-12)


def test_oracle_energies_invert_the_dimensional_k_squared():
    # the paper's k^2 = (E^2 - m^2 c^4)/(c^2 hbar^2) at E = Ebar m c^2, in
    # units where no constant is 1
    p = OscillatorParams(mass=2.0, omega=0.7, hbar=1.3, c=2.1)
    k_squared, energy = map(np.asarray, oracle_energies(p, 4))
    rest = p.mass * p.c**2
    inverted = ((energy * rest) ** 2 - rest**2) / (p.c**2 * p.hbar**2)
    assert inverted == pytest.approx(k_squared, rel=1e-12)
    assert k_squared == pytest.approx([p.lam * (2 * n + 1) for n in range(4)], rel=1e-3)


def test_oracle_energies_dimensionless_identity():
    # k^2 c^2 hbar^2 / (2 m c^2 hbar w) = (Ebar^2 - 1) / (2 b)
    p = OscillatorParams(mass=2.0, omega=0.7, hbar=1.3, c=2.1)
    k_squared, energy = map(np.asarray, oracle_energies(p, 4))
    lhs = k_squared * p.c**2 * p.hbar**2 / (2.0 * p.mass * p.c**2 * p.hbar * p.omega)
    assert lhs == pytest.approx((energy**2 - 1.0) / (2.0 * p.b), rel=1e-12)


def test_oracle_energies_rise_with_level_above_the_rest_energy():
    # every bound k^2 is positive and grows with the level, so Ebar > 1 grows too
    for b in (1e-3, 0.5):
        k_squared, energy = map(np.asarray, oracle_energies(from_b(b), 6))
        assert np.all(k_squared > 0.0) and np.all(np.diff(k_squared) > 0.0)
        assert np.all(energy > 1.0) and np.all(np.diff(energy) > 0.0)


def test_oracle_energies_adjudicates_ground_state():
    # the derived law gives sqrt(1.001) ~ 1.0005; the tabulated law 1.001
    _, (energy,) = oracle_energies(from_b(0.001), 1)
    assert abs(energy - 1.0005) <= 5e-6
    assert abs(energy - 1.001) > 4e-4


def test_oracle_energies_validation():
    with pytest.raises(InvalidInput, match=r"^count must be in \[1, 1999\], got 0$"):
        oracle_energies(natural_units(), 0)
    with pytest.raises(InvalidInput, match="^count must be an integer, got True$"):
        oracle_energies(from_b(0.1), True)
    # the count is checked against the operator's dimension before the box
    # is built, so the error names the count and not a level derived from it
    with pytest.raises(InvalidInput, match=r"^count must be in \[1, 1999\], got 1000002$"):
        oracle_energies(natural_units(), 1000002)
    with pytest.raises(InvalidInput, match=r"^count must be in \[1, 3\], got 4$"):
        oracle_energies(natural_units(), 4, points=5)
    with pytest.raises(InvalidInput, match="^points must be odd, got 4$"):
        oracle_energies(natural_units(), 1, points=4)
    for points in (np.array([11]), np.array(11), np.True_):
        with pytest.raises(InvalidInput,
                           match=f"^points must be an integer, got {re.escape(repr(points))}$"):
            oracle_energies(natural_units(), 1, points=points)
    assert np.array_equal(oracle_energies(natural_units(), 2, points=np.int64(11)),
                          oracle_energies(natural_units(), 2, points=11))


def test_oracle_energies_refuse_an_energy_past_the_double_range():
    # b = 1e308 with lam = 1: sqrt(1 + b k^2 / lam) read inf, with a numpy warning
    with pytest.raises(OutOfRange, match=r"^oracle energy sqrt\(1 \+ b k\^2 / lam\) exceeds"):
        oracle_energies(OscillatorParams(1.0, 1.0, 1.0, 1e-154), 5, 201)


@pytest.mark.parametrize("count", [2.5, "2", None, np.array([2]), np.array(2), np.True_])
def test_oracle_energies_refuse_a_count_that_is_not_an_integer(count):
    with pytest.raises(InvalidInput,
                       match=f"^count must be an integer, got {re.escape(repr(count))}$"):
        oracle_energies(from_b(0.1), count)


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
    # one real x: an array is mapped over by profile_effective_potential; NaN
    # and inf were OutOfRange
    for x in (np.array([2.0, 3.0]), [2.0], "2", None, math.nan, math.inf):
        with pytest.raises(InvalidInput,
                           match=f"^x must be a real number, got {re.escape(repr(x))}$"):
            effective_potential(p, 1.0, x)
    assert effective_potential(p, 1.0, np.float32(3.0)) == -11.25
    with pytest.raises(InvalidInput,
                       match="^x must be a real number, got a positive int of 1329 bits$"):
        effective_potential(p, 1.0, 10**400)


@pytest.mark.parametrize("energy", ["a", None, True, [1.0], np.array([1.0]), float("nan"),
                                    np.float64("nan"), float("inf"), -np.inf])
def test_energy_is_a_real_number(energy):
    # a string or None raised a bare TypeError, a NaN was reported as OutOfRange
    rule = f"^energy must be a real number, got {re.escape(repr(energy))}$"
    for call in (lambda: effective_potential(natural_units(), energy, 1.0),
                 lambda: veff_zero_crossing(natural_units(), energy),
                 lambda: profile_effective_potential(natural_units(), energy,
                                                     GridSpec(5.0, 201))):
        with pytest.raises(InvalidInput, match=rule):
            call()


def test_energy_takes_any_real_number():
    p = natural_units()
    assert effective_potential(p, 1, 3.0) == effective_potential(p, np.float32(1.0), 3.0) == -11.25
    with pytest.raises(InvalidInput,
                       match="^energy must be a real number, got a positive int of 1329 bits$"):
        effective_potential(p, 10**400, 1.0)  # a real number, past the double range


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
    v, x = np.asarray(v), np.asarray(grid.nodes())
    # even function: mirrored samples agree exactly
    assert np.all(v[::-1] == v)
    idx = int(np.argmin(np.abs(x - 3.0)))
    assert x[idx] == pytest.approx(3.0, abs=1e-12)
    assert v[idx] == pytest.approx(-11.25, abs=1e-9)
    # the profile is effective_potential at each node, bit for bit: for other
    # constants, a numpy-scalar energy (taken as a Python float, not float32
    # arithmetic) and a grid at the end of the double range
    for p, energy, grid in [
            (OscillatorParams(mass=2.0, omega=3.0, hbar=0.5, c=2.0), 1.7, GridSpec(2.5, 101)),
            (OscillatorParams(mass=0.3, omega=7.0, hbar=1e-3, c=3e8), np.float32(0.7),
             GridSpec(1.0, 41)),
            (from_b(0.01), np.float64(2.0), GridSpec(800.0, 201)),
            (OscillatorParams(mass=1.0, omega=1e-300, hbar=1.0, c=1.0), -1.0,
             GridSpec(5e307, 201)),
            (OscillatorParams(mass=1e-150, omega=1e150, hbar=1e-20, c=1e20), 3.0,
             GridSpec(1e-74, 21))]:
        v, _ = profile_effective_potential(p, energy, grid)
        want = [effective_potential(p, energy, node) for node in grid.nodes()]
        assert [a.hex() for a in v] == [a.hex() for a in want]
        assert {type(a) for a in v} == {float}
    # an overflowing profile raises what its first overflowing node raises
    for p, energy, grid in [(natural_units(), 1e300, GridSpec(1e151, 21)),
                            (OscillatorParams(mass=1e200, omega=1e-200, hbar=1.0, c=1.0), 1.0,
                             GridSpec(1e201, 5))]:
        with pytest.raises(OutOfRange) as first:
            for node in grid.nodes():
                effective_potential(p, energy, node)
        with pytest.raises(OutOfRange, match=f"^{re.escape(str(first.value))}$"):
            profile_effective_potential(p, energy, grid)


def test_profile_requires_grid_beyond_zero():
    with pytest.raises(InvalidInput, match=r"^grid has 0 node\(s\) beyond the potential "
                                           r"zero at 2; at least 2 are needed$"):
        profile_effective_potential(natural_units(), 1.0,
                                    GridSpec(1.0, 51))
    with pytest.raises(InvalidInput, match=r"^grid has 0 node\(s\) beyond the potential "
                                           r"zero at 2; at least 2 are needed$"):
        profile_effective_potential(natural_units(), 1.0,
                                    GridSpec(2.0, 51))
