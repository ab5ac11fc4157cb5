"""Acceptance gate: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Two checks are strict expected failures; each carries the
numerical analysis of why its target is unattainable in its reason string.
"""

import math
import time

import pytest

from kgo.cli import main
from kgo.oracle import (discretize_weber, effective_potential,
                        lowest_eigenvalues, profile_effective_potential)
from kgo.params import natural_units
from kgo.specfun import (hermite, hermite_from_kummer_even,
                         hermite_from_kummer_odd)
from kgo.spectrum import (binding_energy, energy_combined,
                          energy_second_order, generate_table)
from kgo.wavefn import GridSpec, inner_product, sample

# Reference table, transcribed cell by cell: n -> (e_rel, e_nr_plus_one)
# strings at their printed precision.  The n = 31, b = 0.0001 row is kept
# separate: both of its printed values are inconsistent with the laws every
# other row follows (see test_c1_anomalous_reference_row).
REFERENCE_TABLE = {
    0.1: {
        0: ("1.09545", "1.05"), 1: ("1.18322", "1.15"),
        2: ("1.26491", "1.25"), 3: ("1.34164", "1.35"),
    },
    0.001: {
        0: ("1.001", "1.0005"), 1: ("1.002", "1.0015"), 2: ("1.003", "1.0025"),
        3: ("1.00399", "1.0035"), 4: ("1.00499", "1.0045"),
        5: ("1.00598", "1.0055"), 6: ("1.00698", "1.0065"),
        7: ("1.00797", "1.0075"), 8: ("1.00896", "1.0085"),
        9: ("1.00995", "1.0095"), 10: ("1.01094", "1.0105"),
        20: ("1.02078", "1.0205"), 30: ("1.03053", "1.0305"),
        31: ("1.03150", "1.0315"),
    },
    0.0001: {
        0: ("1.0001", "1.00005"), 1: ("1.0002", "1.00015"),
        2: ("1.0003", "1.00025"), 3: ("1.0004", "1.00035"),
        4: ("1.0005", "1.00045"), 5: ("1.0006", "1.00055"),
        6: ("1.0007", "1.00065"), 7: ("1.0008", "1.00075"),
        8: ("1.0009", "1.00085"), 9: ("1.0010", "1.00095"),
        10: ("1.0011", "1.00105"), 20: ("1.0021", "1.00205"),
        30: ("1.0031", "1.00305"), 50: ("1.00509", "1.00505"),
        70: ("1.00707", "1.00705"), 80: ("1.00807", "1.00805"),
        90: ("1.00906", "1.00905"), 100: ("1.01005", "1.01005"),
    },
}

ANOMALOUS_ROW = {0.0001: {31: ("1.00315", "1.00310")}}


def _run_table_cli(capsys):
    argv = ["table", "--b", "0.1,0.001,0.0001", "--n-max", "100",
            "--formula", "table", "--decimals", "5"]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    cells = {}
    for line in out.splitlines()[1:]:
        if line.startswith("#"):
            continue
        n, b, e_rel, e_nr = line.split(",")
        cells[(int(n), float(b))] = (float(e_rel), float(e_nr))
    return cells, elapsed


def _assert_cells_match(cells, reference):
    for b, rows in reference.items():
        for n, (want_rel, want_nr) in rows.items():
            got_rel, got_nr = cells[(n, b)]
            d_rel = len(want_rel.split(".")[1])
            d_nr = len(want_nr.split(".")[1])
            assert f"{got_rel:.{d_rel}f}" == want_rel, ("e_rel", n, b)
            assert f"{got_nr:.{d_nr}f}" == want_nr, ("e_nr_plus_one", n, b)


def test_c1_table_reproduction(capsys):
    cells, elapsed = _run_table_cli(capsys)
    _assert_cells_match(cells, REFERENCE_TABLE)
    assert sum(len(rows) for rows in REFERENCE_TABLE.values()) == 36
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="reference row n=31, b=0.0001 prints (1.00315, 1.00310); the laws "
           "every other row follows give sqrt(1 + 0.0002*32) -> 1.00319 and "
           "1 + 0.0001*31.5 = 1.00315 exactly, so no single-formula generator "
           "can reproduce this printed row")
def test_c1_anomalous_reference_row(capsys):
    cells, _ = _run_table_cli(capsys)
    _assert_cells_match(cells, ANOMALOUS_ROW)


def test_c2_discrepancy_documented(capsys):
    # the derived law and the tabulated law disagree visibly at n=0, b=0.1
    assert abs(energy_combined(0, 0.1) - 1.04881) <= 5e-6
    assert f"{generate_table([0.1], [0], 'table')[0][0]:.5f}" == "1.09545"

    code = main(["table", "--b", "0.1", "--n-max", "0", "--formula", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert any(line.startswith("#") for line in out.splitlines())

    code = main(["table", "--b", "0.1", "--n-max", "0", "--formula", "eq21"])
    out = capsys.readouterr().out
    assert code == 0
    assert not any(line.startswith("#") for line in out.splitlines())


def test_c3_oracle_adjudication():
    start = time.perf_counter()
    op = discretize_weber(1.0, GridSpec(10.0, 2001))
    results = lowest_eigenvalues(op, 5, tol=1e-10)
    elapsed = time.perf_counter() - start

    for n, k_squared in enumerate(results):
        half_integer_law = 2.0 * n + 1.0          # k^2 = 2 lam (n + 1/2)
        integer_law = 2.0 * n + 2.0               # k^2 = 2 lam (n + 1)
        assert abs(k_squared - half_integer_law) / half_integer_law < 1e-3
        # the nearest integer-law candidate sits 1/(2n+2) away relatively,
        # 0.1 at n = 4; anything past 0.05 rules it out decisively
        assert abs(k_squared - integer_law) / integer_law > 0.05
    assert elapsed < 10.0


def test_c4_convergence_order():
    exact = 1.0
    coarse = lowest_eigenvalues(
        discretize_weber(1.0, GridSpec(10.0, 1001)), 1,
        tol=1e-12)[0]
    fine = lowest_eigenvalues(
        discretize_weber(1.0, GridSpec(10.0, 2001)), 1,
        tol=1e-12)[0]
    ratio = abs(coarse - exact) / abs(fine - exact)
    assert 3.5 <= ratio <= 4.5


def test_c5_orthonormality():
    grid = GridSpec(11.0, 1601)
    states = [sample(n, grid, 1.0) for n in range(11)]
    for i in range(11):
        for j in range(11):
            want = 1.0 if i == j else 0.0
            got = inner_product(grid, states[i], states[j])
            assert abs(got - want) <= 1e-7, (i, j)


def test_c6_hermite_kummer_bridge():
    xs = [-3.0 + 0.25 * i for i in range(25)]
    assert len(xs) == 25 and xs[0] == -3.0 and xs[-1] == 3.0
    for n in range(11):
        for xi in xs:
            even = hermite_from_kummer_even(n, xi)
            assert math.isclose(even, hermite(2 * n, xi),
                                rel_tol=1e-10, abs_tol=1e-12), ("even", n, xi)
            # corrected odd identity: index 2n+1 with the explicit xi factor
            odd = hermite_from_kummer_odd(n, xi)
            assert math.isclose(odd, hermite(2 * n + 1, xi),
                                rel_tol=1e-10, abs_tol=1e-12), ("odd", n, xi)


@pytest.mark.xfail(
    strict=True,
    reason="binding_energy(n, b)/b - (n + 1/2) equals -b(n + 1/2)^2/2 + O(b^2) "
           "exactly, i.e. 1.25e-7, 1.125e-6, 3.125e-6, 6.125e-6 at b = 1e-6 "
           "for n = 0..3; the 1e-6 target is therefore unattainable for "
           "n >= 1 (the per-level operation examples use 1e-5 there, which "
           "passes and is asserted in test_spectrum.py)")
def test_c7_nonrelativistic_limit():
    b = 1e-6
    for n in range(4):
        assert abs(binding_energy(n, b) / b - (n + 0.5)) <= 1e-6, n


def test_c8_expansion_remainder():
    for b in (1e-4, 1e-3, 1e-2):
        for n in range(31):
            diff = abs(energy_second_order(n, b) - energy_combined(n, b))
            assert diff <= 0.5 * (b * (n + 0.5)) ** 3, (n, b)


def test_c9_unboundedness_demonstration():
    params = natural_units()
    _, unbounded_below = profile_effective_potential(params, 1.0,
                                                     GridSpec(5.0, 501))
    assert unbounded_below is True
    assert abs(effective_potential(params, 1.0, 3.0) - (-11.25)) <= 1e-12
