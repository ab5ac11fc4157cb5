import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgo import spectrum
from kgo.errors import MAX_LEVEL, InvalidInput, OutOfRange, check_integer
from kgo.spectrum import (binding_energy, binding_second_order, combined_index,
                          energy_combined, energy_second_order, generate_table)


def family_energy(n, parity, b):
    """Level n of a parity family, by the CLI's path: combined_index, then the law."""
    return energy_combined(combined_index(n, parity), b)


def test_even_family_direct_values():
    assert family_energy(0, "even", 0.1) == pytest.approx(math.sqrt(1.1), rel=1e-15)
    assert family_energy(0, "even", 0.1) == pytest.approx(1.048809, abs=1e-6)
    assert family_energy(1, "even", 0.1) == pytest.approx(math.sqrt(1.5), rel=1e-15)
    # rest-energy limit
    assert family_energy(0, "even", 1e-15) == pytest.approx(1.0, abs=1e-14)


def test_odd_family_direct_values():
    assert family_energy(0, "odd", 0.1) == pytest.approx(math.sqrt(1.3), rel=1e-15)
    assert family_energy(1, "odd", 0.1) == pytest.approx(math.sqrt(1.7), rel=1e-15)
    assert family_energy(3, "odd", 1e-15) == pytest.approx(1.0, abs=1e-13)


def test_energy_combined_direct_values():
    assert energy_combined(0, 0.1) == pytest.approx(math.sqrt(1.1), rel=1e-15)
    assert energy_combined(99, 0.0001) == pytest.approx(1.009901, abs=1e-6)
    assert energy_combined(7, 1e-15) == pytest.approx(1.0, abs=1e-13)


def test_interleaving_is_exact():
    for b in (1e-4, 1e-3, 0.1, 1.0):
        for k in range(51):
            assert family_energy(k, "even", b) == energy_combined(2 * k, b)
            assert family_energy(k, "odd", b) == energy_combined(2 * k + 1, b)


def test_parity_families_bound_their_own_index():
    # each family's last level is the combined law's last, MAX_LEVEL = 10**6
    assert family_energy(500000, "even", 0.1) == energy_combined(10**6, 0.1)
    assert family_energy(499999, "odd", 0.1) == energy_combined(10**6 - 1, 0.1)
    with pytest.raises(InvalidInput,
                       match=r"^odd level index must be in \[0, 499999\], got 500000$"):
        family_energy(500000, "odd", 0.1)
    with pytest.raises(InvalidInput,
                       match=r"^even level index must be in \[0, 500000\], got 500001$"):
        family_energy(500001, "even", 0.1)
    # an array is no level: this one used to come back as array([4])
    with pytest.raises(InvalidInput,
                       match=r"^even level index must be an integer, got array\(\[2\]\)$"):
        combined_index(np.array([2]), "even")


def test_combined_index_rejects_an_unknown_parity():
    with pytest.raises(InvalidInput, match=r"^parity must be one of \('even', 'odd', "
                                           r"'combined'\), got 'bogus'$"):
        combined_index(1, "bogus")
    assert [combined_index(3, p) for p in ("even", "odd", "combined")] == [6, 7, 3]


def test_monotone_compression():
    for b in (1e-4, 0.1, 1.0):
        energies = [energy_combined(n, b) for n in range(1002)]
        gaps = [e2 - e1 for e1, e2 in zip(energies, energies[1:])]
        assert all(g > 0.0 for g in gaps)
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_second_order_direct_values():
    assert energy_second_order(0, 0.1) == pytest.approx(1.04875, rel=1e-15)
    assert energy_second_order(0, 0.001) == pytest.approx(1.000499875, rel=1e-12)
    assert energy_second_order(5, 1e-15) == pytest.approx(1.0, abs=1e-13)


def test_second_order_remainder_bound():
    # Taylor remainder of sqrt(1+x): |exact - expansion| <= (1/2) (b(n+1/2))^3
    for b in (1e-4, 1e-3, 1e-2):
        for n in range(31):
            diff = abs(energy_second_order(n, b) - energy_combined(n, b))
            assert diff <= 0.5 * (b * (n + 0.5)) ** 3, (n, b)


def test_binding_energy_of_numpy_scalars_is_a_python_float_computed_in_double():
    # a float32 b used to be used as given: binding_energy(3, np.float32(0.1))
    # was np.float32(0.3038405), while energy_combined gave a float
    for n, b in ((3, np.float32(0.1)), (np.int64(3), np.float64(0.1)), (3, np.float16(1e-3))):
        got = binding_energy(n, b)
        assert type(got) is float and type(energy_combined(n, b)) is float
        assert got == binding_energy(3, float(b))


def test_binding_energy_small_b_limit():
    assert binding_energy(0, 1e-6) / 1e-6 == pytest.approx(0.5, abs=1e-6)
    assert binding_energy(3, 1e-6) / 1e-6 == pytest.approx(3.5, abs=1e-5)
    assert binding_energy(5, 1e-12) == pytest.approx(0.0, abs=1e-11)
    assert _binding_rel_error(4, 0.01) <= 1e-15


def _binding_rel_error(n, b):
    """Relative error of binding_energy(n, b) against 50-digit mpmath."""
    with mpmath.workdps(50):
        want = mpmath.sqrt(1 + 2 * mpmath.mpf(b) * (n + mpmath.mpf(0.5))) - 1
        return float(abs(binding_energy(n, b) - want) / want)


@pytest.mark.parametrize("b", [1e-10, 1e-12, 1e-15, 1e-17])
def test_binding_energy_has_no_cancellation_at_small_b(b):
    # Ebar - 1 loses every digit as b -> 0; the binding energy must not
    for n in (0, 1, 7, 100, 10**6):
        assert _binding_rel_error(n, b) <= 1e-15, (n, b)


@pytest.mark.parametrize("b", [1e-10, 1e-12, 1e-15, 1e-17])
def test_second_order_binding_has_no_cancellation_at_small_b(b):
    # energy_second_order - 1 printed 0 at b = 1e-17; the direct sum keeps every digit
    for n in (0, 3):
        with mpmath.workdps(50):
            bs = mpmath.mpf(b) * (n + mpmath.mpf(0.5))
            want = bs - bs ** 2 / 2
            error = float(abs(binding_second_order(n, b) - want) / want)
        assert error <= 1.1e-16, (n, b, error)


def test_binding_energy_quanta_ratio_tends_to_half_integers():
    # the leading correction is -b (n+1/2)^2 / 2, so the ratio converges
    for n in range(4):
        dev_coarse = abs(binding_energy(n, 1e-6) / 1e-6 - (n + 0.5))
        dev_fine = abs(binding_energy(n, 1e-8) / 1e-8 - (n + 0.5))
        assert dev_fine < dev_coarse or dev_coarse < 1e-12


def test_square_form_identity():
    for b in (0.1, 1.0):
        for n in range(51):
            lhs = energy_combined(n, b) ** 2 - 1.0
            rhs = 2.0 * b * (n + 0.5)
            assert abs(lhs - rhs) <= 1e-14 * rhs, (n, b)


def _table_row(n, b):
    """(e_rel, e_nr_plus_one) of the one-row table-law table at (n, b)."""
    (e_rel,), (e_nr_plus_one,) = generate_table([b], [n], "table")
    return e_rel, e_nr_plus_one


def test_table_row_values():
    e_rel, e_nr_plus_one = _table_row(0, 0.1)
    assert e_rel == pytest.approx(math.sqrt(1.2), rel=1e-15)
    assert f"{e_rel:.5f}" == "1.09545"
    assert e_nr_plus_one == pytest.approx(1.05, rel=1e-15)

    e_rel, e_nr_plus_one = _table_row(3, 0.1)
    assert f"{e_rel:.5f}" == "1.34164"
    assert e_nr_plus_one == pytest.approx(1.35, rel=1e-15)

    e_rel, e_nr_plus_one = _table_row(100, 0.0001)
    assert f"{e_rel:.5f}" == "1.01005"
    assert f"{e_nr_plus_one:.5f}" == "1.01005"


def test_table_row_first_order_column_identity():
    # e_nr_plus_one - 1 == b (n + 1/2) to within one rounding of the sum
    for b in (1e-4, 1e-3, 0.1, 1.0):
        for n in (0, 1, 5, 31, 100):
            _, e_nr_plus_one = _table_row(n, b)
            want = b * (n + 0.5)
            assert abs((e_nr_plus_one - 1.0) - want) <= 2.3e-16 * (1.0 + want)


def test_generate_table_matches_reference_column():
    printed = ["1.001", "1.002", "1.003", "1.00399", "1.00499", "1.00598",
               "1.00698", "1.00797", "1.00896", "1.00995"]
    e_rel_column, _ = generate_table([0.001], range(10), formula="table")
    for n, e_rel, want in zip(range(10), e_rel_column, printed):
        decimals = len(want.split(".")[1])
        assert f"{e_rel:.{decimals}f}" == want, n


def test_generate_table_eq21_single_row():
    e_rel, _ = generate_table([0.1], [0], formula="eq21")
    assert len(e_rel) == 1
    assert e_rel[0] == pytest.approx(1.048809, abs=1e-6)


def test_generate_table_row_order_is_n_major():
    e_rel, e_nr_plus_one = generate_table([0.1, 0.001], [0, 1], formula="table")
    pairs = [(0, 0.1), (0, 0.001), (1, 0.1), (1, 0.001)]
    assert np.asarray(e_rel).tolist() == [math.sqrt(1 + 2 * b * (n + 1)) for n, b in pairs]
    assert np.asarray(e_nr_plus_one).tolist() == [1 + b * (n + 0.5) for n, b in pairs]


def test_generate_table_columns_equal_scalar_values_bit_for_bit():
    b_values = [1e-8, 1e-4, 0.001, 0.37, 1.0, 3.5, 1e6]
    n_values = [0, 1, 2, 7, 31, 100, 999, 12345, 10**6]
    eq21_rel, eq21_first = generate_table(b_values, n_values, formula="eq21")
    table_rel, table_first = generate_table(b_values, n_values, formula="table")
    pairs = [(n, b) for n in n_values for b in b_values]
    assert np.asarray(eq21_rel).tolist() == [energy_combined(n, b) for n, b in pairs]
    assert np.asarray(table_rel).tolist() == [math.sqrt(1.0 + 2.0 * b * (n + 1.0))
                                              for n, b in pairs]
    firsts = [1.0 + b * (n + 0.5) for n, b in pairs]
    assert np.asarray(eq21_first).tolist() == firsts == np.asarray(table_first).tolist()


# a scalar energy is a one-cell table of the same law: the two must agree
# in every bit
@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(n=st.integers(0, MAX_LEVEL), log_b=st.floats(-300.0, 300.0))
def test_scalar_energies_equal_their_table_cell_bit_for_bit(n, log_b):
    b = 10.0 ** log_b
    cell = generate_table([b], [n])[0][0]
    family = family_energy(n // 2, "odd" if n % 2 else "even", b)
    assert energy_combined(n, b).hex() == family.hex() == float(cell).hex()


def test_generate_table_rejects_levels_that_are_not_one_dimensional():
    # a nested list used to give one row per entry; each level is checked
    # alone, so the first nested one is named
    for n_values, level in (([[1, 2]], "[1, 2]"), ([[0], [1]], "[0]"),
                            ([[[0]]], "[[0]]")):
        with pytest.raises(InvalidInput,
                           match=rf"^level index must be an integer, got {re.escape(level)}$"):
            generate_table([0.1], n_values)


def test_generate_table_rejects_ragged_levels():
    # numpy's own ValueError ("inhomogeneous shape") escaped
    with pytest.raises(InvalidInput,
                       match=r"^level index must be an integer, got \[1\]$"):
        generate_table([0.1], [[1], [2, 3]])


def test_generate_table_rejects_empty_inputs():
    # a bare number in place of a sequence raised a bare TypeError
    for b_values, n_values in (([], [0, 1]), ([0.1], []), ([0.1], 5), (0.1, [1]), (None, [1]),
                               ([0.1], np.array(3)), (0.1, 5)):
        with pytest.raises(InvalidInput,
                           match="^b_values and n_values must both be non-empty sequences$"):
            generate_table(b_values, n_values)


def test_generate_table_checks_a_range_by_its_ends():
    # a range of levels, as kgo table passes, was checked one level at a time
    for levels in (range(4096), range(MAX_LEVEL - 3, MAX_LEVEL + 1), range(9, -1, -3)):
        expected = generate_table([0.1, 1e-3], list(levels))
        with mock.patch.object(spectrum, "check_integer", side_effect=check_integer) as check:
            assert generate_table([0.1, 1e-3], levels) == expected
        assert check.call_count == 0


@pytest.mark.parametrize("levels, got", [
    (range(MAX_LEVEL - 2, MAX_LEVEL + 3), MAX_LEVEL + 1),
    (range(0, MAX_LEVEL + 10, 7), 7 * (MAX_LEVEL // 7 + 1)),
    (range(-2, 3), -2),
    (range(3, -2, -1), -1),
])
def test_generate_table_refuses_a_range_past_its_levels_at_its_first_bad_level(levels, got):
    with pytest.raises(InvalidInput, match=rf"^level index must be in \[0, {MAX_LEVEL}\], "
                                           rf"got {got}$"):
        generate_table([0.1], levels)


@pytest.mark.parametrize("levels", [range(0), range(5, 5), range(3, 0)])
def test_generate_table_refuses_an_empty_range(levels):
    with pytest.raises(InvalidInput,
                       match="^b_values and n_values must both be non-empty sequences$"):
        generate_table([0.1], levels)


def test_generate_table_rejects_unknown_formula():
    with pytest.raises(InvalidInput,
                       match=r"^formula must be one of \('eq21', 'table'\), got 'bogus'$"):
        generate_table([0.1], [0], formula="bogus")


def test_parameter_validation():
    with pytest.raises(InvalidInput, match="^b must be positive and finite, got 0.0$"):
        energy_combined(0, 0.0)
    with pytest.raises(InvalidInput, match="^b must be positive and finite, got -0.5$"):
        energy_combined(0, -0.5)
    with pytest.raises(InvalidInput, match=r"^level index must be in \[0, 1000000\], got -1$"):
        energy_combined(-1, 0.1)
    with pytest.raises(InvalidInput,
                       match=r"^level index must be in \[0, 1000000\], got 1000001$"):
        energy_combined(10**6 + 1, 0.1)
    with pytest.raises(InvalidInput, match="^b must be positive and finite, got nan$"):
        energy_second_order(0, float("nan"))
    # a table checks each level by the scalar rule and names the first that
    # breaks it
    for levels in ([2.5, 0], [0, 2.5]):
        with pytest.raises(InvalidInput, match=r"^level index must be an integer, got 2\.5$"):
            generate_table([0.1], levels)
    with pytest.raises(InvalidInput, match="^level index must be an integer, got None$"):
        generate_table([0.1], [0, None])
    with pytest.raises(InvalidInput, match=r"^level index must be in \[0, 1000000\], got -1$"):
        generate_table([0.1], np.array([0, -1, 10**7]))
    assert np.array_equal(generate_table([0.1], np.array([2, 0], dtype=object))[0],
                          generate_table([0.1], [2, 0])[0])


def test_energy_law_guards_bound_state_range():
    # bound-state energies are finite and at least the rest energy; a law
    # that leaves double range is an error, never an inf or a bare ValueError
    assert energy_combined(0, 5e-324) == 1.0
    assert energy_combined(10**6, 1e300) > 1.0
    with pytest.raises(OutOfRange):
        energy_combined(10**6, 1e308)
    with pytest.raises(OutOfRange):
        family_energy(0, "even", 1e308)
    with pytest.raises(OutOfRange):
        generate_table([1e308], [2], "table")
    with pytest.raises(OutOfRange):
        generate_table([0.1, 1e308], range(3))
    with pytest.raises(OutOfRange):
        generate_table([1e308], [0], formula="table")
    with pytest.raises(OutOfRange):
        energy_second_order(3, 1e300)
    with pytest.raises(OutOfRange):
        energy_second_order(10**6, 1e308)
