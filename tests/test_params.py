import math

import pytest

import kgo
from kgo import errors
from kgo.errors import (InvalidInput, KgoError, NonConvergence, OutOfRange,
                        UsageError)
from kgo.params import (MAX_LEVEL, OscillatorParams, check_levels, check_positive,
                        from_b, k_squared, natural_units)
from kgo.specfun import (hermite, hermite_from_kummer_even,
                         hermite_from_kummer_odd)
from kgo.spectrum import energy_combined, energy_second_order
from kgo.wavefn import default_extent, psi


def test_natural_units_fields_and_ratios():
    p = natural_units()
    assert (p.mass, p.omega, p.hbar, p.c) == (1.0, 1.0, 1.0, 1.0)
    assert p.lam == 1.0
    assert p.b == 1.0


def test_from_b_sets_omega_and_b_exactly():
    p = from_b(0.1)
    assert p.omega == 0.1
    assert p.b == 0.1
    assert from_b(1.0) == natural_units()
    assert from_b(0.0001).b == 0.0001


def test_from_b_round_trip_machine_precision():
    for b in (1e-8, 1e-4, 0.001, 0.37, 1.0, 3.5, 1e6):
        assert from_b(b).b == b


def test_from_b_rejects_bad_values():
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidInput, match="^b must be positive and finite"):
            from_b(bad)


def test_params_validation_rejects_nonpositive_fields():
    with pytest.raises(InvalidInput, match="^mass must be positive and finite"):
        OscillatorParams(mass=0.0, omega=1.0)
    with pytest.raises(InvalidInput, match="^omega must be positive and finite"):
        OscillatorParams(mass=1.0, omega=-2.0)
    with pytest.raises(InvalidInput, match="^hbar must be positive and finite"):
        OscillatorParams(mass=1.0, omega=1.0, hbar=float("nan"))
    with pytest.raises(InvalidInput, match="^c must be positive and finite"):
        OscillatorParams(mass=1.0, omega=1.0, c=float("inf"))


def test_k_squared_at_rest_energy_is_zero():
    assert k_squared(natural_units(), 1.0) == 0.0


def test_k_squared_direct_substitution():
    assert math.isclose(k_squared(natural_units(), math.sqrt(3.0)), 2.0,
                        rel_tol=1e-14)


def test_k_squared_matches_table_ground_state():
    # 1.09545 is the tabulated ground-state energy at b = 0.1
    ksq = k_squared(from_b(0.1), 1.09545)
    assert ksq == pytest.approx(1.09545**2 - 1.0, rel=1e-14)
    assert ksq == pytest.approx(0.2, abs=3e-4)


def test_k_squared_monotone_in_energy_magnitude():
    p = from_b(0.5)
    energies = [1.0, 1.1, 1.5, 2.0, 5.0]
    values = [k_squared(p, e) for e in energies]
    assert all(b > a for a, b in zip(values, values[1:]))
    # symmetric in E and negative below the rest energy
    assert k_squared(p, -2.0) == k_squared(p, 2.0)
    assert k_squared(p, 0.5) < 0.0


def test_k_squared_dimensionless_identity():
    # k^2 c^2 hbar^2 / (2 m c^2 hbar w) == (Ebar^2 - 1) / (2 b)
    p = OscillatorParams(mass=2.0, omega=0.7, hbar=1.3, c=2.1)
    for ebar in (1.0001, 1.2, 1.9, 4.0):
        energy = ebar * p.mass * p.c**2
        lhs = k_squared(p, energy) * p.c**2 * p.hbar**2 / (
            2.0 * p.mass * p.c**2 * p.hbar * p.omega)
        rhs = (ebar**2 - 1.0) / (2.0 * p.b)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_check_positive_returns_float_or_names_the_parameter():
    assert check_positive("lam", 2) == 2.0 and type(check_positive("lam", 2)) is float
    assert check_positive("b", 5e-324) == 5e-324
    for bad in (0.0, -1.0, float("inf"), float("nan"), "1.0", None):
        with pytest.raises(InvalidInput, match="^tol must be positive"):
            check_positive("tol", bad)
    for lam in (0.0, -1.0):  # a library caller names its own parameter
        with pytest.raises(InvalidInput, match="^lam must be positive"):
            default_extent(0, lam)


def test_one_error_class_per_failure_kind():
    kinds = {name: cls for name, cls in vars(errors).items() if isinstance(cls, type)}
    assert kinds == {"KgoError": KgoError, "InvalidInput": InvalidInput,
                     "OutOfRange": OutOfRange, "NonConvergence": NonConvergence,
                     "UsageError": UsageError}
    assert KgoError.__bases__ == (Exception,)
    assert InvalidInput.__bases__ == (KgoError, ValueError)
    assert OutOfRange.__bases__ == (KgoError, OverflowError)
    assert NonConvergence.__bases__ == (KgoError, ArithmeticError)
    assert UsageError.__bases__ == (KgoError,)
    exported = {getattr(kgo, name) for name in kgo.__all__}
    assert {cls for cls in exported if isinstance(cls, type)
            and issubclass(cls, Exception)} == set(kinds.values())


def test_params_are_immutable():
    p = natural_units()
    with pytest.raises(AttributeError):
        p.mass = 2.0


# numpy holds an integer past 64 bits in an object array; it is still a level
@pytest.mark.parametrize("n", [-1, MAX_LEVEL + 1, 10**20, -10**20])
@pytest.mark.parametrize("call", [
    lambda n: energy_combined(n, 0.1),
    lambda n: energy_second_order(n, 0.1),
    lambda n: psi(n, 0.5, 1.0),
    lambda n: hermite(n, 0.5),
    lambda n: hermite_from_kummer_even(n, 0.5),
    lambda n: hermite_from_kummer_odd(n, 0.5),
    lambda n: default_extent(n, 1.0),
], ids=["energy_combined", "energy_second_order", "psi", "hermite",
        "hermite_from_kummer_even", "hermite_from_kummer_odd", "default_extent"])
def test_every_level_taking_function_rejects_levels_outside_the_range(call, n):
    with pytest.raises(InvalidInput, match=rf"must be in \[0, {MAX_LEVEL}\], got {n}$"):
        call(n)


def test_check_levels_reports_the_first_level_past_64_bits_in_an_array():
    with pytest.raises(InvalidInput,
                       match=rf"^level index must be in \[0, {MAX_LEVEL}\], got {2**64}$"):
        check_levels([3, 2**64, 10**20])


@pytest.mark.parametrize("n", [1.0, True, None, "3", [1, 10**20, 2.5]])
def test_check_levels_rejects_non_integers(n):
    with pytest.raises(InvalidInput, match="^level index must be an integer"):
        check_levels(n)
