import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgo
from kgo import errors
from kgo.errors import (InvalidInput, KgoError, NonConvergence, OutOfRange,
                        UsageError)
from kgo.oracle import oracle_energies
from kgo.params import (MAX_LEVEL, OscillatorParams, check_integer, check_positive,
                        from_b, natural_units)
from kgo.specfun import (hermite, hermite_from_kummer_even,
                         hermite_from_kummer_odd)
from kgo.spectrum import (combined_index, energy_combined, energy_second_order,
                          generate_table)
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


def test_lam_that_overflows_is_refused_under_its_own_name():
    # lam read inf, and the oracle then blamed an input: "lam must be positive
    # and finite, got inf"
    p = OscillatorParams(mass=1e200, omega=1e200, hbar=1e-200, c=1e-200)
    with pytest.raises(OutOfRange, match=r"^lam = m omega / hbar exceeds the floating-point range$"):
        p.lam


def test_b_that_overflows_is_refused_under_its_own_name():
    # c**2 raised a bare OverflowError
    p = OscillatorParams(mass=1e-200, omega=1e-200, hbar=1e-200, c=1e200)
    with pytest.raises(OutOfRange, match=r"^b = hbar omega / \(m c\^2\) exceeds the floating-point range$"):
        p.b


@pytest.mark.parametrize("params, name, what", [
    (OscillatorParams(1e-200, 1e-200), "lam", r"lam = m omega / hbar"),
    (OscillatorParams(1e200, 1e-200), "b", r"b = hbar omega / \(m c\^2\)"),
], ids=["lam", "b"])
def test_a_ratio_that_underflows_is_refused_under_its_own_name(params, name, what):
    # it read 0.0, and the oracle then blamed an input: "lam must be positive
    # and finite, got 0.0"
    with pytest.raises(InvalidInput, match=rf"^{what} must be positive and finite, got 0.0$"):
        getattr(params, name)
    with pytest.raises(InvalidInput, match=rf"^{what} must be positive and finite"):
        oracle_energies(params, 1)


def test_check_positive_returns_float_or_names_the_parameter():
    assert check_positive("lam", 2) == 2.0 and type(check_positive("lam", 2)) is float
    assert check_positive("b", 5e-324) == 5e-324
    for bad in (0.0, -1.0, float("inf"), float("nan"), "1.0", None):
        with pytest.raises(InvalidInput, match="^tol must be positive"):
            check_positive("tol", bad)
    for lam in (0.0, -1.0):  # a library caller names its own parameter
        with pytest.raises(InvalidInput, match="^lam must be positive"):
            default_extent(0, lam)


def test_check_positive_takes_numpy_scalars_as_python_floats():
    for value, want in ((np.int64(2), 2.0), (np.float32(0.5), 0.5)):
        got = check_positive("lam", value)
        assert got == want and type(got) is float
    assert from_b(np.float32(0.1)).b == float(np.float32(0.1))
    assert type(from_b(np.float64(0.1)).omega) is float


def test_check_positive_rejects_booleans_like_check_integer():
    for flag in (True, False, np.True_):
        with pytest.raises(InvalidInput, match="^lam must be positive and finite, got "):
            check_positive("lam", flag)
        with pytest.raises(InvalidInput, match="^level index must be an integer"):
            check_integer(flag, "level index", 0, MAX_LEVEL)


def test_check_positive_names_an_int_too_large_for_a_float():
    with pytest.raises(InvalidInput, match="^tol must be positive and finite, got 1000"):
        check_positive("tol", 10**400)


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


# numpy holds an integer past 64 bits in an object array; it is still a level.
# An array, even a 0-d or a 1-element one, and a numpy bool are no integer.
_OUTSIDE = (-1, MAX_LEVEL + 1, 10**20, -10**20)


@pytest.mark.parametrize("n, rule", [
    *((n, rf"must be in \[0, {MAX_LEVEL}\], got {n}$") for n in _OUTSIDE),
    *((n, rf"must be an integer, got {re.escape(repr(n))}$")
      for n in (np.array([2]), np.array(2), np.True_)),
], ids=[*map(str, _OUTSIDE), "array", "0d-array", "np.True_"])
@pytest.mark.parametrize("call", [
    lambda n: energy_combined(n, 0.1),
    lambda n: energy_second_order(n, 0.1),
    lambda n: psi(n, 0.5, 1.0),
    lambda n: hermite(n, 0.5),
    lambda n: hermite_from_kummer_even(n, 0.5),
    lambda n: hermite_from_kummer_odd(n, 0.5),
    lambda n: default_extent(n, 1.0),
    lambda n: combined_index(n, "combined"),
], ids=["energy_combined", "energy_second_order", "psi", "hermite",
        "hermite_from_kummer_even", "hermite_from_kummer_odd", "default_extent",
        "combined_index"])
def test_every_level_taking_function_rejects_levels_outside_the_range(call, n, rule):
    with pytest.raises(InvalidInput, match=rule):
        call(n)


def test_generate_table_reports_the_first_level_past_64_bits():
    with pytest.raises(InvalidInput,
                       match=rf"^level index must be in \[0, {MAX_LEVEL}\], got {2**64}$"):
        generate_table([0.1], [3, 2**64, 10**20])


@pytest.mark.parametrize("n", [1.0, True, None, "3", [1, 10**20, 2.5], np.array([2]),
                               np.array(2), np.True_])
def test_check_integer_rejects_non_integers(n):
    with pytest.raises(InvalidInput, match="^level index must be an integer"):
        check_integer(n, "level index", 0, MAX_LEVEL)


def test_package_names_resolve_to_their_submodule_objects():
    for name in kgo.__all__:
        value = getattr(kgo, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        kgo.no_such_name
    # in a fresh interpreter a submodule is still an attribute after `import kgo`
    probe = "import kgo; print(kgo.oracle.DEFAULT_TOL, kgo.wavefn.MAX_POINTS)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "1e-10 1000001\n"


def test_readme_names_only_public_names():
    # a trimmed name must leave the docs too: every `kgo.<name>` in README.md
    # is a public name or a submodule, and the library example imports only
    # public names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    written = set(re.findall(r"\bkgo\.(\w+)", readme))
    assert {"KgoError", "spectrum"} <= written
    for name in written:
        assert name in kgo.__all__ or importlib.util.find_spec(f"kgo.{name}"), name
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    tree = ast.parse(example.split("```", 1)[0])
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "kgo" for alias in node.names}
    assert imported and imported <= set(kgo.__all__)
