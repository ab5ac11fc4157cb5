import ast
import copy
import importlib
import importlib.util
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgo
from kgo import errors
from kgo.errors import (MAX_LEVEL, InvalidInput, KgoError, NonConvergence, OutOfRange,
                        UsageError, check_integer, check_positive, check_real)
from kgo.oracle import (TridiagonalOperator, discretize_weber, effective_potential,
                        lowest_eigenvalues, oracle_energies, profile_effective_potential,
                        sturm_count, veff_zero_crossing)
from kgo.params import GridSpec, OscillatorParams, default_extent, from_b, natural_units
from kgo.specfun import hermite, hermite_from_kummer_even, hermite_from_kummer_odd, kummer_m
from kgo.spectrum import (binding_energy, binding_second_order, combined_index, energy_combined,
                          energy_second_order, generate_table)
from kgo.wavefn import inner_product, psi, sample


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


def test_check_real_returns_a_python_float():
    # it returned the caller's object, so each caller converted it (or computed
    # in float32 when it forgot)
    for value in (np.float32(1.5), np.int64(3), 3):
        got = check_real("x", value)
        assert type(got) is float and got == float(value)
    with pytest.raises(InvalidInput,
                       match="^x must be a real number, got a positive int of 1329 bits$"):
        check_real("x", 10**400)


def test_check_positive_rejects_booleans_like_check_integer():
    for flag in (True, False, np.True_):
        with pytest.raises(InvalidInput, match="^lam must be positive and finite, got "):
            check_positive("lam", flag)
        with pytest.raises(InvalidInput, match="^level index must be an integer"):
            check_integer(flag, "level index", 0, MAX_LEVEL)


def test_check_positive_names_an_int_too_large_for_a_float():
    for value, sign in ((10**400, "positive"), (-10**400, "negative")):
        with pytest.raises(InvalidInput,
                           match=f"^tol must be positive and finite, got a {sign} int of 1329 bits$"):
            check_positive("tol", value)


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


def test_each_input_rule_is_one_function():
    from kgo import cli, helptext, oracle, params, specfun, spectrum, wavefn
    # one type rule, errors.check_instance, for a grid and for an operator
    assert not hasattr(params, "check_grid") and not hasattr(oracle, "_check_operator")
    # one real-number rule: errors alone decides what real number an input is;
    # psi uses is_real only to tell one x from a sequence of them
    assert not hasattr(specfun, "_real_xi")
    modules = (cli, helptext, oracle, params, specfun, spectrum, wavefn)
    assert [m.__name__ for m in modules if hasattr(m, "is_real")] == ["kgo.wavefn"]
    assert [name for name, f in vars(wavefn).items() if getattr(f, "__module__", "") == "kgo.wavefn"
            and "is_real" in getattr(getattr(f, "__code__", None), "co_names", ())] == ["psi"]
    for values in ([1.0, None], None):  # it returned None, and each caller raised
        with pytest.raises(InvalidInput, match="^x must be real numbers, got "):
            errors.real_floats("x", values)
    # a fold block comes only from TridiagonalOperator._block
    with pytest.raises(TypeError, match="_mirror_row"):
        TridiagonalOperator([1.0], 0.0, _mirror_row=True)


def test_params_are_immutable():
    p = natural_units()
    with pytest.raises(AttributeError):
        p.mass = 2.0
    with pytest.raises(AttributeError):
        p.spin = 0.5
    with pytest.raises(AttributeError):
        GridSpec(1.0, 3).points = 5


def test_grid_and_params_keep_their_reprs_and_construction():
    grid = GridSpec(extent=1.0, points=3)
    assert repr(grid) == "GridSpec(extent=1.0, points=3)" and grid == GridSpec(1.0, 3)
    params = OscillatorParams(2.0, 0.5)
    assert repr(params) == "OscillatorParams(mass=2.0, omega=0.5, hbar=1.0, c=1.0)"
    assert params == OscillatorParams(mass=2.0, omega=0.5, hbar=1.0, c=1.0)
    assert (params.lam, params.b) == (1.0, 0.25)
    assert hash(grid) == hash(GridSpec(1.0, 3))
    for value in (grid, params):
        assert copy.copy(value) == copy.deepcopy(value) == value
        assert all(pickle.loads(pickle.dumps(value, protocol)) == value
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
        assert value._make(value) == value._replace() == value


@pytest.mark.parametrize("build, rule", [
    (lambda: GridSpec(1.0, 3)._replace(points=4), "^points must be odd, got 4$"),
    (lambda: GridSpec._make([1.0, 4]), "^points must be odd, got 4$"),
    (lambda: GridSpec(1.0, 3)._replace(extent=-1.0),
     r"^grid extent must be positive and finite, got -1.0$"),
    (lambda: natural_units()._replace(c=0.0), "^c must be positive and finite, got 0.0$"),
    (lambda: OscillatorParams._make([1.0, float("nan"), 1.0, 1.0]),
     "^omega must be positive and finite, got nan$"),
    (lambda: copy.copy(tuple.__new__(GridSpec, (1.0, 4))), "^points must be odd, got 4$"),
    (lambda: pickle.loads(pickle.dumps(tuple.__new__(OscillatorParams, (1.0, 1.0, -1.0, 1.0)))),
     "^hbar must be positive and finite, got -1.0$"),
], ids=["grid _replace", "grid _make", "grid extent", "params _replace", "params _make",
        "copy", "pickle"])
def test_every_construction_path_checks_its_fields(build, rule):
    # a namedtuple's _make and _replace skip __new__; these construct through it
    with pytest.raises(InvalidInput, match=rule):
        build()


@pytest.mark.parametrize("call", [
    lambda grid: discretize_weber(1.0, grid),
    lambda grid: sample(0, grid, 1.0),
    lambda grid: inner_product(grid, [1.0] * 3, [1.0] * 3),
    lambda grid: profile_effective_potential(natural_units(), 1.0, grid),
], ids=["discretize_weber", "sample", "inner_product", "profile_effective_potential"])
@pytest.mark.parametrize("grid", ["g", None, (1.0, 3)])
def test_every_grid_taking_function_refuses_a_non_grid(call, grid):
    # discretize_weber raised a bare AttributeError
    with pytest.raises(InvalidInput, match=f"^grid must be a GridSpec, got {re.escape(repr(grid))}$"):
        call(grid)


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


def _grid_fields(grid):
    return grid, grid.spacing, grid.nodes()


def _params_fields(params):
    return params, params.lam, params.b


@pytest.mark.parametrize("call", [
    lambda v: _grid_fields(GridSpec(v, 7)),
    lambda v: _params_fields(OscillatorParams(v, v, v, v)),
    lambda v: _params_fields(from_b(v)),
    lambda v: default_extent(3, v),
    lambda v: [psi(3, v, v), psi(3, [v, -v], 1.0)],
    lambda v: sample(3, GridSpec(v, 7), v),
    lambda v: inner_product(GridSpec(v, 7), [v] * 7, [1.0] * 7),
    lambda v: effective_potential(OscillatorParams(v, v), v, v),
    lambda v: veff_zero_crossing(OscillatorParams(v, v), v),
    lambda v: profile_effective_potential(OscillatorParams(v, v), v, GridSpec(5.0, 21)),
    lambda v: [energy_combined(3, v), energy_second_order(3, v), binding_second_order(3, v),
               binding_energy(3, v)],
    lambda v: [generate_table([v, 0.5], range(3), formula) for formula in ("eq21", "table")],
    lambda v: [lowest_eigenvalues(discretize_weber(1.0, GridSpec(4.0, 41)), 3, v),
               oracle_energies(OscillatorParams(v, v), 2, 41, v)],
    lambda v: discretize_weber(v, GridSpec(v, 7)).diagonal,
    lambda v: [(op := TridiagonalOperator([v, 3.0, v], v)).diagonal, op.off_diagonal,
               sturm_count(op, v)],
    lambda v: [hermite(3, v), kummer_m(-2, v, v), hermite_from_kummer_even(2, v),
               hermite_from_kummer_odd(2, v)],
], ids=["GridSpec", "OscillatorParams", "from_b", "default_extent", "psi", "sample",
        "inner_product", "effective_potential", "veff_zero_crossing",
        "profile_effective_potential", "energy_laws", "generate_table", "tol",
        "discretize_weber", "TridiagonalOperator", "specfun"])
@pytest.mark.parametrize("value", [np.float32(1.1), np.float16(1.1), np.int64(2)],
                         ids=["float32", "float16", "int64"])
def test_numpy_scalars_give_the_python_floats_of_their_values(call, value):
    # a float32 extent or mass was stored as given, so psi, the quadrature
    # and V_eff ran in single precision; V_eff took its energy as given too
    def plain(result):
        return (all(map(plain, result)) if isinstance(result, (tuple, list))
                else type(result) in (float, int, bool))

    got = call(value)
    assert plain(got), got
    assert got == call(float(value))


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
    probe = "import kgo; print(kgo.oracle.BISECTION_MAX_ITER, kgo.wavefn.psi.__name__)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "200 psi\n"


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


def unused_kgo_imports(source):
    """The names a module's source imports from kgo (a relative import or one
    from kgo itself) and never reads, in the order ast.walk meets them."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").partition(".")[0] == "kgo")
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_kgo_module_imports_a_kgo_name_it_never_uses():
    # each name has one import path: the module that defines it
    src = Path(kgo.__file__).parent
    unused = {path.name: unused_kgo_imports(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_import_guard_names_what_a_module_imports_and_never_reads():
    source = ("import math\nfrom . import spectrum\nfrom .errors import MAX_LEVEL, check_integer\n"
              "from kgo.params import GridSpec as Grid\n\n"
              "def f(n: int) -> float:\n    from .wavefn import psi\n"
              "    return math.pi * check_integer(n)\n")
    assert unused_kgo_imports(source) == ["spectrum", "MAX_LEVEL", "Grid", "psi"]
