"""The library contract: every call of a public name returns finite values or
raises one KgoError, and a refused input is InvalidInput whatever function
it is given to.  OutOfRange is left for computed results.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgo
from kgo import (GridSpec, InvalidInput, KgoError, OscillatorParams, OutOfRange,
                 TridiagonalOperator, default_extent, discretize_weber,
                 effective_potential, from_b, generate_table, hermite, hermite_from_kummer_even,
                 inner_product, kummer_m, lowest_eigenvalues, natural_units, oracle_energies,
                 psi, sample, sturm_count)
from kgo.spectrum import combined_index

BIG = 10**5000  # str() of it raises ValueError: more than 4300 digits
_OP = TridiagonalOperator([2.0, 2.0, 2.0], -1.0)
_GRID = GridSpec(4.0, 21)


@pytest.mark.parametrize("call", [
    lambda: psi(BIG, 0.5, 1.0), lambda: psi(0, BIG, 1.0), lambda: psi(0, 0.5, BIG),
    lambda: sample(BIG, _GRID, 1.0), lambda: sample(0, _GRID, BIG),
    *(lambda f=f: f(BIG, 0.1) for f in (kgo.energy_combined, kgo.energy_second_order,
                                         kgo.binding_energy, kgo.binding_second_order)),
    *(lambda f=f: f(0, BIG) for f in (kgo.energy_combined, kgo.energy_second_order,
                                       kgo.binding_energy, kgo.binding_second_order)),
    lambda: generate_table([BIG], range(3)), lambda: generate_table([0.1], [BIG]),
    lambda: generate_table([0.1], [1], BIG),
    lambda: GridSpec(BIG, 3), lambda: GridSpec(1.0, BIG),
    lambda: default_extent(BIG, 1.0), lambda: default_extent(0, BIG),
    lambda: OscillatorParams(BIG, 1.0), lambda: from_b(BIG),
    lambda: TridiagonalOperator([1.0, BIG], -1.0),
    lambda: lowest_eigenvalues(_OP, BIG, 1e-10), lambda: lowest_eigenvalues(_OP, 1, BIG),
    lambda: discretize_weber(BIG, _GRID),
    lambda: oracle_energies(natural_units(), BIG), lambda: oracle_energies(natural_units(), 1, BIG),
    lambda: hermite(BIG, 0.5), lambda: hermite_from_kummer_even(BIG, 0.5),
    lambda: combined_index(0, BIG), lambda: combined_index(BIG, "even"),
], ids=["psi n", "psi x", "psi lam", "sample n", "sample lam",
        "energy_combined n", "energy_second_order n", "binding_energy n", "binding_second_order n",
        "energy_combined b", "energy_second_order b", "binding_energy b", "binding_second_order b",
        "generate_table b", "generate_table n", "generate_table formula",
        "GridSpec extent", "GridSpec points", "default_extent n", "default_extent lam",
        "OscillatorParams", "from_b", "TridiagonalOperator", "lowest_eigenvalues count",
        "lowest_eigenvalues tol", "discretize_weber", "oracle_energies count",
        "oracle_energies points", "hermite", "hermite_from_kummer_even",
        "combined_index parity", "combined_index n"])
def test_an_int_of_more_than_4300_digits_is_refused_as_invalid_input(call):
    # formatting it into the message raised a bare ValueError ("Exceeds the limit")
    with pytest.raises(InvalidInput,
                       match=r"(int of 16610 bits|too large to show)( at index [01])?$"):
        call()


_HUGE = 10**400  # a real number past the double range
_ZEROS = "[" + "0.0, " * 15 + "0..."  # a long list's repr, cut to 80 characters
_ONES = "[" + "1.0, " * 15 + "1..."
_NAN_OR_HUGE = [
    (lambda: hermite(3, math.nan), "xi must be a real number, got nan"),
    (lambda: hermite(3, math.inf), "xi must be a real number, got inf"),
    (lambda: kummer_m(-2, 0.5, math.inf), "y must be a real number, got inf"),
    (lambda: sturm_count(_OP, math.nan), "shift must be a real number, got nan"),
    (lambda: sturm_count(_OP, _HUGE),
     "shift must be a real number, got a positive int of 1329 bits"),
    (lambda: psi(0, _HUGE, 1),
     "x must be real numbers, got a positive int of 1329 bits at index 0"),
    (lambda: effective_potential(natural_units(), 1, _HUGE),
     "x must be a real number, got a positive int of 1329 bits"),
    (lambda: TridiagonalOperator([1.0, math.inf], -1.0),
     "operator diagonal must be finite, got inf at index 1"),
    (lambda: TridiagonalOperator([1.0, 1.0], math.inf),
     "operator coupling must be a real number, got inf"),
    (lambda: TridiagonalOperator([1.0, _HUGE], -1.0),
     "operator diagonal must be real numbers, got a positive int of 1329 bits at index 1"),
    (lambda: TridiagonalOperator([1.0, 1.0], _HUGE),
     "operator coupling must be a real number, got a positive int of 1329 bits"),
    # a long value shows its first 80 characters: the message held its whole repr
    (lambda: discretize_weber(1.0, [0.0] * 20001), "grid must be a GridSpec, got " + _ZEROS),
    (lambda: lowest_eigenvalues([1.0] * 20001, 1, 1e-10),
     "operator must be a TridiagonalOperator, got " + _ONES),
    (lambda: psi(0, "a" * 100000, 1.0), "x must be real numbers, got '" + "a" * 76 + "..."),
    (lambda: psi(0, [[0.0] * 20001], 1.0), f"x must be real numbers, got {_ZEROS} at index 0"),
    (lambda: GridSpec("9" * 50000, 3),
     "grid extent must be positive and finite, got '" + "9" * 76 + "..."),
]


@pytest.mark.parametrize("call, message", _NAN_OR_HUGE,
                         ids=["hermite nan", "hermite inf", "kummer_m y inf", "sturm_count nan",
                              "sturm_count huge", "psi huge", "effective_potential huge",
                              "diagonal inf", "coupling inf", "diagonal huge", "coupling huge",
                              "discretize_weber long list", "lowest_eigenvalues long list",
                              "psi long str", "psi long nested list", "GridSpec long str"])
def test_a_refused_input_is_invalid_input_whatever_takes_it(call, message):
    # hermite(3, nan), the operator's inf diagonal, its huge coupling and a huge
    # shift, energy or x were OutOfRange, which other functions called the same
    # values InvalidInput
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: inner_product(GridSpec(1.0, 3), [1.0, math.inf, 1.0], [1.0, math.inf, 1.0]),
     "inner product exceeds the floating-point range"),
    (lambda: hermite_from_kummer_even(1, 1e200), "xi^2 exceeds the floating-point range"),
], ids=["inner_product inf sample", "bridge xi squared"])
def test_a_result_past_the_double_range_is_out_of_range(call, message):
    with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: psi(3, "", 1.0), "x must be real numbers, got ''"),
    (lambda: psi(0, b"\x00", 1.0), "x must be real numbers, got b'\\x00'"),
    (lambda: TridiagonalOperator(b"\x01\x02", 0.5),
     "operator diagonal must be real numbers, got b'\\x01\\x02'"),
    (lambda: inner_product(GridSpec(1.0, 3), b"abc", b"abc"), "f must be real numbers, got b'abc'"),
    (lambda: inner_product(GridSpec(1.0, 3), [1.0] * 3, bytearray(3)),
     "g must be real numbers, got bytearray(b'\\x00\\x00\\x00')"),
    (lambda: generate_table(b"\x01", [1]),
     "b_values and n_values must both be non-empty sequences"),
    (lambda: generate_table([0.1], b"\x01\x02"),
     "b_values and n_values must both be non-empty sequences"),
    (lambda: generate_table("1", [1]), "b_values and n_values must both be non-empty sequences"),
], ids=["psi empty str", "psi bytes", "operator bytes", "inner_product bytes",
        "inner_product bytearray", "generate_table b bytes", "generate_table n bytes",
        "generate_table b str"])
def test_a_text_is_no_sequence_of_numbers(call, message):
    # psi(3, "", 1.0) returned [] and psi(0, b"\x00", 1.0) psi_0(0); the operator
    # held the diagonal [1.0, 2.0], inner_product summed the bytes' ints, and
    # generate_table took b"\x01" as b = 1 and b"\x01\x02" as levels 1 and 2
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call()


def test_a_refused_sequence_names_its_first_refused_entry_alone():
    # the message showed the whole sequence: 315,602 characters for one NaN in
    # a 20001-row diagonal, 451,513 for one NaN sample in inner_product
    diagonal = discretize_weber(1.0, GridSpec(10.0, 20001)).diagonal
    nodes = GridSpec(10.0, 20001).nodes()
    for entry, rule in ((math.nan, "be real numbers, got nan"), (math.inf, "be finite, got inf"),
                        (-math.inf, "be finite, got -inf")):
        bad = diagonal.copy()
        bad[7000] = entry
        with pytest.raises(InvalidInput,
                           match=f"^operator diagonal must {rule} at index 7000$"):
            TridiagonalOperator(bad, -1.0)
    bad = nodes.copy()
    bad[15000], bad[16000] = math.nan, None
    with pytest.raises(InvalidInput, match="^f must be real numbers, got nan at index 15000$"):
        inner_product(GridSpec(10.0, 20001), bad, nodes)
    with pytest.raises(InvalidInput, match="^x must be real numbers, got 'a' at index 3$"):
        psi(2, [0.0] * 3 + ["a"] * 20000, 1.0)


# edge values drawn in place of any argument: each call refuses them or gives finite results
_TEXTS = ["1.0", "", b"", b"\x01\x02", bytearray(b"\x01\x02")]  # no argument takes one
_ODD = [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308, True, False,
        np.int64(3), np.int32(-2), np.float32(0.5), np.float16(math.inf), np.float64(math.nan),
        2**70, _HUGE, -_HUGE, BIG, *_TEXTS, None, [], [1.0], [[1.0]], [1.0, [1.0]],
        np.ones((2, 2)), np.array(1.0), [math.nan], [BIG]]
_LEVEL = st.integers(0, 12)
_POSITIVE = st.sampled_from([0.1, 1.0, 2.5])
_REAL = st.floats(-5.0, 5.0)
_REALS = st.lists(_REAL, min_size=1, max_size=5)
_GRIDS = st.sampled_from([_GRID, GridSpec(8.0, 41)])
_PARAMS = st.sampled_from([natural_units(), from_b(0.5)])
_OPS = st.sampled_from([_OP, discretize_weber(1.0, _GRID)])
_SIGNATURES = {  # public name -> one strategy of valid values per argument
    "GridSpec": (_POSITIVE, st.sampled_from([3, 5, 21])),
    "OscillatorParams": (_POSITIVE, _POSITIVE, _POSITIVE, _POSITIVE),
    "TridiagonalOperator": (st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5), _REAL),
    "binding_energy": (_LEVEL, _POSITIVE),
    "binding_second_order": (_LEVEL, _POSITIVE),
    "default_extent": (_LEVEL, _POSITIVE),
    "discretize_weber": (_POSITIVE, _GRIDS),
    "effective_potential": (_PARAMS, _REAL, _REAL),
    "energy_combined": (_LEVEL, _POSITIVE),
    "energy_second_order": (_LEVEL, _POSITIVE),
    "from_b": (_POSITIVE,),
    "generate_table": (st.lists(_POSITIVE, min_size=1, max_size=3),
                       st.lists(_LEVEL, min_size=1, max_size=3), st.sampled_from(["eq21", "table"])),
    "hermite": (_LEVEL, _REAL),
    "hermite_from_kummer_even": (_LEVEL, _REAL),
    "hermite_from_kummer_odd": (_LEVEL, _REAL),
    "inner_product": (st.just(GridSpec(1.0, 3)), st.lists(_REAL, min_size=3, max_size=3),
                      st.lists(_REAL, min_size=3, max_size=3)),
    "kummer_m": (st.sampled_from([-3, -2.0, 0.0, 0.5]), st.sampled_from([0.5, 1.5, -1.0]), _REAL),
    "lowest_eigenvalues": (_OPS, st.integers(1, 3), st.sampled_from([1e-8, 1e-10])),
    "natural_units": (),
    "oracle_energies": (_PARAMS, st.integers(1, 3), st.sampled_from([21, 41]),
                        st.sampled_from([1e-8, 1e-10])),
    "profile_effective_potential": (_PARAMS, st.sampled_from([0.5, 1.0]),
                                    st.just(GridSpec(8.0, 41))),
    "psi": (_LEVEL, st.one_of(_REAL, _REALS), _POSITIVE),
    "sample": (_LEVEL, _GRIDS, _POSITIVE),
    "sturm_count": (_OPS, _REAL, st.one_of(st.none(), st.integers(1, 3))),
}
_FUNCTIONS = [name for name in kgo.__all__ if not isinstance(getattr(kgo, name), type)
              or not issubclass(getattr(kgo, name), Exception)]


def test_the_contract_covers_every_public_function():
    assert sorted(_SIGNATURES) == _FUNCTIONS


def _finite(value) -> bool:
    """Whether value is finite Python numbers all through."""
    if isinstance(value, TridiagonalOperator):
        return _finite(value.diagonal) and _finite(value.off_diagonal)
    if isinstance(value, (list, tuple)):  # GridSpec and OscillatorParams too
        return all(map(_finite, value))
    return type(value) in (int, bool) or type(value) is float and math.isfinite(value)


def _refused(value) -> bool:
    """Whether value is one of the texts or is or holds a NaN or an int past
    the double range."""
    if any(value is text for text in _TEXTS):
        return True
    value = value.tolist() if isinstance(value, np.ndarray) else value
    if isinstance(value, (list, tuple)):
        return any(map(_refused, value))
    return (type(value) is int and value.bit_length() > 1024
            or isinstance(value, (float, np.floating)) and math.isnan(value))


@st.composite
def _calls(draw, name):
    return [draw(st.one_of(valid, st.sampled_from(_ODD))) for valid in _SIGNATURES[name]]


@pytest.mark.parametrize("name", _FUNCTIONS)
def test_every_call_returns_finite_values_or_raises_one_kgo_error(name):
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(args=_calls(name))
    def check(args):
        try:
            result = getattr(kgo, name)(*args)
        except KgoError as error:  # one of the five classes
            if any(map(_refused, args)):
                assert type(error) is InvalidInput, error
        else:
            assert _finite(result), result
            assert not any(arg is text for arg in args for text in _TEXTS), args
    check()
