"""Exception types shared across the package, one per kind of failure, and
beside them the input rules and the overflow policy that raise them, with
the bounds and oracle defaults the CLI parser reads: so `kgo table` and
`kgo spectrum` load no module but cli, errors and spectrum.  Each rule and
bound is imported from here alone.  Only an input neither float nor int
loads `numbers`.
"""

import math

# plain machine integers for the level index
MAX_LEVEL = 10**6
# a 10^6 + 1 point grid and its formatted rows fit in 1 GiB of address space
MAX_POINTS = 10**6 + 1
# the oracle's default grid and bisection bracket width on k^2
DEFAULT_POINTS = 2001
DEFAULT_TOL = 1e-10


class KgoError(Exception):
    """Base class for domain errors; the CLI maps these to exit code 1."""


class InvalidInput(KgoError, ValueError):
    """An input is outside its allowed range; the message names the input.

    A real input was no real number, NaN, an int past the double range or,
    where it must be finite, +-inf; a positive quantity was zero or negative;
    an integer (a level, a count, a degree, a point count) lies outside its
    bounds; or inputs do not fit together (a pole of M(a, c, y), a grid too
    small or mismatched).  Every refused input raises this class.
    """


class OutOfRange(KgoError, OverflowError):
    """A computed result, never an input, does not fit in a double (evaluate_finite)."""


class NonConvergence(KgoError, ArithmeticError):
    """An iteration hit its cap before reaching its tolerance."""


class UsageError(KgoError):
    """Command-line usage error; the CLI maps this to exit code 2."""


def is_real(value) -> bool:
    """The one rule for a real-number input: any numbers.Real, numpy scalars
    included, except a bool, which check_integer refuses too."""
    if type(value) in (float, int):  # the CLI's inputs: no import of numbers
        return True
    import numbers
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(value) -> float | None:
    """The one conversion of a real input: value as a Python float if is_real
    takes it, it is not NaN and it fits in a double, else None."""
    if type(value) is not float:  # a float is itself: the oracle's shifts and rows
        try:
            value = float(value) if is_real(value) else math.nan
        except OverflowError:  # an int past the double range
            value = math.nan
    return value if value == value else None


def show(value) -> str:
    """value as an error message shows it: its repr, cut to 80 characters (cut),
    but an int past the double range by its sign and bit length, and a value whose
    repr raises ValueError (one that holds an int of more than 4300 digits) by its
    type.  Of a list or tuple only the first 80 items are repr'd: with more, that
    repr is already over 80 characters and begins as the whole one does, so the
    text is the same, at a cost that does not grow with the sequence."""
    if type(value) is int and _real(value) is None:
        return f"a {'negative' if value < 0 else 'positive'} int of {value.bit_length()} bits"
    try:
        text = repr(value[:80] if type(value) in (list, tuple) else value)
    except ValueError:
        return f"a {type(value).__name__} too large to show"
    return cut(text)


def cut(text: str) -> str:
    """text if it has 80 characters or fewer, else its first 77 and "..."."""
    return text if len(text) <= 80 else text[:77] + "..."


def check_real(name: str, value) -> float:
    """value as a Python float if it is a finite real number (_real), else InvalidInput."""
    number = _real(value)
    if number is None or not -math.inf < number < math.inf:
        raise InvalidInput(f"{name} must be a real number, got {show(value)}")
    return number


def check_positive(name: str, value) -> float:
    """value as a Python float if it is a positive, finite real number (_real),
    else InvalidInput: the one validator for strictly positive inputs."""
    number = _real(value)
    if number is None or not 0.0 < number < math.inf:
        raise InvalidInput(f"{name} must be positive and finite, got {show(value)}")
    return number


# iterable, but no sequence of numbers: its entries are characters or bytes
TEXTS = (str, bytes, bytearray)


def real_floats(name: str, values) -> list:
    """values as a list of Python floats if it is a sequence of real numbers
    (_real), +-inf included, and no text (TEXTS), else InvalidInput.  The
    message shows the first refused entry and its index, or the value that
    is no sequence, so it does not grow with the sequence."""
    try:
        entries = None if isinstance(values, TEXTS) else list(values)
    except TypeError:  # not a sequence
        entries = None
    if entries is None:
        raise InvalidInput(f"{name} must be real numbers, got {show(values)}")
    floats = list(map(_real, entries))
    if None in floats:
        index = floats.index(None)
        raise InvalidInput(
            f"{name} must be real numbers, got {show(entries[index])} at index {index}")
    return floats


def check_integer(n, what: str = "level index", low: int = 0, high: int = MAX_LEVEL) -> int:
    """The one integer rule, for a level (the defaults), a degree, a count or a
    point count: n as a plain int if it is a Python or numpy integer in
    [low, high], else InvalidInput.  A bool is not an integer here, as in
    check_positive, and neither is an array, even a 0-d or a 1-element one."""
    if type(n) is not int:  # needs no numpy
        import numbers
        if not (is_real(n) and isinstance(n, numbers.Integral)):
            raise InvalidInput(f"{what} must be an integer, got {show(n)}")
        n = int(n)
    if not low <= n <= high:
        raise InvalidInput(f"{what} must be in [{low}, {high}], got {show(n)}")
    return n


def evaluate_finite(what: str, compute):
    """compute() if its value, a float or a list of floats, is finite everywhere.

    The one overflow policy for computed results: the errors Python floats
    raise instead of giving inf are caught, and any non-finite entry raises
    OutOfRange naming the quantity.
    """
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not all(map(math.isfinite, value if isinstance(value, list) else [value])):
        raise OutOfRange(f"{what} exceeds the floating-point range")
    return value


def check_instance(what: str, value, cls):
    """value if it is a cls, else InvalidInput: the one rule for a grid or an operator."""
    if not isinstance(value, cls):
        raise InvalidInput(f"{what} must be a {cls.__name__}, got {show(value)}")
    return value


def check_points(points) -> int:
    """The one grid-size rule: points as a plain int if it is an odd integer
    in [3, MAX_POINTS]."""
    points = check_integer(points, "points", 3, MAX_POINTS)
    if points % 2 == 0:
        raise InvalidInput(f"points must be odd, got {points}")
    return points
