"""Exception types shared across the package: one per kind of failure."""


class KgoError(Exception):
    """Base class for domain errors; the CLI maps these to exit code 1."""


class InvalidInput(KgoError, ValueError):
    """An input is outside its allowed range; the message names the input.

    A positive quantity was zero, negative or non-finite, an integer (a level,
    a count, a degree, a point count) lies outside its bounds, or inputs do
    not fit together (a pole of M(a, c, y), a grid too small or mismatched).
    """


class OutOfRange(KgoError, OverflowError):
    """A computed result does not fit in double precision (params.evaluate_finite)."""


class NonConvergence(KgoError, ArithmeticError):
    """An iteration hit its cap before reaching its tolerance."""


class UsageError(KgoError):
    """Command-line usage error; the CLI maps this to exit code 2."""
