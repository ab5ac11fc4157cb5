"""Exception types shared across the package."""


class KgoError(Exception):
    """Base class for domain errors; the CLI maps these to exit code 1."""


class NonPositiveParameter(KgoError, ValueError):
    """An input is outside its allowed range.

    A positive quantity (b, lam, a tolerance, a grid extent) was zero,
    negative or non-finite, or an integer (a level index, a count, a
    polynomial degree) lies outside its bounds.
    """


class PoleAtC(KgoError, ValueError):
    """M(a, c, y) requested at a non-positive integer c, where it has poles."""


class NonConvergence(KgoError, ArithmeticError):
    """A series failed to meet its tolerance within the term cap."""


class InvalidGrid(KgoError, ValueError):
    """Grid specification violates its invariants."""


class GridMismatch(KgoError, ValueError):
    """A sampled function does not hold one value per node of its grid."""


class GridTooSmall(KgoError, ValueError):
    """Grid does not extend far enough to resolve the requested feature."""


class EmptyInput(KgoError, ValueError):
    """An input collection that must be non-empty was empty."""


class OutOfRange(KgoError, OverflowError):
    """A computed result does not fit in double precision (params.evaluate_finite)."""


class BudgetExceeded(KgoError, ArithmeticError):
    """Iteration cap hit before the requested tolerance was reached."""


class UsageError(KgoError):
    """Command-line usage error; the CLI maps this to exit code 2."""
