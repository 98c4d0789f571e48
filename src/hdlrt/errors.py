"""Exception types shared across the package.

Domain errors (bad designs, degenerate data, failed factorizations) derive
from :class:`HdlrtError`; input-file problems derive from
:class:`InputFileError`.  The CLI maps the former to exit code 2 and the
latter to exit code 1.
"""

import numbers
import operator


class HdlrtError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(HdlrtError):
    """A matrix required to be symmetric positive definite is not."""


class DegenerateColumn(HdlrtError):
    """A variable vector is (numerically) in the span of its predecessors."""


class DimensionExceedsSample(HdlrtError):
    """The dimension p is too large for the available sample size."""


class DimensionMismatch(HdlrtError):
    """Array shapes are incompatible for the requested operation."""


class InvalidDesign(HdlrtError):
    """Test constants requested for an (n, partition) outside the valid range."""


class InvalidAlpha(HdlrtError):
    """Significance level outside the open interval (0, 1)."""


class ZeroVariance(HdlrtError):
    """A variable has (numerically) zero variance; correlations are undefined."""


class InvalidPlan(HdlrtError):
    """A simulation plan violates its own consistency requirements."""


class InputFileError(HdlrtError):
    """Base class for problems with user-supplied data files."""


class ParseError(InputFileError):
    """A CSV cell could not be parsed as a number."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class RaggedRows(ParseError):
    """A CSV row has a different number of fields than the first row."""


# The package's integer rule, for one value or a sequence, its
# 64-bit-word rule, its significance-level rule and its compound-symmetry
# delta rule; each raises the error class its caller names.
def _as_integer(name: str, value, error: type[Exception]) -> int:
    try:  # numpy integers pass; a float is refused, not truncated
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def _as_integers(name: str, values, error: type[Exception], item: str) -> tuple[int, ...]:
    """``values`` as a tuple of integers, each checked as ``item``."""
    try:
        return tuple(_as_integer(item, v, error) for v in values)
    except TypeError:  # from iterating: _as_integer raises ``error``
        raise error(f"{name} must be a sequence of integers, got {values!r}") from None


def _as_word(name: str, value, error: type[Exception]) -> int:
    """``value`` as an integer in [0, 2**64), as a Philox key word."""
    word = _as_integer(name, value, error)
    if not 0 <= word < 1 << 64:
        raise error(f"{name} must be in [0, 2**64), got {word}")
    return word


def _as_alpha(value, error: type[Exception]) -> float:
    """``value`` as a significance level: a real number in (0, 1)."""
    if not isinstance(value, numbers.Real):  # a string is refused, not parsed
        raise error(f"alpha must be a number, got {value!r}")
    if not 0.0 < value < 1.0:  # NaN fails here too
        raise error(f"alpha must be in (0, 1), got {value!r}")
    return float(value)


def _as_delta(value, error: type[Exception]):
    """``value``, unchanged, as a compound-symmetry delta: a real number in [0, 1)."""
    if not isinstance(value, numbers.Real):  # a string is refused, not parsed
        raise error(f"delta must be a number, got {value!r}")
    if not 0.0 <= value < 1.0:  # NaN fails here too
        raise error(f"delta must be in [0, 1), got {value}")
    return value
