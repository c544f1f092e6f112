"""The error of a setting that cannot work, and the integer check of every
constructor that takes a count, a step or an index."""

import numbers


class ConfigError(ValueError):
    """A setting that cannot work; ``field`` names it when the error
    concerns one: a parameter name, or a path into one such as "box/0/2"."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def integer(value, field: str, low: int = None, error=ConfigError) -> int:
    """value as an int, at least low when low is given.

    An integral number passes (3 and 3.0 give 3); a bool, a non-number, or
    a fractional or non-finite number raises ``error`` naming field, and is
    never truncated."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise error(f"{field} must be an integer, got {value!r}", field)
    if low is not None and value < low:
        raise error(f"{field} must be >= {low}, got {value!r}", field)
    return int(value)
