"""Exceptions shared across the package."""

from collections.abc import Iterable


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class HypothesisError(InputError):
    """A check was refused because the statement's hypothesis fails on the input.

    Carries an optional payload describing the offending data (for example a
    commutativity counterexample).
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


def require_iterable(value, what: str):
    """``value`` itself if it is iterable; anything else raises InputError."""
    if not isinstance(value, Iterable):
        raise InputError(f"{what} must be an iterable (got {value!r})")
    return value


def require_order(value, lo: int, hi: int | None, what: str) -> int:
    """``value`` itself if it is an int, not a bool, in ``lo..hi`` (no upper
    bound for ``hi=None``); anything else raises InputError."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer (got {value!r})")
    if hi is None:
        if value < lo:
            raise InputError(f"{what} must be at least {lo} (got {value})")
    elif not lo <= value <= hi:
        raise InputError(f"{what} {value} not in {lo}..{hi}")
    return value
