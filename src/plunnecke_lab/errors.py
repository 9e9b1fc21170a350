"""Exceptions shared across the package."""

from collections.abc import Iterable


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class HypothesisError(InputError):
    """A check was refused because the statement's hypothesis fails on the input.

    Carries an optional JSON-ready payload describing the offending data
    (for example ``{"failing_edge": [tail, head, label]}`` for a graph that
    does not commute), which the CLI writes as it is.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


def require_iterable(value, what: str):
    """``value`` itself if it is iterable; anything else raises InputError."""
    if not isinstance(value, Iterable):
        raise InputError(f"{what} must be an iterable (got {value!r})")
    return value


def require_ids(value, known, what: str) -> frozenset:
    """``value``, an iterable of keys of ``known``, as a frozenset.

    A ``str`` (whose characters would read as ids), a non-iterable, an
    unhashable id and an unknown id raise InputError.  The unknown id named
    is the least one, or the least by ``repr`` when the unknown ids are of
    types that do not compare.
    """
    if isinstance(value, str):
        raise InputError(f"{what} set must be a collection of ids, not a str (got {value!r})")
    try:
        ids = frozenset(require_iterable(value, f"{what} set"))
    except TypeError as exc:
        raise InputError(f"{what} ids must be hashable ({exc})") from None
    unknown = [x for x in ids if x not in known]
    if unknown:
        try:
            shown = min(unknown)
        except TypeError:
            shown = min(unknown, key=repr)
        raise InputError(f"unknown {what} ({shown})")
    return ids


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
