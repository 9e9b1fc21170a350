"""Exact rational parsing, formatting and summing.

Every measure, weight, ratio, and density in this package is a
``fractions.Fraction``; nothing is ever converted to float.
``to_integers`` is the one place denominators are cleared, and
``exact_sum`` adds the package's weights through it.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Mapping

from .errors import InputError

_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(value) -> Fraction:
    """Parse a rational literal ``p/q`` or ``p``, such as ``"-3/4"`` or ``"7"``.

    The text, stripped of surrounding whitespace, must be an optional sign
    and ASCII digits with an optional ``/digits``; decimals, exponents and
    digit separators are rejected.  Fractions and ints pass through
    unchanged; floats and bools are rejected.  Equal literal strings give
    the same (immutable) ``Fraction``, from a cache of the last
    ``LITERAL_CACHE_SIZE`` accepted literals; refusals are not cached.
    """
    if type(value) is str:
        return _parse_literal(value, sys.get_int_max_str_digits())
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"bad rational literal {value!r}; expected 'p/q'")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(f"floating point value {value!r} is not accepted; use 'p/q'")
    return _parse_text(value)


# Generated bundles write their weights with few distinct literals (a pass
# of the benchmark's battery parses 74,994 weights written with 547), so a
# small cache holds all of them.
LITERAL_CACHE_SIZE = 1024


@lru_cache(maxsize=LITERAL_CACHE_SIZE)
def _parse_literal(text: str, digit_limit: int) -> Fraction:
    """The digit limit is part of the key, so lowering it refuses long literals again."""
    return _parse_text(text)


def _parse_text(value) -> Fraction:
    text = str(value).strip()
    literal = _LITERAL.fullmatch(text)
    if not literal:
        raise InputError(f"bad rational literal {value!r}; expected 'p/q'")
    numerator, denominator = literal.groups()
    try:
        return Fraction(int(numerator), int(denominator or 1))
    except ZeroDivisionError as exc:
        raise InputError(f"bad rational literal {value!r}; expected 'p/q'") from exc
    except ValueError as exc:  # the literal is past the int/str digit limit
        raise InputError(f"rational literal of {len(text)} characters is past "
                         f"the {sys.get_int_max_str_digits()}-digit limit") from exc


def exact_weights(weights: Mapping[str, object]) -> dict[str, Fraction]:
    """A copy of ``weights`` with ints turned into Fractions (``exact_weight``)."""
    return {key: w if type(w) is Fraction else exact_weight(key, w) for key, w in weights.items()}


def exact_weight(key, w) -> Fraction:
    """``w`` as a Fraction: an int is converted, and any other type, floats,
    bools and strings included, raises InputError naming ``key``."""
    if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
        raise InputError(f"weight of ({key}) must be a Fraction or an int (got {w!r})")
    return Fraction(w)


def to_integers(pairs) -> tuple[list[int], int]:
    """Clear the denominators of ``(num, den)`` pairs: ``(ints, scale)`` with
    ``scale`` the lcm of the dens and ``ints[i] = num_i * scale // den_i``."""
    scale = lcm(*{den for _num, den in pairs})
    return [num * (scale // den) for num, den in pairs], scale


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """The sum of ints and Fractions as one Fraction.

    Numerators are added per denominator, the few per-denominator sums are
    brought over their common denominator by ``to_integers``, and only the
    total becomes a Fraction; the empty sum is 0.
    """
    by_den: dict[int, int] = {}
    for w in values:
        den = w.denominator
        by_den[den] = by_den.get(den, 0) + w.numerator
    ints, scale = to_integers([(num, den) for den, num in by_den.items()])
    return Fraction(sum(ints), scale)


def format_rational(value) -> str:
    """Canonical ``p/q`` form of an int or a Fraction; the denominator is
    always written (``3 -> "3/1"``).

    Any other type, floats and bools included, raises InputError, as does a
    value with more digits than Python converts between int and str.
    """
    if type(value) is not Fraction and (isinstance(value, bool)
                                        or not isinstance(value, (int, Fraction))):
        raise InputError(f"cannot write {value!r} as a rational; "
                         f"expected an int or a Fraction")
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise InputError(f"rational past the {sys.get_int_max_str_digits()}-digit "
                         f"limit cannot be written") from exc
