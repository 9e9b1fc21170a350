"""Exact rational parsing and formatting.

Every measure, weight, ratio, and density in this package is a
``fractions.Fraction``; nothing is ever converted to float.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import InputError

_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(value) -> Fraction:
    """Parse a rational literal ``p/q`` or ``p``, such as ``"-3/4"`` or ``"7"``.

    The text, stripped of surrounding whitespace, must be an optional sign
    and ASCII digits with an optional ``/digits``; decimals, exponents and
    digit separators are rejected.  Fractions and ints pass through
    unchanged; floats and bools are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"bad rational literal {value!r}; expected 'p/q'")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(f"floating point value {value!r} is not accepted; use 'p/q'")
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


def format_rational(value) -> str:
    """Canonical ``p/q`` form; the denominator is always written (``3 -> "3/1"``).

    A value with more digits than Python converts between int and str raises
    InputError.
    """
    frac = Fraction(value)
    try:
        return f"{frac.numerator}/{frac.denominator}"
    except ValueError as exc:
        raise InputError(f"rational past the {sys.get_int_max_str_digits()}-digit "
                         f"limit cannot be written") from exc
