"""The rule of each kind of field the files hold, and of a list of requested
names, stated once.

Constructors, readers, writers and commands all call these rules, so a
library object holds exactly what its file can hold. A rule takes the
field's or argument's name and value and returns the value as held, numpy
numbers as Python ones, or raises ValueError with a message that starts with
the name. A reader checks the field's text grammar first and passes
``column <name>:`` as the name, as a command passes ``--indicators:``.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Iterable, Sequence

import numpy as np

INT_LIMIT = 2**63  # file integers stay below it, so each fits int64
# Largest total of one matrix's counts. Up to 2**53 every count and every sum
# of counts is an exact float64, so each rate is the correctly rounded quotient.
COUNTS_LIMIT = 2**53
COUNT_NAMES = ("tp", "fn", "fp", "tn")
INDICATOR_NAMES = ("ED", "GD", "HV", "SDR", "NDR")

IDENT_ALPHABET = "-0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz"
IDENT_RE = re.compile(f"[{re.escape(IDENT_ALPHABET)}]+\\Z")
# the same alphabet as a lookup table over byte values, for the columnar reader
IDENT_BYTES = np.zeros(256, dtype=np.bool_)
IDENT_BYTES[list(IDENT_ALPHABET.encode())] = True


def identifier(name: str, value: object) -> str:
    if not (isinstance(value, str) and IDENT_RE.match(value)):
        raise ValueError(f"{name} invalid identifier {value!r}")
    return value


def unsigned(name: str, value: object, low: int = 0) -> int:
    """The value, an integer and no bool, as an int from low, 0 or 1, to below 2**63."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low:
        raise ValueError(f"{name} must be {'positive' if low else 'non-negative'}, got {value}")
    if value >= INT_LIMIT:
        raise ValueError(f"{name} must be below 2**63, got {value}")
    return value


def finite_real(
    name: str, value: object, low: float = -math.inf, high: float = math.inf, text: str = ""
) -> float:
    """The value, a real number and no bool, as a finite float from low to
    high; a reader passes the field's text, which the message then shows."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {text or value!r}")
    if not low <= number <= high:
        bounds = "be non-negative" if high == math.inf else f"lie in [{low:g}, {high:g}]"
        raise ValueError(f"{name} must {bounds}, got {number}")
    return number


def count_row(row: Sequence[object]) -> tuple[int, ...]:
    """The (tp, fn, fp, tn) counts as unsigned ints, which must not all be 0
    and must sum to at most 2**53."""
    row = tuple(map(unsigned, COUNT_NAMES, row))
    total = sum(row)
    if total == 0:
        raise ValueError("confusion matrix must contain at least one outcome")
    if total > COUNTS_LIMIT:
        raise ValueError(f"counts sum to {total}, above the limit 2**53")
    return row


def bad_count_rows(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Mask of the rows of the four integer count columns that fail ``count_row``."""
    bad = np.zeros(len(columns[0]), np.bool_)
    totals = np.zeros(len(columns[0]), np.int64)
    for column in columns:
        # a count above the limit flags its row by itself, so an int64 sum that wraps cannot hide it
        bad |= (column < 0) | (column > COUNTS_LIMIT)
        totals += column.astype(np.int64, copy=False)
    return bad | (totals > COUNTS_LIMIT) | (totals == 0)


def indicator(name: str, value: object) -> str:
    if not (isinstance(value, str) and value in INDICATOR_NAMES):
        raise ValueError(f"{name} unknown indicator {value!r}")
    return value


def requested(
    name: str, values: Iterable[object], known: Sequence[str], upper: bool = False
) -> list[str]:
    """The known names that values requests, in the order of known and once
    each; with upper a str matches upper-cased. A str or bytes as the list is
    refused, and so is every item but a known str, listed in request order."""
    if isinstance(values, (str, bytes)):
        raise ValueError(f"{name} takes a sequence of names, not the string {values!r}")
    keys = [value.upper() if upper and isinstance(value, str) else value for value in values]
    # each unknown item once, by its repr, so that none is hashed or compared
    unknown = dict.fromkeys(repr(k) for k in keys if not (isinstance(k, str) and k in known))
    if unknown:
        raise ValueError(f"{name} unknown [{', '.join(unknown)}]; expected from {tuple(known)}")
    return [key for key in known if key in keys]
