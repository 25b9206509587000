"""Scalar and vectorized helper functions for query expressions.

Dates are int32 days since 1970-01-01 (the storage ``DATE`` type); helpers
convert to and from calendar form and extract parts vectorized. String
predicates implement the LIKE shapes TPC-H uses.
"""

from __future__ import annotations

import datetime
import operator
import re

import numpy as np

_EPOCH = datetime.date(1970, 1, 1).toordinal()


def days(year: int, month: int, day: int) -> int:
    """Calendar date -> int32 day number."""
    return datetime.date(year, month, day).toordinal() - _EPOCH


def date_of(day_number: int) -> datetime.date:
    """Int day number -> calendar date."""
    return datetime.date.fromordinal(int(day_number) + _EPOCH)


def add_years(day_number: int, n: int) -> int:
    d = date_of(day_number)
    return days(d.year + n, d.month, d.day)


def add_months(day_number: int, n: int) -> int:
    d = date_of(day_number)
    month = d.month - 1 + n
    year = d.year + month // 12
    month = month % 12 + 1
    day = min(
        d.day,
        [31, 29 if _leap(year) else 28, 31, 30, 31, 30, 31, 31, 30, 31, 30,
         31][month - 1],
    )
    return days(year, month, day)


def add_days(day_number: int, n: int) -> int:
    return int(day_number) + n


def _leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def year_of(day_numbers: np.ndarray) -> np.ndarray:
    """Vectorized year extraction from day-number arrays."""
    dt = np.asarray(day_numbers, dtype="datetime64[D]")
    return dt.astype("datetime64[Y]").astype(np.int64) + 1970


def month_of(day_numbers: np.ndarray) -> np.ndarray:
    dt = np.asarray(day_numbers, dtype="datetime64[D]")
    months = dt.astype("datetime64[M]").astype(np.int64)
    return months % 12 + 1


def starts_with(column: np.ndarray, prefix: str) -> np.ndarray:
    return np.array([str(v).startswith(prefix) for v in column], dtype=bool)


def ends_with(column: np.ndarray, suffix: str) -> np.ndarray:
    return np.array([str(v).endswith(suffix) for v in column], dtype=bool)


def contains(column: np.ndarray, needle: str) -> np.ndarray:
    return np.array([needle in str(v) for v in column], dtype=bool)


def like(column: np.ndarray, pattern: str) -> np.ndarray:
    """SQL LIKE with % and _ wildcards."""
    regex = re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$",
        re.DOTALL,
    )
    return np.array(
        [bool(regex.match(str(v))) for v in column], dtype=bool
    )


def isin(column: np.ndarray, values) -> np.ndarray:
    values = set(values)
    if column.dtype == object:
        return np.array([v in values for v in column], dtype=bool)
    return np.isin(column, list(values))


def between(column: np.ndarray, low, high) -> np.ndarray:
    """Inclusive range predicate."""
    return (column >= low) & (column <= high)


def substring(column: np.ndarray, start: int, length: int) -> np.ndarray:
    """1-based SQL SUBSTRING."""
    out = np.empty(len(column), dtype=object)
    out[:] = [str(v)[start - 1 : start - 1 + length] for v in column]
    return out


def _lex_bound(columns, bound, strict, inclusive) -> np.ndarray:
    """``(columns...) <op> bound`` row-wise, folded from the bound's last
    column backwards: ``c0 op' b0 | (c0 == b0 & <rest>)`` — one
    comparison for a one-column bound, no scratch masks."""
    pairs = list(zip(columns, tuple(bound)))
    if not pairs:
        return np.ones(len(columns[0]) if columns else 0, dtype=bool)
    arr, value = pairs[-1]
    result = inclusive(arr, value)
    for arr, value in reversed(pairs[:-1]):
        result = strict(arr, value) | ((arr == value) & result)
    return result


def lex_ge(columns, bound) -> np.ndarray:
    """Row-wise lexicographic ``(columns...) >= bound`` over aligned
    arrays; ``bound`` may be a prefix of the column list."""
    return _lex_bound(columns, bound, operator.gt, operator.ge)


def lex_le(columns, bound) -> np.ndarray:
    """Row-wise lexicographic comparison against an upper bound.

    A prefix bound is inclusive of every extension (``("Paris",)`` admits
    all Paris rows), matching SQL prefix range predicates on compound sort
    keys."""
    return _lex_bound(columns, bound, operator.lt, operator.le)


def key_range_mask(arrays, sort_key, low, high):
    """Row mask of one block's sort key in the inclusive, prefix-aware
    ``[low, high]``, or None when both ends are open (None or empty).
    Reads only the sort-key columns a bound names."""
    mask = None
    if low:
        mask = lex_ge([arrays[c] for c in sort_key[:len(low)]], low)
    if high:
        hi_mask = lex_le([arrays[c] for c in sort_key[:len(high)]], high)
        mask = hi_mask if mask is None else mask & hi_mask
    return mask
