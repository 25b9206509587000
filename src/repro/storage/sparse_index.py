"""Sparse index (zone map) over a stable table's sort key.

A classical sparse index: one entry per block recording the largest sort key
in that block, mapping SK range predicates to SID ranges that a scan must
visit (paper section 2.1, "Respecting Deletes"). Because PDT inserts respect
the order of ghost tuples, an index built on TABLE0 remains *valid* — merely
stale — for every later table version; the tests assert exactly this.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .table import StableTable


@dataclass(frozen=True)
class SidRange:
    """Half-open stable-position range ``[start, stop)``."""

    start: int
    stop: int

    def __post_init__(self):
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid SID range [{self.start}, {self.stop})")

    @property
    def count(self) -> int:
        return self.stop - self.start


class SparseIndex:
    """Per-granule max-SK entries enabling SID-range pruning of scans."""

    def __init__(self, table: StableTable, granularity: int = 4096):
        if granularity <= 0:
            raise ValueError("granularity must be positive")
        self.table_name = table.name
        self.granularity = granularity
        self.num_rows = table.num_rows
        self._max_keys: list[tuple] = []
        key_cols = [table.column(c).values for c in table.schema.sort_key]
        for start in range(0, table.num_rows, granularity):
            last = min(start + granularity, table.num_rows) - 1
            self._max_keys.append(tuple(col[last] for col in key_cols))

    @property
    def num_granules(self) -> int:
        return len(self._max_keys)

    # -- lookups -----------------------------------------------------------

    def _granule_range(self, granule: int) -> SidRange:
        start = granule * self.granularity
        return SidRange(start, min(start + self.granularity, self.num_rows))

    def sid_range_for_key_range(
        self, low: tuple | None, high: tuple | None
    ) -> SidRange:
        """SID range that may contain sort keys in ``[low, high]``.

        ``None`` bounds are unbounded. Bounds may be *prefixes* of the sort
        key (e.g. only the leading column), matching how range predicates on
        SK prefixes restrict scans. The stable key before the range sorts
        below ``low`` and the one closing it above ``high`` (or the range
        reaches the table end), so as a window of
        :func:`~repro.core.stack.merge_scan_layers` it holds every image
        tuple with a key in ``[low, high]``, however stale the index.
        """
        if self.num_rows == 0:
            return SidRange(0, 0)
        if low is None:
            first = 0
        else:
            low = tuple(low)
            # First granule whose max key reaches low: earlier granules
            # cannot contain it.
            first = bisect.bisect_left(self._max_keys, low, key=lambda k: k[: len(low)])
        if high is None:
            last = self.num_granules - 1
        else:
            high = tuple(high)
            # Last granule that may contain keys <= high: the first granule
            # whose max key (prefix) sorts *above* high still qualifies (it
            # can hold smaller keys at its start, and with prefix bounds a
            # run of equal prefixes may spill across granule boundaries);
            # anything after it cannot.
            last = bisect.bisect_right(
                self._max_keys, high, key=lambda k: k[: len(high)]
            )
            last = min(last, self.num_granules - 1)
        if first > last:
            # ``low`` sorts beyond every stable key: no stable granule can
            # match, but tuples *inserted* after the table end carry
            # SID == num_rows, so the scan must still start there (a
            # trailing-insert-only range, not an empty one).
            return SidRange(self.num_rows, self.num_rows)
        start = self._granule_range(first).start
        stop = self._granule_range(last).stop
        return SidRange(start, stop)

    def sid_range_for_point(self, key: tuple) -> SidRange:
        """SID range that may contain exactly ``key`` (or its prefix)."""
        return self.sid_range_for_key_range(key, key)

    def memory_entries(self) -> int:
        return len(self._max_keys)
