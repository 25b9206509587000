"""I/O accounting for the simulated disk.

The paper's Figure 19 (plots 2 and 5) reports per-query I/O *volume* for
no-updates, VDT, and PDT runs. Our disk is simulated, so instead of timing
physical reads we count the bytes each scan pulls from "disk" (i.e. buffer
pool misses, at the stored — possibly compressed — block size).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class IOSnapshot:
    """Immutable view of counters, used to compute per-query deltas."""

    bytes_read: int = 0
    blocks_read: int = 0
    bytes_by_column: dict = field(default_factory=dict)

    def minus(self, earlier: "IOSnapshot") -> "IOSnapshot":
        by_col = {
            key: count - earlier.bytes_by_column.get(key, 0)
            for key, count in self.bytes_by_column.items()
            if count - earlier.bytes_by_column.get(key, 0)
        }
        return IOSnapshot(
            bytes_read=self.bytes_read - earlier.bytes_read,
            blocks_read=self.blocks_read - earlier.blocks_read,
            bytes_by_column=by_col,
        )

    def as_dict(self) -> dict:
        """JSON-able view; ``(table, column)`` keys join as "table.col"."""
        return {
            "bytes_read": self.bytes_read,
            "blocks_read": self.blocks_read,
            "bytes_by_column": {
                ".".join(key) if isinstance(key, tuple) else str(key): n
                for key, n in sorted(self.bytes_by_column.items())
            },
        }


class IOStats:
    """Mutable counters shared by a :class:`~repro.storage.buffer.BufferPool`.

    ``record_read`` is invoked on every buffer-pool miss. Columns are keyed
    by ``(table_name, column_name)`` so experiments can attribute I/O to
    sort-key columns specifically (the PDT-vs-VDT difference).
    """

    def __init__(self):
        self.bytes_read = 0
        self.blocks_read = 0
        self.bytes_by_column: dict = defaultdict(int)
        # The query service scans one shard from several concurrent
        # requests; counter updates (and db-level merges) must not race.
        self._lock = threading.Lock()

    def record_read(self, table: str, column: str, nbytes: int) -> None:
        with self._lock:
            self.bytes_read += nbytes
            self.blocks_read += 1
            self.bytes_by_column[(table, column)] += nbytes

    def merge(self, other) -> "IOStats":
        """Fold another counter set (``IOStats`` or ``IOSnapshot``) into
        this one; returns ``self``.

        Executor worker processes count their reads into a private
        counter set; the router merges each completed job's counters
        into the database-level stats exactly once.
        """
        if isinstance(other, IOStats):
            other = other.snapshot()
        with self._lock:
            self.bytes_read += other.bytes_read
            self.blocks_read += other.blocks_read
            for key, count in other.bytes_by_column.items():
                self.bytes_by_column[key] += count
        return self

    def snapshot(self) -> IOSnapshot:
        with self._lock:
            return IOSnapshot(
                bytes_read=self.bytes_read,
                blocks_read=self.blocks_read,
                bytes_by_column=dict(self.bytes_by_column),
            )

    def since(self, snap: IOSnapshot) -> IOSnapshot:
        return self.snapshot().minus(snap)

    def reset(self) -> None:
        with self._lock:
            self.bytes_read = 0
            self.blocks_read = 0
            self.bytes_by_column.clear()

    def as_dict(self) -> dict:
        """Coherent JSON-able view (taken as one snapshot under the
        lock). Prefer this — or ``Database.metrics()`` — over reading
        the counter fields directly."""
        return self.snapshot().as_dict()

    def __repr__(self) -> str:
        return (f"IOStats(bytes_read={self.bytes_read}, "
                f"blocks_read={self.blocks_read}, "
                f"columns={len(self.bytes_by_column)})")
