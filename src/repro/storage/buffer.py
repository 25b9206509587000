"""Buffer pool with LRU eviction and cold/hot control.

Scans never touch the :class:`~repro.storage.blocks.BlockStore` directly;
they go through a :class:`BufferPool`, which caches decoded blocks and
charges a buffer miss to :class:`~repro.storage.io_stats.IOStats` at the
block's *stored* (compressed) size. This gives the two regimes of the
paper's Figure 19:

* **cold** — ``clear()`` the pool before the query: every block is a miss,
  so the reported I/O volume is exactly what the query had to read.
* **hot** — ``warm_table()`` (or simply a prior run with a large enough
  pool): all blocks hit, data access is "zero cost", and measured time is
  pure CPU — the regime of plot 4.

Capacity is in bytes of decoded data. A block's charge is computed once,
when it enters the pool, and stored with the entry: eviction and
``evict_table`` subtract the stored number and never walk a block again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .blocks import BlockKey, BlockStore
from .io_stats import IOStats


class BufferPool:
    """LRU cache of decoded column blocks over a simulated disk."""

    def __init__(
        self,
        store: BlockStore,
        io_stats: IOStats | None = None,
        capacity_bytes: int | None = None,
    ):
        self.store = store
        self.io = io_stats if io_stats is not None else IOStats()
        self.capacity_bytes = capacity_bytes
        # key -> (decoded block, its charge against capacity_bytes)
        self._cache: OrderedDict[BlockKey, tuple[np.ndarray, int]] = \
            OrderedDict()
        self._cached_bytes = 0
        self.hits = 0
        self.misses = 0
        # Concurrent service requests scan one shard through one pool;
        # LRU bookkeeping (move_to_end / evict / insert) must not race.
        self._lock = threading.RLock()

    # -- core access -----------------------------------------------------

    def get_block(self, table: str, column: str, block: int) -> np.ndarray:
        """Return the decoded block, reading from 'disk' on a miss."""
        key = BlockKey(table, column, block)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.hits += 1
                return cached[0]
            self.misses += 1
        # Decode outside the lock so concurrent scans of one shard miss
        # in parallel; two workers racing on the same cold block decode
        # it twice (both charged — the 'disk' really was read twice) and
        # the second insert replaces the first.
        data = self.store.read_block(key)
        self.io.record_read(table, column, self.store.stored_size(key))
        with self._lock:
            self._insert(key, data)
        return data

    def read_rows(
        self, table: str, column: str, start_row: int, stop_row: int
    ) -> np.ndarray:
        """Materialize the value range ``[start_row, stop_row)`` of a column."""
        total = self.store.column_rows(table, column)
        stop_row = min(stop_row, total)
        if stop_row <= start_row:
            dtype = self.store.column_dtype(table, column)
            return np.empty(0, dtype=dtype.numpy_dtype)
        pieces = []
        for blk in self.store.blocks_for_rows(start_row, stop_row):
            blk_start, blk_stop = self.store.block_range(blk)
            data = self.get_block(table, column, blk)
            lo = max(start_row, blk_start) - blk_start
            hi = min(stop_row, blk_stop) - blk_start
            pieces.append(data[lo:hi])
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces)

    # -- temperature control ---------------------------------------------

    def clear(self) -> None:
        """Evict everything: the next query runs cold."""
        with self._lock:
            self._cache.clear()
            self._cached_bytes = 0

    def evict_table(self, table: str) -> None:
        """Evict one table's blocks, keeping the rest of the pool hot.

        Checkpoints rebuild a single table's stable image; evicting only
        its stale blocks means an incremental checkpoint does not turn
        every other table's next scan cold.
        """
        with self._lock:
            for key in [k for k in self._cache if k.table == table]:
                self._cached_bytes -= self._cache.pop(key)[1]

    def warm_table(self, table: str, columns=None) -> None:
        """Pre-load a table's blocks without counting the reads as query I/O.

        Used to set up 'hot' runs: blocks are decoded straight into the
        cache, bypassing ``get_block``'s accounting, so warming is
        invisible to the (possibly shared) I/O counters and to the
        hit/miss tallies.
        """
        for tbl, column in self.store.columns(table):
            if columns is not None and column not in columns:
                continue
            for blk in range(self.store.column_blocks(tbl, column)):
                key = BlockKey(tbl, column, blk)
                with self._lock:
                    if key in self._cache:
                        self._cache.move_to_end(key)
                        continue
                data = self.store.read_block(key)
                with self._lock:
                    self._insert(key, data)

    # -- internals ---------------------------------------------------------

    def _insert(self, key: BlockKey, data: np.ndarray) -> None:
        # Cached blocks flow by reference through MergeScan pass-through
        # into query results; freeze them so an aliasing write raises
        # instead of silently corrupting every later read of the block.
        data.setflags(write=False)
        charge = self._block_nbytes(data)
        replaced = self._cache.pop(key, None)  # a racing reader's copy
        if replaced is not None:
            self._cached_bytes -= replaced[1]
        if self.capacity_bytes is not None:
            while self._cached_bytes + charge > self.capacity_bytes \
                    and self._cache:
                _, (_, evicted) = self._cache.popitem(last=False)
                self._cached_bytes -= evicted
        self._cache[key] = (data, charge)
        self._cached_bytes += charge

    @staticmethod
    def _block_nbytes(data: np.ndarray) -> int:
        if data.dtype == object:
            return int(sum(len(str(v)) + 50 for v in data))
        return int(data.nbytes)

    def contains(self, table: str, column: str, block: int) -> bool:
        return BlockKey(table, column, block) in self._cache
