"""The buffer pool's charges, hits, misses and evictions, against an oracle.

The pool charges a block once, when it enters, and stores the charge with
the entry. The oracle here is a plain LRU that recomputes the charge from
the decoded block with the formula the pool has always used, so any change
to the formula, the eviction order or the bookkeeping shows up as a
different hit count, cache content or byte total.
"""

import threading
from collections import OrderedDict

import numpy as np

from repro.storage import DataType
from repro.storage.blocks import BlockKey, BlockStore
from repro.storage.buffer import BufferPool

BLOCK_ROWS = 64


def charge(data: np.ndarray) -> int:
    """A decoded block's size as the pool counts it."""
    if data.dtype == object:
        return int(sum(len(str(v)) + 50 for v in data))
    return int(data.nbytes)


def _store() -> BlockStore:
    rng = np.random.default_rng(7)
    store = BlockStore(compressed=True, block_rows=BLOCK_ROWS)
    words = np.array(["", "AIR", "REG AIR", "héllo", "x" * 90], dtype=object)
    for table, rows in (("a", 640), ("b", 320)):
        store.store_column(table, "k", DataType.INT64, np.arange(rows))
        store.store_column(table, "f", DataType.FLOAT64, rng.random(rows))
        store.store_column(table, "s", DataType.STRING,
                           words[rng.integers(0, len(words), rows)])
    return store


def _cached_charge(pool: BufferPool) -> int:
    return sum(charge(pool.store.read_block(key)) for key in pool._cache)


class OracleLRU:
    """LRU over the same store, charging each block by ``charge``."""

    def __init__(self, store: BlockStore, capacity: int):
        self.store, self.capacity = store, capacity
        self.cache: OrderedDict[BlockKey, np.ndarray] = OrderedDict()
        self.hits = self.misses = 0

    def get(self, key: BlockKey) -> None:
        if key in self.cache:
            self.cache.move_to_end(key)
            self.hits += 1
            return
        self.misses += 1
        data = self.store.read_block(key)
        used = sum(charge(d) for d in self.cache.values())
        while used + charge(data) > self.capacity and self.cache:
            _, evicted = self.cache.popitem(last=False)
            used -= charge(evicted)
        self.cache[key] = data


def _keys(store: BlockStore) -> list:
    return [BlockKey(t, c, b) for t, c in store.columns()
            for b in range(store.column_blocks(t, c))]


def test_replay_matches_oracle_lru():
    store = _store()
    keys = _keys(store)
    capacity = 12_000
    pool = BufferPool(store, capacity_bytes=capacity)
    oracle = OracleLRU(store, capacity)
    rng = np.random.default_rng(38)
    # Skewed toward a hot set so that both hits and evictions happen.
    picks = np.where(rng.random(3000) < 0.6,
                     rng.integers(0, 8, 3000), rng.integers(0, len(keys), 3000))
    for i in picks:
        key = keys[i]
        pool.get_block(key.table, key.column, key.block)
        oracle.get(key)
        assert list(pool._cache) == list(oracle.cache)
    assert (pool.hits, pool.misses) == (oracle.hits, oracle.misses)
    assert oracle.hits > 500 and oracle.misses > 500
    assert pool._cached_bytes == _cached_charge(pool)

    pool.evict_table("a")
    assert all(key.table == "b" for key in pool._cache)
    assert pool._cached_bytes == _cached_charge(pool)

    pool.clear()
    assert pool._cached_bytes == 0


def test_racing_readers_charge_a_block_once():
    store = _store()
    pool = BufferPool(store)
    workers = 4
    barrier = threading.Barrier(workers, timeout=10)
    read_block = store.read_block

    def read_after_all_missed(key):
        barrier.wait()  # every worker has missed before any inserts
        return read_block(key)

    store.read_block = read_after_all_missed
    keys = [BlockKey("a", column, 0) for column in ("k", "f", "s")]

    def scan():
        for key in keys:
            pool.get_block(key.table, key.column, key.block)

    threads = [threading.Thread(target=scan) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    store.read_block = read_block
    assert pool.misses == workers * len(keys)
    assert sorted(pool._cache, key=str) == sorted(keys, key=str)
    assert pool._cached_bytes == _cached_charge(pool)

    pool.evict_table("a")
    assert pool._cached_bytes == 0
