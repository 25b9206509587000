"""The tuple-at-a-time key resolver (paper section 3.2, read literally).

A value-addressed update becomes positional by running a sparse-index-
restricted MergeScan of the sort-key columns and comparing the merged
keys *one tuple at a time*. This was the production single-row resolver
until ``repro.db.update_processor`` routed every write through the
vectorized ``resolve_batch_positions`` sweep; it lives on here, its walk
untouched, as the independent side of the "batch == scalar" and "point resolve ==
oracle" differential suites. :class:`ScalarUpdater` is the per-operation
updater built on it — ``PositionalUpdater`` with this resolver instead of
the production one — so entry-stream comparisons still pit two
implementations against each other.
"""

from repro.core.stack import merge_scan_layers
from repro.db import DuplicateKey, KeyNotFound


def _scan_keys_from(stable, layers, sparse_index, sk):
    """Yield ``(rid, key_tuple)`` of the merged image starting near ``sk``.

    Uses the (possibly stale) sparse index to skip granules that cannot
    contain ``sk``; thanks to ghost-respecting SIDs the index stays valid
    under any update load.
    """
    sk = tuple(sk)
    if sparse_index is not None:
        start = sparse_index.sid_range_for_key_range(sk, None).start
    else:
        start = 0
    key_cols = list(stable.schema.sort_key)
    for first_rid, arrays in merge_scan_layers(
        stable, layers, columns=key_cols, start=start, batch_rows=512
    ):
        columns = [arrays[c] for c in key_cols]
        for i in range(len(columns[0])):
            yield first_rid + i, tuple(col[i] for col in columns)


def find_insert_position(stable, layers, sparse_index, sk) -> int:
    """RID of the first live tuple with sort key > ``sk`` (the insert-before
    position); equals the image row count when ``sk`` sorts last.

    Raises :class:`DuplicateKey` if a live tuple already carries ``sk``.
    """
    sk = tuple(sk)
    rid = None
    for rid, key in _scan_keys_from(stable, layers, sparse_index, sk):
        if key == sk:
            raise DuplicateKey(f"live tuple with key {sk!r} already exists")
        if key > sk:
            return rid
    if rid is None:
        # Started past every key (or empty table): position = image size.
        return stable.num_rows + sum(layer.total_delta() for layer in layers)
    return rid + 1


def find_rid_by_key(stable, layers, sparse_index, sk) -> int:
    """RID of the live tuple whose sort key equals ``sk``."""
    sk = tuple(sk)
    for rid, key in _scan_keys_from(stable, layers, sparse_index, sk):
        if key == sk:
            return rid
        if key > sk:
            break
    raise KeyNotFound(f"no live tuple with key {sk!r}")


class ScalarUpdater:
    """Applies value-addressed updates to ``layers[-1]`` one operation at a
    time, each resolved by its own restarted scan."""

    def __init__(self, stable, layers, sparse_index):
        self.stable = stable
        self.layers = list(layers)
        self.sparse_index = sparse_index
        self.schema = stable.schema
        self.top = self.layers[-1]

    def insert(self, row) -> int:
        row = self.schema.coerce_row(row)
        sk = self.schema.sk_of(row)
        rid = find_insert_position(
            self.stable, self.layers, self.sparse_index, sk
        )
        self.top.add_insert(self.top.sk_rid_to_sid(sk, rid), rid, list(row))
        return rid

    def delete_by_key(self, sk) -> int:
        sk = tuple(sk)
        rid = find_rid_by_key(self.stable, self.layers, self.sparse_index, sk)
        self.top.add_delete(rid, sk)
        return rid

    def modify_by_key(self, sk, column: str, value) -> int:
        if self.schema.is_sk_column(column):
            raise ValueError(f"column {column!r} is part of the sort key")
        sk = tuple(sk)
        rid = find_rid_by_key(self.stable, self.layers, self.sparse_index, sk)
        self.top.add_modify(rid, self.schema.column_index(column), value)
        return rid
