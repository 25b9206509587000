"""A stable-image fold that propagates first.

The checkpoint merges its window through the Read- and Write-PDT in one
pass and splits each layer's survivors at the merge's own cuts. This is
the older two-step form it replaced: Propagate the whole Write-PDT into
the Read-PDT (copying a pinned Read-PDT first), then merge the window
through the Read-PDT alone and split the survivors by SID. Both must
publish the same image and leave the same survivor Read-PDT.
"""

import numpy as np

from repro.core.pdt import PDT
from repro.core.stack import merge_scan_layers
from repro.storage.blocks import BlockStore
from repro.storage.buffer import BufferPool
from repro.storage.sparse_index import SparseIndex
from repro.storage.table import StableTable
from repro.txn.checkpoint import _truncate_wal_if_clean


def propagate_then_fold(manager, table: str, sid_lo: int,
                        sid_hi: int) -> int:
    """Fold ``[sid_lo, sid_hi)`` of ``table`` after a full Propagate;
    returns the number of Read-PDT entries folded."""
    state = manager.state_of(table)
    manager.propagate_write_to_read(table)
    old = state.stable
    n_rows = old.num_rows
    sid_lo = max(0, min(sid_lo, n_rows))
    sid_hi = min(sid_hi, n_rows)
    merged, run, folded = fold_one_layer(old, state.read_pdt, sid_lo, sid_hi)
    if not folded:
        return 0

    schema = state.schema
    arrays = {
        c: np.concatenate([old.read_rows(c, 0, sid_lo), *merged[c],
                           old.read_rows(c, sid_hi, n_rows)])
        for c in merged
    }
    survivor = PDT(schema, fanout=state.read_pdt.fanout)
    survivor.bulk_append_entries(run)

    pool = old.pool
    if manager.is_pinned(table):
        old.attach_storage(BufferPool(BlockStore(
            compressed=pool.store.compressed,
            block_rows=pool.store.block_rows)))
    if not survivor.is_empty():
        manager.wal.append_snapshot(table, survivor, lsn=manager._lsn,
                                    for_image_lsn=manager._lsn)
    pool.store.drop_table(table)
    new_stable = StableTable.from_arrays(table, schema, arrays, pool)
    new_stable.publish(manager._lsn)
    pool.evict_table(table)
    state.stable = new_stable
    state.read_pdt = survivor
    state.sparse_index = SparseIndex(new_stable)
    manager.wal.rebase_table(table, survivor, lsn=manager._lsn)
    _truncate_wal_if_clean(manager)
    return folded


def fold_one_layer(old, read_pdt, sid_lo: int, sid_hi: int):
    """Merge the stable window ``[sid_lo, sid_hi)`` (``sid_hi`` past the
    end: to the end) through ``read_pdt`` alone and split its entries by
    SID. Returns the merged ``{column: [arrays]}`` (None, with no block
    read, when the window holds no entry), the survivor run (those above
    shifted by the window's growth) and the number folded.
    """
    n_rows = old.num_rows
    sid_lo = max(0, min(sid_lo, n_rows))
    to_end = sid_hi >= n_rows
    sid_hi = min(sid_hi, n_rows)
    below = read_pdt.entries(0, sid_lo)
    above = [] if to_end else read_pdt.entries(sid_hi)
    folded = read_pdt.count() - len(below) - len(above)
    if not folded:
        return None, below + above, 0
    columns = list(old.schema.column_names)
    merged = {c: [] for c in columns}
    for _, arrays in merge_scan_layers(old, [read_pdt], columns=columns,
                                       start=sid_lo, stop=sid_hi):
        for c in columns:
            merged[c].append(arrays[c])
    shift = sum(len(a) for a in merged[columns[0]]) - (sid_hi - sid_lo)
    run = below + [(sid + shift, kind, payload)
                   for sid, kind, payload in above]
    return merged, run, folded
