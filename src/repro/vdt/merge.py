"""Value-based MergeScan for the VDT baseline.

Implements the physical plan the paper gives for VDT reads::

    MergeUnion[SK](Scan(ins), MergeDiff[SK](Scan(stable), Scan(del)))

Two costs distinguish this from positional merging, both reproduced here:

1. **I/O**: the stable table's sort-key columns are always scanned, even
   when the query does not project them (they are added to the scan set
   and charged to the buffer pool / I/O statistics).
2. **CPU**: every delta entry is located by *value* within each block via
   per-key-column binary searches — string comparisons and multi-column
   keys make this progressively more expensive (Figures 17 and 18), while
   the PDT's positional merge does no key work at all.
"""

from __future__ import annotations

import numpy as np

from .vdt import VDT


def _narrow(key_arrays, key_tuple, lo: int, hi: int):
    """Range of positions in SK-sorted ``key_arrays`` equal to
    ``key_tuple``, narrowing one key column at a time (cost grows with the
    number of sort-key columns — deliberately value-based work)."""
    for arr, val in zip(key_arrays, key_tuple):
        segment = arr[lo:hi]
        left = int(np.searchsorted(segment, val, side="left"))
        right = int(np.searchsorted(segment, val, side="right"))
        lo, hi = lo + left, lo + right
        if lo >= hi:
            break
    return lo, hi


def _lower_bound(key_arrays, key_tuple, n: int) -> int:
    """First position whose composite key is >= ``key_tuple``."""
    lo, hi = 0, n
    eq_lo, eq_hi = 0, n
    for i, (arr, val) in enumerate(zip(key_arrays, key_tuple)):
        segment = arr[eq_lo:eq_hi]
        left = eq_lo + int(np.searchsorted(segment, val, side="left"))
        right = eq_lo + int(np.searchsorted(segment, val, side="right"))
        if i == len(key_tuple) - 1:
            return left
        if left >= right:
            return left
        eq_lo, eq_hi = left, right
    return eq_lo


def vdt_merge_scan(stable, vdt: VDT, columns=None,
                   batch_rows: int | None = None):
    """Block-oriented value-based merge scan over a full table.

    Yields ``(first_rid, {column: ndarray})``. Sort-key columns are always
    fetched from storage (and charged as I/O); they are included in the
    output only when requested.
    """
    schema = stable.schema
    if columns is None:
        columns = schema.column_names
    columns = list(columns)
    if not columns:
        raise ValueError("merge requires at least one output column")
    sk_cols = list(schema.sort_key)
    scan_cols = list(dict.fromkeys(columns + sk_cols))  # ordered union
    col_indexes = {c: schema.column_index(c) for c in columns}

    ins_iter = vdt.insert_items()
    del_iter = vdt.delete_keys()
    pending_ins = next(ins_iter, None)
    pending_del = next(del_iter, None)

    out_rid = 0
    n_blocks_seen = 0
    for first_sid, arrays in stable.scan(columns=scan_cols,
                                         batch_rows=batch_rows):
        n_blocks_seen += 1
        key_arrays = [arrays[c] for c in sk_cols]
        n = len(key_arrays[0])
        if n == 0:
            continue
        block_last = tuple(arr[-1] for arr in key_arrays)

        # MergeDiff: locate and mask out deleted keys in this block.
        keep = None
        while pending_del is not None and pending_del <= block_last:
            lo, hi = _narrow(key_arrays, pending_del, 0, n)
            if lo < hi:
                if keep is None:
                    keep = np.ones(n, dtype=bool)
                keep[lo] = False
                pending_del = next(del_iter, None)
            else:
                # Key absent from this block (boundary effect): it must be
                # in a later block only if greater than block_last, which
                # the loop guard excludes — treat as consumed.
                pending_del = next(del_iter, None)

        # MergeUnion: collect inserts belonging before/inside this block.
        ins_positions: list[int] = []
        ins_rows: list[list] = []
        while pending_ins is not None and pending_ins[0] <= block_last:
            sk, row = pending_ins
            pos = _lower_bound(key_arrays, sk, n)
            ins_positions.append(pos)
            ins_rows.append(row)
            pending_ins = next(ins_iter, None)

        out = {}
        kept_before = None
        if keep is not None and ins_positions:
            kept_before = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(keep, out=kept_before[1:])
        for col in columns:
            arr = arrays[col]
            if keep is not None:
                arr = arr[keep]
            if ins_positions:
                if kept_before is None:
                    positions = np.asarray(ins_positions, dtype=np.int64)
                else:
                    positions = kept_before[
                        np.asarray(ins_positions, dtype=np.int64)
                    ]
                values = [row[col_indexes[col]] for row in ins_rows]
                if arr.dtype == object:
                    merged = np.empty(len(arr) + len(values), dtype=object)
                    mask = np.ones(len(merged), dtype=bool)
                    where = positions + np.arange(len(positions))
                    mask[where] = False
                    merged[~mask] = values
                    merged[mask] = arr
                    arr = merged
                else:
                    arr = np.insert(arr, positions, values)
            out[col] = arr
        out_n = len(out[columns[0]])
        if out_n:
            yield out_rid, out
            out_rid += out_n

    # Drain inserts sorting after the last stable tuple.
    tail_rows = []
    while pending_ins is not None:
        tail_rows.append(pending_ins[1])
        pending_ins = next(ins_iter, None)
    if tail_rows:
        out = {}
        for col in columns:
            dtype = schema.dtype_of(col).numpy_dtype
            if dtype == object:
                arr = np.empty(len(tail_rows), dtype=object)
                arr[:] = [row[col_indexes[col]] for row in tail_rows]
            else:
                arr = np.asarray(
                    [row[col_indexes[col]] for row in tail_rows], dtype=dtype
                )
            out[col] = arr
        yield out_rid, out


def vdt_merge_rows(stable_rows, vdt: VDT) -> list[tuple]:
    """Tuple-at-a-time MergeUnion/MergeDiff (reference implementation)."""
    schema = vdt.schema
    ins_iter = vdt.insert_items()
    del_iter = vdt.delete_keys()
    pending_ins = next(ins_iter, None)
    pending_del = next(del_iter, None)
    out = []
    for row in stable_rows:
        sk = schema.sk_of(row)
        while pending_ins is not None and pending_ins[0] < sk:
            out.append(tuple(pending_ins[1]))
            pending_ins = next(ins_iter, None)
        while pending_del is not None and pending_del < sk:
            pending_del = next(del_iter, None)
        if pending_del is not None and pending_del == sk:
            pending_del = next(del_iter, None)
            continue
        out.append(tuple(row))
    while pending_ins is not None:
        out.append(tuple(pending_ins[1]))
        pending_ins = next(ins_iter, None)
    return out
