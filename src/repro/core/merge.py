"""MergeScan: merging a stable scan with positional updates (Algorithm 2).

Two variants are provided:

* :func:`merge_row_stream` — the tuple-at-a-time next() loop of the paper's
  Algorithm 2, kept close to the pseudocode; used for clarity and as the
  oracle in differential tests.
* :class:`BlockMerger` — the block-pipelined vectorized variant the paper's
  evaluation uses ("as the skip value is typically large, in many cases
  this allows to pass through entire blocks of tuples unmodified"). For
  every incoming block it makes one Python pass over the PDT entries that
  land in it — the rows deletes drop, the output offsets of inserts and of
  the projected columns' modifies — and then builds each projected column
  with a fixed handful of array operations: a keep mask, an insert-slot
  mask and two fancy assignments, whatever the entry count. No per-row or
  per-entry Python loop runs on the column data, blocks with no PDT entry
  on a projected column pass through untouched (zero copy), and sort-key
  columns are never read unless projected.

Both work on any object implementing the PDT interface (FlatPDT or the
tree PDT) and on any batch source, so stacked layers (Read/Write/Trans)
compose by feeding one merger's output into the next — the whole stack
pipelines blocks without ever materializing an intermediate row list.
:func:`repro.core.stack.merge_scan_layers` is the one driver: it decides
which entries of each layer a SID window holds and chains the mergers.
"""

from __future__ import annotations

import numpy as np

from .types import KIND_DEL, KIND_INS, PDTError


def merge_row_stream(rows, pdt):
    """Yield the current table image given stable ``rows`` and a PDT.

    ``rows`` is any iterable of full tuples in SID order (the stable image,
    or the output of a lower merge layer, enabling stacking).
    """
    entries = pdt.iter_entries()
    entry = next(entries, None)
    sid = 0
    for row in rows:
        # Inserts at this SID precede the underlying tuple.
        while entry is not None and entry.sid == sid and entry.is_insert:
            yield tuple(pdt.values.get_insert(entry.ref))
            entry = next(entries, None)
        if entry is not None and entry.sid < sid:
            raise PDTError(f"unconsumed entry at sid {entry.sid} < scan {sid}")
        if entry is not None and entry.sid == sid and entry.is_delete:
            entry = next(entries, None)  # ghost: suppress the stable tuple
            sid += 1
            continue
        if entry is not None and entry.sid == sid and entry.is_modify:
            patched = list(row)
            while entry is not None and entry.sid == sid and entry.is_modify:
                patched[entry.kind] = pdt.values.get_modify(
                    entry.kind, entry.ref
                )
                entry = next(entries, None)
            yield tuple(patched)
        else:
            yield tuple(row)
        sid += 1
    # Trailing inserts positioned after the last underlying tuple.
    while entry is not None:
        if not entry.is_insert:
            raise PDTError(
                f"non-insert entry beyond table end: sid={entry.sid}"
            )
        yield tuple(pdt.values.get_insert(entry.ref))
        entry = next(entries, None)


class BlockMerger:
    """Vectorized positional merge of one PDT layer over a batch stream.

    A block costs one Python pass over the entries that land in it plus a
    fixed handful of array operations per projected column, whatever the
    entry count. The pass marks the rows deletes drop in a keep mask and
    collects the output offsets and refs of the inserts and, per projected
    column, the output offsets and values of its modifies (modifies of
    unprojected columns are skipped). A column is then ``src[keep]`` when
    the block has deletes, scattered through an insert-slot mask into one
    ``np.empty`` when it has inserts, and finished with one fancy
    assignment of the insert values and one of its modify values — object
    (string) columns included. A column no entry changes, in a block
    without deletes or inserts, goes out by reference, and so does the
    whole block when no entry touches a projected column.
    """

    def __init__(self, pdt, columns):
        self.pdt = pdt
        self.columns = list(columns)
        self.schema = pdt.schema
        self._col_indexes = [
            self.schema.column_index(c) for c in self.columns
        ]
        self._wanted = frozenset(self._col_indexes)

    def merge_batches(self, batches, entries, first_rid: int):
        """Yield ``(first_rid, {column: ndarray})`` with updates applied.

        ``batches`` yields ``(first_sid, {column: ndarray})`` in SID order;
        the SID domain of this merger's PDT must be the position domain of
        the incoming stream. ``entries`` is the ``(sids, kinds, refs)`` cut
        of the PDT's entry list that belongs to the stream and
        ``first_rid`` the output position of the first produced row. Every
        entry handed in is emitted: the ones positioned after the last
        incoming tuple must be inserts, and follow it.
        """
        if not self.columns:
            raise ValueError("merge requires at least one output column")
        sids, kinds, refs = entries
        m = len(sids)
        i = 0
        out_rid = first_rid
        for first_sid, arrays in batches:
            n = len(arrays[self.columns[0]])
            if i < m and sids[i] < first_sid + n:
                arrays, n, i = self._splice(arrays, n, first_sid, entries, i)
            if n:
                yield out_rid, arrays
                out_rid += n
        if i < m:
            # Inserts positioned after the last incoming tuple.
            if any(kind != KIND_INS for kind in kinds[i:]):
                raise PDTError(
                    f"non-insert entry beyond scan end: sid={sids[i]}"
                )
            values = self._insert_values(refs[i:])
            yield out_rid, {
                col: np.asarray(values[idx],
                                dtype=self.schema.dtype_of(col).numpy_dtype)
                for col, idx in zip(self.columns, self._col_indexes)
            }

    # -- internals -----------------------------------------------------------

    def _splice(self, arrays, n: int, first_sid: int, entries, i: int):
        """Merge the entries from ``i`` that land in this block into it.

        Returns the merged arrays, their length and the index of the first
        entry past the block. Entries are in (SID, RID) order, so the
        inserts at a SID precede that tuple's DEL or MOD chain: an entry's
        output offset is its block-relative SID plus the inserts minus the
        deletes seen before it.
        """
        sids, kinds, refs = entries
        stop_sid = first_sid + n
        m = len(sids)
        wanted = self._wanted
        get_modify = self.pdt.values.get_modify
        keep = None  # one byte per block row, zeroed where a delete drops it
        ins_at: list[int] = []
        ins_refs: list[int] = []
        mods: dict[int, tuple[list[int], list]] = {}
        shift = -first_sid  # output offset of SID s is s + shift
        while i < m:
            sid = sids[i]
            if sid >= stop_sid:
                break
            kind = kinds[i]
            if kind == KIND_INS:
                ins_at.append(sid + shift)
                ins_refs.append(refs[i])
                shift += 1
            elif kind == KIND_DEL:
                if keep is None:
                    keep = bytearray(b"\x01") * n
                keep[sid - first_sid] = 0
                shift -= 1
            elif kind in wanted:
                slot = mods.get(kind)
                if slot is None:
                    slot = mods[kind] = ([], [])
                slot[0].append(sid + shift)
                slot[1].append(get_modify(kind, refs[i]))
            i += 1
        out_n = n + first_sid + shift  # plus inserts, minus deletes
        if not out_n or (keep is None and not ins_at and not mods):
            return arrays, out_n, i
        if keep is not None:
            keep = np.frombuffer(keep, dtype=bool)
        if ins_at:
            ins_idx = np.array(ins_at, dtype=np.intp)
            stable_slots = np.ones(out_n, dtype=bool)
            stable_slots[ins_idx] = False
            ins_values = self._insert_values(ins_refs)
        out = {}
        for col, col_idx in zip(self.columns, self._col_indexes):
            src = arrays[col]
            dst = src if keep is None else src[keep]
            if ins_at:
                merged = np.empty(out_n, dtype=src.dtype)
                merged[stable_slots] = dst
                merged[ins_idx] = ins_values[col_idx]
                dst = merged
            col_mods = mods.get(col_idx)
            if col_mods is not None:
                if dst is src:
                    dst = src.copy()
                dst[col_mods[0]] = col_mods[1]
            out[col] = dst
        return out, out_n, i

    def _insert_values(self, refs):
        """Column-major values of the insert rows ``refs``: one tuple per
        schema column, in ``refs`` order."""
        get_insert = self.pdt.values.get_insert
        return list(zip(*[get_insert(r) for r in refs]))


def reblock(stream, block_rows: int):
    """Cut a ``(first_pos, {col: ndarray})`` stream's long blocks into
    views shorter than ``2 * block_rows`` rows.

    A merged block is one stored block's merge: deletes shrink it,
    inserts grow it, and a trailing-insert run may have any length. A
    block shorter than ``2 * block_rows`` rows passes as the same object;
    a longer one is cut into ``block_rows``-row views, the last one
    taking the remainder. Nothing is copied or buffered, so the output
    blocks are a function of the input blocks alone — every run over one
    pinned version cuts the same sequence. The bound is twice the stored
    block, not the stored block, because an insert-heavy block is
    usually only a few rows longer than it: cutting at ``block_rows``
    would ship nearly every dirty block as two frames, one of them tiny.
    """
    if block_rows <= 0:
        raise ValueError("block_rows must be positive")
    for first_pos, arrays in stream:
        n = len(next(iter(arrays.values())))
        if n < 2 * block_rows:
            if n:
                yield first_pos, arrays
            continue
        last = (n // block_rows - 1) * block_rows
        for lo in range(0, last, block_rows):
            hi = lo + block_rows
            yield first_pos + lo, {c: a[lo:hi] for c, a in arrays.items()}
        yield first_pos + last, {c: a[last:] for c, a in arrays.items()}


def merge_rows(stable_rows, pdt) -> list[tuple]:
    """Materialized tuple-at-a-time merge (testing convenience)."""
    return list(merge_row_stream(stable_rows, pdt))
