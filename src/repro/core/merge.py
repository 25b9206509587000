"""MergeScan: merging a stable scan with positional updates (Algorithm 2).

Two variants are provided:

* :func:`merge_row_stream` — the tuple-at-a-time next() loop of the paper's
  Algorithm 2, kept close to the pseudocode; used for clarity and as the
  oracle in differential tests.
* :class:`BlockMerger` — the block-pipelined vectorized variant the paper's
  evaluation uses ("as the skip value is typically large, in many cases
  this allows to pass through entire blocks of tuples unmodified"). For
  every incoming block it first builds one *splice plan* — the runs of
  unmodified stable rows between consecutive PDT entries, plus the output
  offsets where inserts land and modifies scatter — and then replays that
  plan once per projected column with whole ``np.ndarray`` slice copies.
  No per-row Python loop runs on the data path, blocks with no PDT entries
  pass through untouched (zero copy), and sort-key columns are never read.

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

#: Default number of rows per merged output block. Chosen to keep a block
#: of a handful of int64/float64 columns comfortably inside L2 while still
#: amortizing per-block Python overhead (see DESIGN.md).
MERGE_BLOCK_ROWS = 1024


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


class _SplicePlan:
    """One block's merge, described once and replayed per column.

    ``segments`` lists ``(out_start, src_start, src_stop)`` copy runs of
    stable rows (block-relative); ``ins_positions`` / ``ins_rows`` are the
    output offsets and full tuples of spliced inserts; ``mods`` maps a
    column name to parallel ``(out_offsets, values)`` lists. ``out_n`` is
    the merged block length. A plan that turns out to be the identity is
    marked ``passthrough`` so callers can skip all copying.
    """

    __slots__ = (
        "out_n", "segments", "ins_positions", "ins_rows", "mods",
        "passthrough",
    )

    def __init__(self):
        self.out_n = 0
        self.segments: list[tuple[int, int, int]] = []
        self.ins_positions: list[int] = []
        self.ins_rows: list = []
        self.mods: dict[str, tuple[list[int], list]] = {}
        self.passthrough = False


class BlockMerger:
    """Vectorized positional merge of one PDT layer over a batch stream."""

    def __init__(self, pdt, columns):
        self.pdt = pdt
        self.columns = list(columns)
        self.schema = pdt.schema
        self._col_indexes = [
            self.schema.column_index(c) for c in self.columns
        ]
        self._wanted = frozenset(self.columns)

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
            stop_sid = first_sid + n
            if i >= m or sids[i] >= stop_sid:
                # Fast path: no PDT entry lands in this block — the whole
                # block passes through unmodified, straight from storage.
                if n:
                    yield out_rid, arrays
                    out_rid += n
                continue
            plan, i = self._plan(sids, kinds, refs, i, first_sid, n)
            if plan.passthrough:
                if n:
                    yield out_rid, arrays
                    out_rid += n
                continue
            if plan.out_n:
                yield out_rid, self._apply(plan, arrays)
                out_rid += plan.out_n
        if i < m:
            # Inserts positioned after the last incoming tuple.
            if any(kind != KIND_INS for kind in kinds[i:]):
                raise PDTError(
                    f"non-insert entry beyond scan end: sid={sids[i]}"
                )
            yield out_rid, self._insert_rows_only(refs[i:])

    # -- internals -----------------------------------------------------------

    def _plan(self, sids, kinds, refs, i: int, first_sid: int, n: int):
        """Consume this block's entries into a :class:`_SplicePlan`.

        Walks the entry arrays exactly once; entries are in (SID, RID)
        order, so inserts at a SID precede that tuple's DEL or MOD chain
        and a delete's ghost can never be modified afterwards — which is
        what lets ``src`` advance monotonically.
        """
        plan = _SplicePlan()
        segments = plan.segments
        stop_sid = first_sid + n
        out_pos = 0
        src = 0
        values = self.pdt.values
        schema_cols = self.schema.columns
        wanted = self._wanted
        m = len(sids)
        while i < m:
            sid = sids[i]
            if sid >= stop_sid:
                break
            rel = sid - first_sid
            kind = kinds[i]
            if kind == KIND_INS:
                if rel > src:
                    segments.append((out_pos, src, rel))
                    out_pos += rel - src
                    src = rel
                plan.ins_positions.append(out_pos)
                plan.ins_rows.append(values.get_insert(refs[i]))
                out_pos += 1
            elif kind == KIND_DEL:
                if rel > src:
                    segments.append((out_pos, src, rel))
                    out_pos += rel - src
                src = rel + 1
            else:
                name = schema_cols[kind].name
                if name in wanted:
                    slot = plan.mods.get(name)
                    if slot is None:
                        slot = plan.mods[name] = ([], [])
                    slot[0].append(out_pos + (rel - src))
                    slot[1].append(values.get_modify(kind, refs[i]))
            i += 1
        if src < n:
            segments.append((out_pos, src, n))
            out_pos += n - src
        plan.out_n = out_pos
        plan.passthrough = (
            not plan.ins_rows
            and not plan.mods
            and len(segments) == 1
            and segments[0] == (0, 0, n)
        )
        return plan, i

    def _apply(self, plan: _SplicePlan, arrays):
        """Replay one splice plan against every projected column."""
        out = {}
        ins_idx = None
        for col, col_idx in zip(self.columns, self._col_indexes):
            src_arr = arrays[col]
            dst = np.empty(plan.out_n, dtype=src_arr.dtype)
            for out_start, src_start, src_stop in plan.segments:
                dst[out_start:out_start + (src_stop - src_start)] = \
                    src_arr[src_start:src_stop]
            col_mods = plan.mods.get(col)
            if col_mods is not None:
                idx, vals = col_mods
                if dst.dtype == object:
                    for i, v in zip(idx, vals):
                        dst[i] = v
                else:
                    dst[np.asarray(idx, dtype=np.intp)] = \
                        np.asarray(vals, dtype=dst.dtype)
            if plan.ins_rows:
                if ins_idx is None:
                    ins_idx = np.asarray(plan.ins_positions, dtype=np.intp)
                vals = [row[col_idx] for row in plan.ins_rows]
                if dst.dtype == object:
                    for i, v in zip(plan.ins_positions, vals):
                        dst[i] = v
                else:
                    dst[ins_idx] = np.asarray(vals, dtype=dst.dtype)
            out[col] = dst
        return out

    def _insert_rows_only(self, refs):
        out = {}
        rows = [self.pdt.values.get_insert(r) for r in refs]
        for col, col_idx in zip(self.columns, self._col_indexes):
            dtype = self.schema.dtype_of(col).numpy_dtype
            if dtype == object:
                arr = np.empty(len(rows), dtype=object)
                arr[:] = [row[col_idx] for row in rows]
            else:
                arr = np.asarray([row[col_idx] for row in rows], dtype=dtype)
            out[col] = arr
        return out


def reblock(stream, block_rows: int = MERGE_BLOCK_ROWS):
    """Normalize a ``(first_pos, {col: ndarray})`` stream to fixed-size blocks.

    Merged streams produce blocks whose sizes drift with the local net
    delta (deletes shrink a block, inserts grow it). Consumers that want a
    steady block size — operator pipelines sized for a cache budget, the
    fixed-stride kernels in :mod:`repro.engine` — wrap the stream in
    ``reblock``. Full input blocks that already match ``block_rows`` pass
    through without copying; only stragglers are stitched.
    """
    if block_rows <= 0:
        raise ValueError("block_rows must be positive")
    pending: list[dict] = []  # buffered partial batches, in order
    pending_rows = 0
    pos = None

    def flush(count):
        nonlocal pending, pending_rows, pos
        take, taken = [], 0
        while taken < count:
            head = pending[0]
            head_n = len(next(iter(head.values())))
            if taken + head_n <= count:
                take.append(head)
                taken += head_n
                pending.pop(0)
            else:
                split = count - taken
                take.append({c: a[:split] for c, a in head.items()})
                pending[0] = {c: a[split:] for c, a in head.items()}
                taken = count
        if len(take) == 1:
            block = take[0]
        else:
            block = {
                c: np.concatenate([piece[c] for piece in take])
                for c in take[0]
            }
        out = (pos, block)
        pos += count
        pending_rows -= count
        return out

    for first_pos, arrays in stream:
        n = len(next(iter(arrays.values())))
        if n == 0:
            continue
        if pos is None:
            pos = first_pos
        if not pending and n == block_rows:
            yield pos, arrays  # aligned full block: zero-copy pass-through
            pos += n
            continue
        pending.append(arrays)
        pending_rows += n
        while pending_rows >= block_rows:
            yield flush(block_rows)
    if pending_rows:
        yield flush(pending_rows)


def merge_rows(stable_rows, pdt) -> list[tuple]:
    """Materialized tuple-at-a-time merge (testing convenience)."""
    return list(merge_row_stream(stable_rows, pdt))
