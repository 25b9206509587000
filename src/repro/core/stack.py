"""Stacked differential structures (paper section 2, "Stacking").

A table image at time t is the stable image merged with a bottom-up stack
of PDT layers (equation (9)): typically Read-PDT, Write-PDT snapshot, and
Trans-PDT. Each layer's SID domain is the RID domain of the layer below.
This module composes :class:`~repro.core.merge.BlockMerger` instances over
a stable scan, and is the one place that says which entries of each layer
a stable SID window holds (:func:`merge_scan_layers`).

The composition is a *block pipeline*: every layer is a generator splicing
its updates into the blocks of the layer below, so a block flows from the
decoded storage block through the whole Read/Write/Trans stack — and out
to the consumer — before the next block is touched. No intermediate row
list (or intermediate relation) is ever materialized, and blocks no layer
touches are passed through the entire stack by reference.
"""

from __future__ import annotations

from bisect import bisect_left

from .merge import MERGE_BLOCK_ROWS, BlockMerger, merge_row_stream
from .types import KIND_INS


class _Bound:
    """One end of a stable SID window, carried up the stack.

    ``pos`` is the bound in the current layer's SID domain; the bound key
    is the stable key at ``sid - 1``. A bound at SID 0 sorts below every
    key and an open upper end above every key, so neither reads one.
    """

    __slots__ = ("stable", "sid", "pos", "open", "_key")

    def __init__(self, stable, sid: int, open_end: bool = False):
        self.stable = stable
        self.sid = self.pos = sid
        self.open = open_end
        self._key = None

    def _below(self, pdt, ref, keyed: bool) -> bool:
        """Whether insert ``ref``, positioned exactly at the bound, sorts
        at or below it."""
        if not keyed or self.sid == 0:
            return False
        if self._key is None:
            self._key = self.stable.sk_at(self.sid - 1)
        return pdt.schema.sk_of(pdt.values.get_insert(ref)) <= self._key

    def cut(self, pdt, sids, kinds, refs, keyed: bool) -> int:
        """Index where this bound cuts ``pdt``'s exported ``(sids, kinds,
        refs)``; moves ``pos`` up into the next layer's SID domain."""
        if self.open:  # all that sits at the end is trailing inserts
            self.pos += pdt.total_delta()
            return len(sids)
        at = end = bisect_left(sids, self.pos)
        # Inserts lead the entries at a SID, in key order.
        while (end < len(sids) and sids[end] == self.pos
               and kinds[end] == KIND_INS
               and self._below(pdt, refs[end], keyed)):
            end += 1
        self.pos += pdt.delta_before_sid(self.pos) + (end - at)
        return end


def merge_scan_layers(
    stable,
    layers,
    columns=None,
    start: int = 0,
    stop: int | None = None,
    batch_rows: int = MERGE_BLOCK_ROWS,
):
    """Block-oriented MergeScan of a stable SID window through a stack of
    PDT layers, bottom-up.

    ``layers`` lists PDTs from the lowest (closest to the stable table,
    e.g. the Read-PDT) to the highest (e.g. a Trans-PDT). Yields
    ``(first_rid, {column: ndarray})`` in the topmost layer's RID domain;
    the generator's return value is the RID just past the window.

    The window ``[start, stop)`` is the set of image tuples whose sort key
    lies in ``(key[start-1], key[stop-1]]`` (DESIGN.md, "What a window
    means"). ``start`` 0 leaves the lower end open; ``stop`` None or
    >= ``num_rows`` leaves the upper end open, which takes trailing
    inserts. This is the one place that turns a window into per-layer
    bounds, the read-side mirror of Algorithm 6: the next layer's bound is
    ``pos + delta_before_sid(pos)`` plus the inserts at exactly ``pos``
    whose key is <= the bound key. The first non-empty layer needs no key
    test — its SID domain is the stable image, where Algorithm 6 already
    put every insert on the right side of the bound tuple, ghost or not —
    so the key is read only when a higher layer holds an insert at its
    translated bound.
    """
    if columns is None:
        columns = stable.schema.column_names
    n = stable.num_rows
    start = min(start, n)
    open_end = stop is None or stop >= n
    stop = n if open_end else max(stop, start)
    lo, hi = _Bound(stable, start), _Bound(stable, stop, open_end)
    stream = stable.scan(columns=columns, start=start, stop=stop,
                         batch_rows=batch_rows)
    keyed = False
    for pdt in layers:
        if pdt.is_empty():
            continue  # an identity merge
        sids, kinds, refs = pdt.entry_lists(
            lo.pos, None if open_end else hi.pos + 1)
        a = lo.cut(pdt, sids, kinds, refs, keyed)
        b = hi.cut(pdt, sids, kinds, refs, keyed)
        if a or b < len(sids):
            sids, kinds, refs = sids[a:b], kinds[a:b], refs[a:b]
        stream = BlockMerger(pdt, columns).merge_batches(
            stream, (sids, kinds, refs), lo.pos)
        keyed = True
    yield from stream
    return hi.pos


def merge_rows_layers(stable_rows, layers) -> list[tuple]:
    """Tuple-at-a-time merge through a stack of layers (testing path)."""
    stream = iter(stable_rows)
    for pdt in layers:
        stream = merge_row_stream(stream, pdt)
    return list(stream)


def image_rows(stable, layers) -> list[tuple]:
    """Materialize the full current table image as Python tuples."""
    return merge_rows_layers(stable.rows(), layers)


def total_delta(layers) -> int:
    """Net row-count change contributed by a stack of layers."""
    return sum(layer.total_delta() for layer in layers)
