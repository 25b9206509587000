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
from collections import namedtuple
from itertools import chain, takewhile

import numpy as np

from .merge import BlockMerger, merge_row_stream
from .pdt import PDT
from .propagate import propagate_batch, propagated
from .types import KIND_INS


class _Bound:
    """One end of a stable SID window, carried up the stack.

    ``pos`` is the bound in the current layer's SID domain; the bound key
    is the stable key at ``sid - 1``. A bound at SID 0 sorts below every
    key and an open upper end above every key, so neither reads one.
    ``block`` is ``(first_sid, sort-key arrays)`` of the stored block the
    merge read first, or None: a bound key inside it costs no pool read.
    """

    __slots__ = ("stable", "sid", "pos", "open", "_key", "_block")

    def __init__(self, stable, sid: int, open_end: bool = False,
                 block=None):
        self.stable = stable
        self.sid = self.pos = sid
        self.open = open_end
        self._key = None
        self._block = block

    def _below(self, pdt, ref, keyed: bool) -> bool:
        """Whether insert ``ref``, positioned exactly at the bound, sorts
        at or below it."""
        if not keyed or self.sid == 0:
            return False
        if self._key is None:
            at = self.sid - 1
            first, keys = self._block or (0, None)
            if keys is not None and first <= at < first + len(keys[0]):
                self._key = tuple(col[at - first] for col in keys)
            else:
                self._key = self.stable.sk_at(at)
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


#: How a window cut one layer (see :func:`merge_scan_layers`).
LayerCut = namedtuple("LayerCut", "start_sid stop_sid n a b delta")


def key_run(columns, key, a: int = 0, b: int | None = None):
    """Narrow ``[a, b)`` of sorted sort-key ``columns`` (leading columns
    first) to the rows whose key prefix equals ``key``: ``a`` becomes the
    first row whose prefix sorts at or above ``key``, ``b`` the first
    that sorts above it. A ``key`` longer than ``columns`` is compared
    on the columns given."""
    if b is None:
        b = len(columns[0])
    for col, value in zip(columns, key):
        if a == b:
            break
        run = col[a:b]
        b = a + int(np.searchsorted(run, value, side="right"))
        a += int(np.searchsorted(run, value, side="left"))
    return a, b


def merge_scan_layers(
    stable,
    layers,
    columns=None,
    start: int = 0,
    stop: int | None = None,
    batch_rows: int | None = None,
    low: tuple | None = None,
    high: tuple | None = None,
    cuts: list | None = None,
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
    translated bound, and not at all when it lies in the first stored
    block the merge read.

    ``low`` / ``high`` are inclusive sort-key (or prefix) bounds of the
    tuples the caller wants (DESIGN.md, "Key narrowing"). Before any
    layer exports entries, the window's first stored block is read and
    the window narrowed inside it: ``start`` up to the block's first SID
    keyed ``>= low``, ``stop`` down to one past its first SID keyed
    ``> high`` when the block holds one — still a window, holding every
    tuple keyed in ``[low, high]``; the caller still trims to the bounds.
    Narrowing compares the leading sort-key columns among ``columns``.

    Input batches are at most ``batch_rows`` long and never straddle a
    stored block; None (every caller but the property tests) merges one
    stored block per batch.

    A ``cuts`` list receives one :data:`LayerCut` per non-empty layer,
    bottom-up, by the time the call returns, before a stored block is
    read (with ``low`` / ``high``: on the first ``next()``). The layer
    exported its ``n`` entries with SID in ``[start_sid, stop_sid)``
    (None: to the end), the window holds indices ``[a, b)`` of them,
    changing its size by ``delta``.
    """
    if columns is None:
        columns = stable.schema.column_names
    n = stable.num_rows
    start = min(start, n)
    stop = n if stop is None or stop >= n else max(stop, start)
    stream = stable.scan(columns=columns, start=start, stop=stop,
                         batch_rows=batch_rows)
    if (low is not None or high is not None) and start < stop:
        return _narrowed(stable, layers, columns, stream, start, stop,
                         low, high, cuts)
    return _stacked(stable, layers, columns, stream, start, stop, None, cuts)


def _narrowed(stable, layers, columns, stream, start, stop, low, high, cuts):
    """Narrow the window inside its first stored block, then cut."""
    first_sid, arrays = next(stream)
    end = first_sid + len(arrays[columns[0]])
    keys = [arrays[c] for c in
            takewhile(arrays.__contains__, stable.schema.sort_key)]
    block = None
    if keys:
        if len(keys) == len(stable.schema.sort_key):
            block = (first_sid, keys)
        if low is not None:
            start = first_sid + key_run(keys, low)[0]
        if high is not None:
            past = first_sid + key_run(keys, high, start - first_sid)[1]
            if past < end:
                stop = past + 1
    if start > first_sid or stop < end:
        arrays = {c: a[start - first_sid:min(stop, end) - first_sid]
                  for c, a in arrays.items()}
    stream = chain([(start, arrays)] if start < min(stop, end) else [],
                   stream if stop > end else [])
    return (yield from _stacked(stable, layers, columns, stream, start, stop,
                                block, cuts))


def _stacked(stable, layers, columns, stream, start, stop, block, cuts):
    """Cut every layer at ``[start, stop)`` before a block is read."""
    lo = _Bound(stable, start, block=block)
    hi = _Bound(stable, stop, stop >= stable.num_rows, block=block)
    keyed = False
    for pdt in layers:
        if pdt.is_empty():
            continue  # an identity merge
        span = (lo.pos, None if hi.open else hi.pos + 1)
        width = hi.pos - lo.pos
        sids, kinds, refs = pdt.entry_lists(*span)
        a = lo.cut(pdt, sids, kinds, refs, keyed)
        b = hi.cut(pdt, sids, kinds, refs, keyed)
        if cuts is not None:
            cuts.append(LayerCut(*span, len(sids), a, b,
                                 hi.pos - lo.pos - width))
        if a or b < len(sids):
            sids, kinds, refs = sids[a:b], kinds[a:b], refs[a:b]
        stream = BlockMerger(pdt, columns).merge_batches(
            stream, (sids, kinds, refs), lo.pos)
        keyed = True
    return _drain(stream, hi.pos)


def _drain(stream, end: int):
    yield from stream
    return end


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


class WriteStack:
    """A table's committed Write layers, bottom-up, starting as one empty
    layer. A pin captures all of ``layers``, so live pins hold a bottom
    prefix, which never changes. A commit folds into the top layer, or
    into a fresh one above it when a pin holds the top; a top grown to
    the size of the layer below merges with it into a fresh layer, so
    depth stays logarithmic. Layers no pin holds fold in place first."""

    __slots__ = ("schema", "layers")

    def __init__(self, schema):
        self.schema = schema
        self.layers = (PDT(schema),)

    def count(self) -> int:
        return sum(layer.count() for layer in self.layers)

    def is_empty(self) -> bool:
        return all(layer.is_empty() for layer in self.layers)

    def propagate(self, trans, held: int) -> None:
        """Fold ``trans``, consecutive to the whole stack, into the top;
        live pins hold the bottom ``held`` layers."""
        layers = self.layers
        while len(layers) > held + 1:
            propagate_batch(layers[-2], layers[-1])
            layers = layers[:-1]
        if held == len(layers):
            layers += (PDT(self.schema),)
        propagate_batch(layers[-1], trans)
        while len(layers) > 1 and layers[-1].count() >= layers[-2].count():
            layers = layers[:-2] + (propagated(*layers[-2:]),)
        self.layers = layers
