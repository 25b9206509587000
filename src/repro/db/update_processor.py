"""Translate value-addressed (SQL-style) updates into positional ones.

Deletion and modification requests identify tuples by value; inserts must
find their SK-ordered position. The paper (section 3.2) resolves both with
a query: a MergeScan restricted by the sparse index produces the RIDs, and
Algorithm 6 (``sk_rid_to_sid``) then pins inserts relative to ghost tuples.
This module implements that machinery over a stack of PDT layers.

There is one resolver, :func:`resolve_batch_positions`: sorted keys in,
``(found, position)`` out, from one sparse-index-bounded, early-stopping
sweep of the merged key columns with ``np.searchsorted`` per block. Every
write reaches it:

* :func:`find_rid_by_key` / :func:`find_insert_position` — the single-row
  form (a batch of one key), called by :class:`PositionalUpdater`, which
  is what ``Transaction.insert/delete/modify`` run.
* :class:`BatchUpdater` — a whole batch is sorted by sort key, every
  target RID comes out of one sweep, and the updates are ingested into
  the top PDT — in one ``bulk_append_entries`` run when the top layer
  starts empty, through the scalar primitives (with positions
  precomputed) otherwise.

The tuple-at-a-time resolver this replaced is the differential oracle in
``tests/oracles/scalar_resolve.py``.
"""

from __future__ import annotations

import bisect

import numpy as np

from ..core.stack import key_run, merge_scan_layers
from ..core.types import KIND_DEL, KIND_INS
from ..storage.sparse_index import SparseIndex


class KeyNotFound(KeyError):
    """No live tuple carries the requested sort key."""


class DuplicateKey(ValueError):
    """An insert would duplicate the sort key of a live tuple."""


def find_insert_position(stable, layers, sparse_index, sk) -> int:
    """RID of the first live tuple with sort key > ``sk`` (the insert-before
    position); equals the image row count when ``sk`` sorts last.

    Raises :class:`DuplicateKey` if a live tuple already carries ``sk``.
    """
    sk = tuple(sk)
    (found, pos), = resolve_batch_positions(stable, layers, sparse_index,
                                            [sk])
    if found:
        raise DuplicateKey(f"live tuple with key {sk!r} already exists")
    return pos


def find_rid_by_key(stable, layers, sparse_index, sk) -> int:
    """RID of the live tuple whose sort key equals ``sk``."""
    sk = tuple(sk)
    (found, pos), = resolve_batch_positions(stable, layers, sparse_index,
                                            [sk])
    if not found:
        raise KeyNotFound(f"no live tuple with key {sk!r}")
    return pos


def _image_size(stable, layers) -> int:
    size = stable.num_rows
    for layer in layers:
        size += layer.total_delta()
    return size


class PositionalUpdater:
    """Applies value-addressed updates to the *top* PDT layer of a stack.

    ``layers`` is the full bottom-up stack used for reads (e.g.
    ``[read, *write layers, trans]``); updates land in ``layers[-1]``.
    """

    def __init__(self, stable, layers, sparse_index: SparseIndex | None):
        if not layers:
            raise ValueError("need at least one PDT layer to update")
        self.stable = stable
        self.layers = list(layers)
        self.sparse_index = sparse_index
        self.schema = stable.schema

    @property
    def top(self):
        return self.layers[-1]

    def insert(self, row) -> int:
        """Insert a full tuple; returns the RID it received."""
        row = self.schema.coerce_row(row)
        sk = self.schema.sk_of(row)
        rid = find_insert_position(
            self.stable, self.layers, self.sparse_index, sk
        )
        sid = self.top.sk_rid_to_sid(sk, rid)
        self.top.add_insert(sid, rid, list(row))
        return rid

    def delete_by_key(self, sk) -> int:
        """Delete the live tuple with key ``sk``; returns its former RID."""
        sk = tuple(sk)
        rid = find_rid_by_key(self.stable, self.layers, self.sparse_index, sk)
        self.top.add_delete(rid, sk)
        return rid

    def modify_by_key(self, sk, column: str, value) -> int:
        """Set ``column`` of the live tuple with key ``sk``.

        Sort-key columns cannot be modified in place; per the paper such
        updates are a delete followed by an insert, which the caller must
        issue explicitly (it has to supply the full new tuple anyway).
        """
        if self.schema.is_sk_column(column):
            raise ValueError(
                f"column {column!r} is part of the sort key; delete and "
                f"re-insert instead"
            )
        sk = tuple(sk)
        rid = find_rid_by_key(self.stable, self.layers, self.sparse_index, sk)
        self.top.add_modify(rid, self.schema.column_index(column), value)
        return rid

    def image_size(self) -> int:
        return _image_size(self.stable, self.layers)


def resolve_batch_positions(stable, layers, sparse_index, keys):
    """Resolve ``keys`` (sorted, distinct SK tuples) against the merged
    image in one forward sweep — the one key resolver every write uses.

    Returns a parallel list of ``(found, pos)``: ``pos`` is the RID of the
    live tuple carrying the key when ``found``, else the RID of the first
    live tuple with a greater key (the insert-before position; the image
    size when the key sorts last). The sparse index bounds the sweep to
    the window of granules between the smallest and the largest key, and
    the merge narrows that window inside its first stored block to the
    rows from the smallest key to one past the largest, so every layer
    exports only the entries of the keys' own rows. A merged block
    places all the keys it covers with one ``searchsorted`` pair on the
    leading sort-key column, then narrows each key's run of equal
    prefixes column by column; the sweep ends with the block that places
    the last key. Every key lies inside the window's key range, so a key
    no block places sorts after all of the window: it resolves to the
    window's end RID (the image size when the window reaches the end).
    """
    if not keys:
        return []
    key_cols = list(stable.schema.sort_key)
    start, stop = 0, None
    if sparse_index is not None:
        window = sparse_index.sid_range_for_key_range(keys[0], keys[-1])
        start, stop = window.start, window.stop
    lead_dtype = stable.schema.dtype_of(key_cols[0]).numpy_dtype
    lead = np.asarray([key[0] for key in keys],
                      dtype=object if lead_dtype == object else None)
    resolved: list[tuple[bool, int]] = []
    ki = 0
    sweep = merge_scan_layers(stable, layers, columns=key_cols, start=start,
                              stop=stop, low=keys[0], high=keys[-1])
    while ki < len(keys):
        try:
            first_rid, arrays = next(sweep)
        except StopIteration as window_end:
            resolved.extend([(False, window_end.value)] * (len(keys) - ki))
            break
        columns = [arrays[c] for c in key_cols]
        n = len(columns[0])
        last_key = tuple(col[n - 1] for col in columns)
        kj = bisect.bisect_right(keys, last_key, ki)
        probe = lead[ki:kj]
        run_lo = np.searchsorted(columns[0], probe, side="left")
        run_hi = np.searchsorted(columns[0], probe, side="right")
        rest = columns[1:]
        for key, a, b in zip(keys[ki:kj], run_lo.tolist(), run_hi.tolist()):
            if rest:
                a, b = key_run(rest, key[1:], a, b)
            resolved.append((a < b, first_rid + a))
        ki = kj
    return resolved


class BatchUpdater:
    """Vectorized bulk application of value-addressed updates.

    Applies a whole batch of ``("ins", row) | ("del", sk) |
    ("mod", sk, column, value)`` operations to the *top* PDT layer of a
    stack, producing exactly the PDT state the scalar
    :class:`PositionalUpdater` would have produced applying the batch
    in order (the property suite asserts so). Unlike the scalar path the
    batch is validated up front: on :class:`KeyNotFound` /
    :class:`DuplicateKey` / sort-key-modify errors *nothing* is applied.

    The amortization: the batch is sorted by sort key, so all target
    positions come out of one index-guided sweep of the merged key
    columns (:func:`resolve_batch_positions`) instead of one restarted
    MergeScan per operation, and RID shifts caused by the batch's own
    inserts and deletes are replayed with a running delta instead of
    being re-discovered by later scans.
    """

    def __init__(self, stable, layers, sparse_index: SparseIndex | None):
        if not layers:
            raise ValueError("need at least one PDT layer to update")
        self.stable = stable
        self.layers = list(layers)
        self.sparse_index = sparse_index
        self.schema = stable.schema

    @property
    def top(self):
        return self.layers[-1]

    def apply(self, ops) -> int:
        """Apply the batch; returns the number of operations applied."""
        return self.commit_staged(self.prepare(ops))

    def prepare(self, ops):
        """Normalize, resolve, and validate the batch *without* touching
        the PDT; returns the staged state :meth:`commit_staged` ingests.

        Splitting application in two lets callers that fan one logical
        batch out over several independent targets (shards) validate
        every sub-batch before mutating any — keeping the whole fan-out
        all-or-nothing.
        """
        normalized = self._normalize(ops)
        if not normalized:
            return None
        # Stable sort by key: same-key operations keep batch order.
        normalized.sort(key=lambda item: item[0])
        runs = [
            [normalized[0]],
        ]
        for item in normalized[1:]:
            if item[0] == runs[-1][0][0]:
                runs[-1].append(item)
            else:
                runs.append([item])
        keys = [run[0][0] for run in runs]
        resolved = resolve_batch_positions(
            self.stable, self.layers, self.sparse_index, keys
        )
        self._validate(runs, resolved)
        return runs, resolved, len(normalized)

    def commit_staged(self, staged) -> int:
        """Ingest a batch staged by :meth:`prepare` into the top PDT."""
        if staged is None:
            return 0
        runs, resolved, n_ops = staged
        simple = all(len(run) == 1 for run in runs)
        if simple and self.top.is_empty():
            self._apply_bulk(runs, resolved)
        else:
            self._apply_scalar(runs, resolved)
        return n_ops

    # -- batch preparation -------------------------------------------------

    def _normalize(self, ops) -> list:
        """Coerce to ``(key, op_tag, payload)`` items; payload is the
        coerced row (ins), None (del), or ``(col_no, value)`` (mod)."""
        out = []
        for op in ops:
            tag = op[0]
            if tag == "ins":
                row = self.schema.coerce_row(op[1])
                out.append((self.schema.sk_of(row), "ins", list(row)))
            elif tag == "del":
                out.append((tuple(op[1]), "del", None))
            elif tag == "mod":
                column = op[2]
                if self.schema.is_sk_column(column):
                    raise ValueError(
                        f"column {column!r} is part of the sort key; "
                        f"delete and re-insert instead"
                    )
                out.append((
                    tuple(op[1]), "mod",
                    (self.schema.column_index(column), op[3]),
                ))
            else:
                raise ValueError(f"unknown batch operation {tag!r}")
        return out

    @staticmethod
    def _validate(runs, resolved) -> None:
        """Replay each same-key run's liveness transitions; raises before
        anything has been applied (batches are all-or-nothing)."""
        for run, (found, _) in zip(runs, resolved):
            live = found
            for key, tag, _ in run:
                if tag == "ins":
                    if live:
                        raise DuplicateKey(
                            f"live tuple with key {key!r} already exists"
                        )
                    live = True
                else:
                    if not live:
                        raise KeyNotFound(
                            f"no live tuple with key {key!r}"
                        )
                    if tag == "del":
                        live = False

    # -- application paths -------------------------------------------------

    def _apply_bulk(self, runs, resolved) -> None:
        """Empty-top fast path: emit the whole batch as one SID-ordered
        entry run.

        With no pre-existing entries in the top layer, an operation's SID
        is exactly its pre-batch resolved position (the batch's own ghost
        tuples at a boundary all carry smaller keys, so Algorithm 6's
        skip equals the running-delta arithmetic), so the run can be
        built without touching the tree until one bulk append at the end.
        """
        entries = []
        for run, (found, pos) in zip(runs, resolved):
            key, tag, payload = run[0]
            if tag == "ins":
                entries.append((pos, KIND_INS, payload))
            elif tag == "del":
                entries.append((pos, KIND_DEL, key))
            else:
                entries.append((pos, payload[0], payload[1]))
        self.top.bulk_append_entries(entries)

    def _apply_scalar(self, runs, resolved) -> None:
        """General path: scalar PDT primitives with precomputed positions.

        Still one resolution sweep for the whole batch; the running
        ``delta`` maps pre-batch positions to current RIDs (every earlier
        operation targets a smaller-or-equal position, so its shift
        applies wholesale)."""
        top = self.top
        delta = 0
        for run, (found, pos) in zip(runs, resolved):
            live = found
            live_rid = pos + delta if found else None
            insert_pos = pos + delta + (1 if found else 0)
            for key, tag, payload in run:
                if tag == "ins":
                    sid = top.sk_rid_to_sid(key, insert_pos)
                    top.add_insert(sid, insert_pos, payload)
                    live, live_rid = True, insert_pos
                    insert_pos += 1
                    delta += 1
                elif tag == "del":
                    top.add_delete(live_rid, key)
                    live = False
                    insert_pos = live_rid
                    delta -= 1
                else:
                    top.add_modify(live_rid, payload[0], payload[1])

    def image_size(self) -> int:
        return _image_size(self.stable, self.layers)
