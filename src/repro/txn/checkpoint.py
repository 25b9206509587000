"""Checkpointing: folding accumulated deltas back into stable storage.

When the RAM-resident differential structures grow too large (or on a
schedule), a new stable table image is materialized with the updates
applied, the folded entries leave the Read-PDT, and query processing
switches over (paper section 2, "Checkpointing"). SIDs are renumbered by
this operation — the only event in a tuple's lifetime that changes its SID
— so the sparse index is rebuilt and the table's WAL history is dropped.

There is one fold (:func:`_fold`) with two entry points:

* :func:`checkpoint_table` — the paper's fold of *all* deltas: the whole
  SID range, no survivors.
* :func:`checkpoint_table_range` — an incremental fold of one stable SID
  range, SynchroStore-style: only entries inside the range are merged,
  entries outside survive with rebased SIDs. The ``"hot-ranges"`` rule
  of :mod:`repro.txn.scheduler` uses it to fold the hottest block ranges
  after commits and between queries.

Both rewrite the one table they fold: merge the range through the whole
committed stack as one SID window (stable ∘ Read-PDT ∘ Write-PDT,
:func:`~repro.core.stack.merge_scan_layers`; no Propagate first), splice
it with the stable prefix and suffix read through the buffer pool, and
then drop and re-store *every* block of that table — a range fold saves
merge work, not block writes. Neither waits for quiescence: a running
transaction is a pin, the old PDTs are replaced, never mutated, and a
pinned reader's outgoing image is first re-homed onto a private in-memory
copy of its blocks (the image is its blocks). Only this table's
buffer-pool blocks are evicted; every other table stays hot. A fold with
nothing to fold touches neither storage nor the WAL.
"""

from __future__ import annotations

import numpy as np

from ..core.pdt import PDT
from ..core.propagate import propagate_batch
from ..core.stack import merge_scan_layers
from ..storage.blocks import BlockStore
from ..storage.buffer import BufferPool
from ..storage.sparse_index import SparseIndex
from ..storage.table import StableTable
from .manager import TransactionManager


def checkpoint_table(manager: TransactionManager, table: str) -> StableTable:
    """Materialize merge(stable, Read, Write) as the new stable image.

    Runs while transactions are open (they read through their pins).
    Returns the table's stable image afterwards — the current one,
    untouched, when there were no deltas to fold; the manager's state is
    switched over in place and the WAL truncated once every table's
    deltas are either checkpointed or still empty.
    """
    state = manager.state_of(table)
    _fold(manager, table, 0, state.stable.num_rows)
    return state.stable


def checkpoint_table_range(manager: TransactionManager, table: str,
                           sid_lo: int, sid_hi: int) -> int:
    """Incrementally fold deltas of one stable SID range ``[sid_lo, sid_hi)``
    into the stable image, leaving the rest of the table's deltas in place.

    Entries outside the range survive: prefix entries verbatim, suffix
    entries with SIDs rebased by the range's net row-count change (the
    only SIDs the rebuild renumbers). A range reaching the table end also
    folds trailing inserts.

    Runs while transactions are open, like the full fold. Returns the
    number of update entries folded (0 when the range was clean; the
    stable image is left untouched in that case).
    """
    if sid_hi < sid_lo:
        raise ValueError(f"bad checkpoint range [{sid_lo}, {sid_hi})")
    return _fold(manager, table, sid_lo, sid_hi)


def _fold(manager: TransactionManager, table: str,
          sid_lo: int, sid_hi: int) -> int:
    """The one stable-image rewrite: merge ``[sid_lo, sid_hi)`` through
    the committed Read- and Write-PDT in one pass, splice the result
    between the untouched stable prefix and suffix, publish, and rebase
    the WAL. Returns the number of entries folded.

    Each layer's entries outside the window survive, the Write-PDT's
    propagated into the Read-PDT's; the old PDTs, which a pin may hold,
    are replaced and left as they were.
    """
    state = manager.state_of(table)
    layers = [pdt for pdt in (state.read_pdt, state.write_pdt)
              if not pdt.is_empty()]
    if not layers:
        return 0
    old = state.stable
    n_rows = old.num_rows
    sid_lo = max(0, min(sid_lo, n_rows))
    sid_hi = min(sid_hi, n_rows)

    # Merge just the range: the stable window through the whole stack.
    schema = state.schema
    columns = list(schema.column_names)
    merged: dict[str, list[np.ndarray]] = {c: [] for c in columns}
    cuts: list = []
    for _, arrays in merge_scan_layers(old, layers, columns=columns,
                                       start=sid_lo, stop=sid_hi, cuts=cuts):
        for c in columns:
            merged[c].append(arrays[c])
    folded = sum(cut.b - cut.a for cut in cuts)
    if not folded:
        return 0

    # The whole new image, spliced before the old one's blocks go away.
    arrays = {
        c: np.concatenate([old.read_rows(c, 0, sid_lo), *merged[c],
                           old.read_rows(c, sid_hi, n_rows)])
        for c in columns
    }

    # Entries outside the window survive: above it, a layer's SIDs move
    # by the window's change in it and every layer over it.
    shift = sum(cut.delta for cut in cuts)
    survivor = PDT(schema, fanout=state.read_pdt.fanout)
    for pdt, cut in zip(layers, cuts):
        run = _survivors(pdt, cut, shift)
        shift -= cut.delta
        if survivor.is_empty():
            survivor.bulk_append_entries(run)
        elif run:
            upper = PDT(schema)
            upper.bulk_append_entries(run)
            propagate_batch(survivor, upper)

    pool = old.pool
    if manager.is_pinned(table):
        # The new image reuses this table's block keys; pinned readers
        # keep the outgoing image, re-homed onto a private in-memory
        # copy of its encoded blocks before the shared store drops them.
        old.attach_storage(BufferPool(BlockStore(
            compressed=pool.store.compressed,
            block_rows=pool.store.block_rows)))
    if not survivor.is_empty():
        # Surviving deltas must be durable before the publish makes
        # replay skip the commit history that carried them: the
        # snapshot is tagged with the image it is consecutive to and
        # only applies once that image's catalog is the published one.
        manager.wal.append_snapshot(
            table, survivor, lsn=manager._lsn,
            for_image_lsn=manager._lsn,
        )
    pool.store.drop_table(table)
    new_stable = StableTable.from_arrays(table, schema, arrays, pool)
    # Publish the new image *before* the WAL rebase below drops the
    # folded records. A kill before the publish recovers the old image
    # plus the full log; after it, the persisted image LSN makes replay
    # skip the folded history even if the rebase never landed.
    new_stable.publish(manager._lsn)
    pool.evict_table(table)
    state.stable = new_stable
    state.read_pdt = survivor
    state.write_pdt = PDT(schema)
    state.sparse_index = SparseIndex(new_stable)
    # Replace this table's WAL history with one snapshot of the surviving
    # (rebased) deltas, if any: recovery then replays exactly the
    # still-live entries against the new stable image, never the folded
    # ones (other tables' records stay).
    manager.wal.rebase_table(table, survivor, lsn=manager._lsn)
    _truncate_wal_if_clean(manager)
    return folded


def _survivors(pdt: PDT, cut, shift: int) -> list:
    """``pdt``'s entries outside the window ``cut`` (a ``LayerCut``): those
    below as they are, those above with SIDs moved by ``shift``."""
    span = pdt.entries(cut.start_sid, cut.stop_sid) \
        if cut.a or cut.b < cut.n else []
    above = span[cut.b:]
    if cut.stop_sid is not None:
        above += pdt.entries(cut.stop_sid)
    return pdt.entries(0, cut.start_sid) + span[:cut.a] + [
        (sid + shift, kind, payload) for sid, kind, payload in above]


def _truncate_wal_if_clean(manager: TransactionManager) -> None:
    """Drop the WAL when no table still carries un-checkpointed deltas."""
    for name in manager.table_names():
        state = manager.state_of(name)
        if not (state.read_pdt.is_empty() and state.write_pdt.is_empty()):
            return
    manager.wal.truncate()
