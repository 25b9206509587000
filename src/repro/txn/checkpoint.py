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
  entries outside survive with rebased SIDs. The cost-based policies in
  :mod:`repro.txn.scheduler` use it to drain the hottest block ranges
  between queries.

Both are stop-the-world for the one table they fold (a quiescent point is
required), merge the range as a one-layer SID window
(:func:`~repro.core.stack.merge_scan_layers`), and then drop and re-store
*every* block of that table — a range fold saves merge work, not block
writes.
Only this table's buffer-pool blocks are evicted; every other table stays
hot. A fold with nothing to fold touches neither storage nor the WAL.
"""

from __future__ import annotations

import numpy as np

from ..core.pdt import PDT
from ..core.stack import merge_scan_layers
from ..storage.column import Column
from ..storage.sparse_index import SparseIndex
from ..storage.table import StableTable
from .manager import TransactionManager
from .transaction import TransactionError


def checkpoint_table(manager: TransactionManager, table: str) -> StableTable:
    """Materialize merge(stable, Read, Write) as the new stable image.

    Requires a quiescent point (no running transactions). Returns the
    table's stable image afterwards — the current one, untouched, when
    there were no deltas to fold; the manager's state is switched over in
    place and the WAL truncated once every table's deltas are either
    checkpointed or still empty.
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

    Requires a quiescent point, like every stable-image rewrite. Returns
    the number of update entries folded (0 when the range was clean; the
    stable image is left untouched in that case).
    """
    if sid_hi < sid_lo:
        raise ValueError(f"bad checkpoint range [{sid_lo}, {sid_hi})")
    return _fold(manager, table, sid_lo, sid_hi)


def _fold(manager: TransactionManager, table: str,
          sid_lo: int, sid_hi: int) -> int:
    """The one stable-image rewrite: merge ``[sid_lo, sid_hi)`` with the
    deltas addressing it, splice the result between the untouched stable
    prefix and suffix, publish, and rebase the WAL. Returns the number of
    entries folded.

    The committed Write-PDT is first propagated down so the Read-PDT
    holds every committed delta (under a live pin that copies the
    Read-PDT once; the pinned stack is left as it was).
    """
    if manager.running_count():
        raise TransactionError("checkpoint requires no running transactions")
    state = manager.state_of(table)
    manager.propagate_write_to_read(table)
    read_pdt = state.read_pdt
    old = state.stable
    n_rows = old.num_rows
    sid_lo = max(0, min(sid_lo, n_rows))
    to_end = sid_hi >= n_rows
    sid_hi = min(sid_hi, n_rows)

    sids, kinds, refs = read_pdt.entry_lists()
    keep = [sid < sid_lo or (not to_end and sid >= sid_hi) for sid in sids]
    folded = len(keep) - sum(keep)
    if not folded:
        return 0

    # Merge just the range: the stable window through the Read-PDT alone.
    schema = state.schema
    columns = list(schema.column_names)
    merged: dict[str, list[np.ndarray]] = {c: [] for c in columns}
    for _, arrays in merge_scan_layers(old, [read_pdt], columns=columns,
                                       start=sid_lo, stop=sid_hi):
        for c in columns:
            merged[c].append(arrays[c])
    shift = sum(len(a) for a in merged[columns[0]]) - (sid_hi - sid_lo)

    new_columns = []
    for spec in schema.columns:
        col = old.column(spec.name)
        pieces = [col.slice(0, sid_lo), *merged[spec.name],
                  col.slice(sid_hi, n_rows)]
        new_columns.append(Column(spec.name, spec.dtype, np.concatenate(pieces)))
    new_stable = StableTable(table, schema, new_columns)

    # Rebase the surviving entries into a fresh Read-PDT.
    survivor = PDT(schema, fanout=read_pdt.fanout)
    survivor.bulk_append_entries(
        (sid if sid < sid_lo else sid + shift, kind,
         read_pdt.values.value_of(kind, ref))
        for sid, kind, ref, kept in zip(sids, kinds, refs, keep) if kept
    )

    pool = old.pool
    if pool is not None:
        if manager.is_pinned(table):
            # The new image reuses this table's block namespace; pinned
            # readers switch to the outgoing image's retained in-memory
            # columns before its blocks go away.
            old.detach_storage()
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
        # Publish the new image *before* the WAL rebase below drops the
        # folded records. A kill before the publish recovers the old
        # image plus the full log; after it, the persisted image LSN makes
        # replay skip the folded history even if the rebase never landed.
        new_stable.publish(pool, manager._lsn)
        pool.evict_table(table)
    state.stable = new_stable
    state.read_pdt = survivor
    state.sparse_index = SparseIndex(new_stable, manager.sparse_granularity)
    # Replace this table's WAL history with one snapshot of the surviving
    # (rebased) deltas, if any: recovery then replays exactly the
    # still-live entries against the new stable image, never the folded
    # ones (other tables' records stay).
    manager.wal.rebase_table(table, survivor, lsn=manager._lsn)
    _truncate_wal_if_clean(manager)
    return folded


def _truncate_wal_if_clean(manager: TransactionManager) -> None:
    """Drop the WAL when no table still carries un-checkpointed deltas."""
    for name in manager.table_names():
        state = manager.state_of(name)
        if not (state.read_pdt.is_empty() and state.write_pdt.is_empty()):
            return
    manager.wal.truncate()


def delta_memory_usage(manager: TransactionManager, table: str) -> int:
    """Bytes of RAM-resident delta state for checkpoint-threshold policies."""
    state = manager.state_of(table)
    return state.read_pdt.memory_usage() + state.write_pdt.memory_usage()
