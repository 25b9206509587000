"""Autonomous shard rebalancing: splitting hot shards, merging cold ones.

A skewed update stream concentrates PDT entries (and, through inserts,
stable rows) in a few shards; rebalancing keeps per-shard footprints
bounded so per-shard maintenance stays cheap — the same argument
``checkpoint_table_range`` makes for block ranges, lifted to whole shards.

Both operations are stable-image rewrites and follow the same invariants
as checkpoints:

* **Quiescence.** A running transaction routes its writes through the
  live shard names: its Trans-PDTs are keyed by the shards it touched,
  in their RID domains. A split or merge retires those names, so unlike
  a fold (same name, same RID domain; it asks only about pins) it
  requires ``running_count() == 0``, and the committed Write-PDT is
  propagated down first so only the Read-PDT needs redistributing.
* **SID rebasing.** A split at stable position ``mid`` keeps left-side
  entries verbatim and rebases right-side entries by ``-mid`` — exactly
  how ``checkpoint_table_range`` rebases suffix SIDs, with one refinement:
  an *insert* at SID ``mid`` sorts before the stable tuple at ``mid``
  (ghost-respecting SID assignment guarantees its key is below the split
  key), so it stays with the left shard as a trailing insert, while
  deletes/modifies at ``mid`` address the right shard's first stable row.
  A merge is the inverse: right-side entries shift by ``+left_rows``, and
  appending left entries then rebased right entries preserves the relative
  order of same-SID boundary inserts (left trailing inserts carry smaller
  keys than the right shard's leading inserts).
* **WAL rebasing.** The retired shards' logged history is dropped and the
  surviving (redistributed) Read-PDTs are re-logged as snapshot records
  consecutive to the new shard images, then the new layout is logged — so
  recovery replays exactly the still-live deltas against the shards that
  actually exist.
"""

from __future__ import annotations

import numpy as np

from ..core.pdt import PDT
from ..core.types import KIND_INS
from ..storage.table import StableTable


def _build_shard(db, name: str, parts) -> StableTable:
    """A new shard image ``name`` in its own scope: each column is the
    concatenation of the ``(stable, lo, hi)`` row ranges in ``parts``,
    read through the source shards' pools."""
    schema = parts[0][0].schema
    return StableTable.from_arrays(name, schema, {
        c: np.concatenate([stable.read_rows(c, lo, hi)
                           for stable, lo, hi in parts])
        for c in schema.column_names
    }, db.open_shard_pool(name))


def _split_read_pdt(read_pdt: PDT, mid: int, split_key: tuple,
                    schema) -> tuple[PDT, PDT]:
    """Redistribute a shard's Read-PDT across a split at stable SID
    ``mid``: left entries verbatim, right entries rebased by ``-mid``.

    Entries at SID ``mid`` need care. Deletes/modifies there address the
    right shard's first stable row. An *insert* there sorts before that
    row, so ghost-respecting SID assignment bounds its key by
    ``key <= split_key`` — strictly below for ordinary boundary inserts
    (→ left shard, as a trailing insert), but *equal* when the stable row
    at ``mid`` was deleted and its key reinserted; that row belongs to
    the right shard, where the router owns ``split_key``. Hence inserts
    at ``mid`` are routed by comparing their key against ``split_key``,
    which also keeps each side's same-SID insert runs in key order.
    """
    left, right = PDT(schema, fanout=read_pdt.fanout), \
        PDT(schema, fanout=read_pdt.fanout)
    left_entries, right_entries = [], []
    for sid, kind, payload in read_pdt.entries():
        if kind == KIND_INS and sid == mid:
            goes_left = tuple(schema.sk_of(payload)) < tuple(split_key)
        else:
            goes_left = sid < mid
        if goes_left:
            left_entries.append((sid, kind, payload))
        else:
            right_entries.append((sid - mid, kind, payload))
    left.bulk_append_entries(left_entries)
    right.bulk_append_entries(right_entries)
    return left, right


def _merged_read_pdt(left_state, right_state, schema) -> PDT:
    """Combine two adjacent shards' Read-PDTs: left verbatim, right
    rebased by ``+left_rows`` (appended after, so boundary inserts keep
    key order)."""
    merged = PDT(schema)
    shift = left_state.stable.num_rows
    merged.bulk_append_entries(
        left_state.read_pdt.entries()
        + [(sid + shift, kind, payload)
           for sid, kind, payload in right_state.read_pdt.entries()]
    )
    return merged


def _swap_in(sharded, retired: list[str], installed: list[tuple],
             at: int, n_replaced: int) -> None:
    """Atomically replace ``n_replaced`` shards at position ``at`` with the
    freshly built ``(name, stable, read_pdt)`` shards, then rebase the WAL
    and log the new layout. All new state is fully built before any
    registry mutation, so a failure while building leaves the old layout
    untouched."""
    db = sharded.db
    for name, stable, read_pdt in installed:
        sharded.install_shard(stable, read_pdt=read_pdt)
    sharded.shard_names[at:at + n_replaced] = [n for n, _, _ in installed]
    # One atomic log rewrite: dropping retired history, re-logging the
    # survivor snapshots, and the new layout must hit disk together. The
    # new shard images were published by install_shard *before* this
    # commit point, and the retired shards' physical storage is dropped
    # only *after* it (drain_retired below) — so a kill on either side
    # recovers a complete layout: old shards + old log, or new shards +
    # new log (orphaned scopes are swept at reopen).
    with db.manager.wal.atomic():
        for name in retired:
            sharded.retire_shard(name)
            db.manager.wal.rebase_table(name)
        for name, _, read_pdt in installed:
            if read_pdt is not None and not read_pdt.is_empty():
                db.manager.wal.rebase_table(name, read_pdt,
                                            lsn=db.manager._lsn)
        sharded.log_layout()
    sharded.drain_retired()


def split_shard(sharded, index: int) -> bool:
    """Split shard ``index`` at its stable midpoint key. Returns False
    when the split cannot run (not quiescent, or too few stable rows to
    pick a midpoint boundary)."""
    db = sharded.db
    manager = db.manager
    if manager.running_count():
        return False
    shard_name = sharded.shard_names[index]
    manager.propagate_write_to_read(shard_name)
    state = manager.state_of(shard_name)
    stable = state.stable
    mid = stable.num_rows // 2
    if mid == 0:
        return False
    split_key = stable.sk_at(mid)
    low, high = sharded.router.key_range(index)
    if (low is not None and split_key <= low) or \
            (high is not None and split_key >= high):
        return False  # degenerate shard: all rows share the boundary side
    left_name = sharded.next_shard_name()
    right_name = sharded.next_shard_name()
    left_stable = _build_shard(db, left_name, [(stable, 0, mid)])
    right_stable = _build_shard(db, right_name,
                                [(stable, mid, stable.num_rows)])
    left_pdt, right_pdt = _split_read_pdt(state.read_pdt, mid, split_key,
                                          sharded.schema)
    sharded.router.insert_boundary(index, split_key)
    _swap_in(
        sharded, retired=[shard_name],
        installed=[(left_name, left_stable, left_pdt),
                   (right_name, right_stable, right_pdt)],
        at=index, n_replaced=1,
    )
    return True


def merge_adjacent(sharded, index: int) -> bool:
    """Merge shards ``index`` and ``index + 1``. Returns False when not
    quiescent or there is no right neighbour."""
    db = sharded.db
    manager = db.manager
    if manager.running_count() or index + 1 >= sharded.num_shards:
        return False
    left_name = sharded.shard_names[index]
    right_name = sharded.shard_names[index + 1]
    manager.propagate_write_to_read(left_name)
    manager.propagate_write_to_read(right_name)
    left_state = manager.state_of(left_name)
    right_state = manager.state_of(right_name)
    new_name = sharded.next_shard_name()
    left, right = left_state.stable, right_state.stable
    new_stable = _build_shard(db, new_name, [(left, 0, left.num_rows),
                                             (right, 0, right.num_rows)])
    new_pdt = _merged_read_pdt(left_state, right_state, sharded.schema)
    sharded.router.remove_boundary(index)
    _swap_in(
        sharded, retired=[left_name, right_name],
        installed=[(new_name, new_stable, new_pdt)],
        at=index, n_replaced=2,
    )
    return True


def maybe_rebalance(sharded, max_actions: int = 8) -> int:
    """Split shards whose stable+delta footprint exceeds ``split_rows``
    and merge adjacent pairs whose combined footprint falls below
    ``merge_rows``. No-ops entirely unless the system is quiescent.

    ``merge_rows`` must stay below ``split_rows`` — otherwise a freshly
    split pair (combined footprint just above ``split_rows``) would
    qualify for an immediate re-merge and every query would churn the
    same shard forever. Checked here (not only at construction) because
    the thresholds are plain mutable attributes.
    """
    if (sharded.split_rows is not None and sharded.merge_rows is not None
            and sharded.merge_rows >= sharded.split_rows):
        raise ValueError(
            f"merge_rows ({sharded.merge_rows}) must be < split_rows "
            f"({sharded.split_rows}); equal or larger thresholds make "
            f"split/merge oscillate"
        )
    if sharded.db.manager.running_count():
        return 0
    # A quiescent point is also where retired-but-pinned shard storage
    # gets dropped once the pins that captured it drain.
    sharded.drain_retired()
    if any(sharded.db.manager.is_pinned(name)
           for name in sharded.shard_names):
        # Live snapshot pins hold this table's current shard layout and
        # images; restructuring now would strand their block drops and
        # copy every touched Read-PDT. Pins are short-lived (one streamed
        # request) — defer to the next maintenance point, exactly as the
        # checkpoint scheduler defers folds.
        return 0
    actions = 0
    if sharded.split_rows is not None:
        while actions < max_actions:
            footprints = sharded.footprints()
            over = [i for i, f in enumerate(footprints)
                    if f > sharded.split_rows]
            if not over:
                break
            hottest = max(over, key=lambda i: footprints[i])
            if not split_shard(sharded, hottest):
                break
            actions += 1
    if sharded.merge_rows is not None:
        while actions < max_actions and sharded.num_shards > 1:
            footprints = sharded.footprints()
            pairs = [
                (footprints[i] + footprints[i + 1], i)
                for i in range(len(footprints) - 1)
            ]
            combined, at = min(pairs)
            if combined >= sharded.merge_rows:
                break
            if not merge_adjacent(sharded, at):
                break
            actions += 1
    return actions
