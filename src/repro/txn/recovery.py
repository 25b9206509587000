"""Crash recovery: rebuilding database state from persisted storage + WAL.

A crash loses the RAM-resident PDTs but not the WAL (force-written at
commit) nor — on a durable backend — the stable table images (republished
atomically at every checkpoint). Two recovery paths exist:

* **In-memory images** (:func:`recover_manager` / :func:`recover_database`
  with re-registered tables): the caller registers the stable images by
  hand and the WAL is replayed in full, Propagate landing each record on
  exactly the state the original commit saw.
* **Persisted images** (:func:`recover_persistent`, run automatically when
  a :class:`~repro.db.database.Database` opens over a persistent storage
  factory holding data): tables — including every shard of every sharded
  table named by the WAL's layout records — are rebuilt from the
  backends' published catalogs and block files, then the WAL is replayed
  *image-aware*: each table's records at or below its persisted
  ``image_lsn`` are skipped (the published image already folded them in),
  which is what makes a kill between a checkpoint's catalog publish and
  its WAL rebase recover exactly.
"""

from __future__ import annotations

from .manager import TransactionManager
from .wal import WriteAheadLog, replay_into


def recover_manager(manager: TransactionManager, wal: WriteAheadLog,
                    max_records: int | None = None,
                    image_lsns: dict | None = None) -> int:
    """Replay ``wal`` into a freshly built manager.

    The manager must already have its tables registered (from the on-disk
    stable images) and hold no running transactions or delta state.
    Returns the last LSN applied; the manager's clock resumes from there.

    ``max_records`` replays only a prefix of whole records — the state
    recovered after a crash at that record boundary. Batched records make
    each prefix transaction-consistent (a commit batch is one record, so
    it is replayed all-or-nothing). ``image_lsns`` is passed through to
    :func:`~repro.txn.wal.replay_into` for image-aware replay against
    persisted stable images.
    """
    # Replay may restore a shard layout other than the live shard names
    # an open transaction routed its writes through.
    if manager.running_count():
        raise RuntimeError("recovery requires a quiescent manager")
    for name in manager.table_names():
        state = manager.state_of(name)
        if not (state.read_pdt.is_empty() and state.write_pdt.is_empty()):
            raise RuntimeError(
                f"table {name!r} already carries delta state; recovery "
                f"must start from clean stable images"
            )
    pdts = {
        name: manager.state_of(name).write_pdt
        for name in manager.table_names()
    }
    last_lsn = replay_into(wal, pdts, max_records=max_records,
                           image_lsns=image_lsns)
    manager._lsn = max(manager._lsn, last_lsn)
    if image_lsns:
        # The clock must also clear every published image LSN, or a
        # future checkpoint could tag a snapshot with an LSN an older
        # catalog already used.
        manager._lsn = max(manager._lsn, *image_lsns.values())
    replayed = wal.records if max_records is None else \
        wal.records[:max_records]
    for record in replayed:
        for name in record.tables:
            if name in manager._tables:
                manager.state_of(name).last_commit_lsn = record.lsn
    manager.wal = wal
    return last_lsn


def recover_database(db, wal: WriteAheadLog,
                     max_records: int | None = None) -> int:
    """Database-level convenience wrapper around :func:`recover_manager`.

    Also restores range-sharded tables: their boundaries, shard names,
    and rebalancer configuration are read back from the WAL's
    shard-layout records (:func:`restore_sharded_tables`), so a
    recovered database routes, scans, and rebalances exactly as before
    the crash.

    ``max_records`` crash boundaries compose with stable-image rewrites
    (checkpoints *and* shard rebalances) the way they always have: a
    rewrite rebases the WAL in place, so boundaries are only meaningful
    within the history written *since* the last rebase — the on-disk
    state a crash leaves behind is always the current stable (shard)
    images plus the current, rebased log. Layout records are catalog
    state describing those current images; there is no earlier layout to
    recover to, just as there is no earlier stable image.
    """
    last_lsn = recover_manager(db.manager, wal, max_records=max_records)
    restore_sharded_tables(db, wal)
    return last_lsn


def restore_sharded_tables(db, wal: WriteAheadLog) -> list[str]:
    """Rebuild :class:`~repro.shard.ShardedTable` wrappers from the WAL's
    latest shard-layout records.

    The shard stable images must already be registered with the manager
    (they survive a crash like any stable image; the WAL is the catalog of
    *which* shard tables and boundaries were current). Returns the logical
    names restored.
    """
    from ..shard.sharded import ShardedTable

    restored = []
    for name, layout in wal.shard_layouts().items():
        if name in db._sharded:
            continue
        db._sharded[name] = ShardedTable.restore(db, name, layout)
        restored.append(name)
    return restored


def recover_persistent(db) -> int:
    """Reopen a database over a persistent storage factory: rebuild every
    table from the published catalogs and block files, then replay the
    WAL image-aware. Returns the last LSN replayed (0 when the storage
    was empty — a fresh database).

    This is the kill-and-reopen path: nothing is re-registered by hand.
    The WAL names which sharded layouts (and therefore which per-shard
    backend scopes) were current; scopes no published layout references —
    leftovers of a crash mid-rebalance — are swept.
    """
    import os

    from ..storage.table import StableTable

    wal_path = db.manager.wal.path
    if wal_path is not None and os.path.exists(wal_path):
        wal = WriteAheadLog.load(wal_path, fsync=db.manager.wal.fsync)
    else:
        wal = db.manager.wal

    layouts = wal.shard_layouts()
    shard_names = [
        shard for layout in layouts.values() for shard in layout["shards"]
    ]

    # Main-scope tables (shards live in their own scopes, never here).
    image_lsns: dict[str, int] = {}
    for table in db.store.tables():
        schema = db.store.table_schema(table)
        if schema is None:
            continue  # metadata-only leftover; nothing to rebuild
        stable = StableTable.from_storage(table, schema, db.pool)
        db.manager.register_table(stable)
        image_lsns[table] = db.store.image_lsn(table)

    # Shard tables, each from its own backend scope with a private pool.
    for shard in shard_names:
        pool = db.open_shard_pool(shard)
        schema = pool.store.table_schema(shard)
        if schema is None:
            raise RuntimeError(
                f"WAL layout names shard {shard!r} but its storage scope "
                f"holds no published image"
            )
        stable = StableTable.from_storage(shard, schema, pool)
        db.manager.register_table(stable)
        image_lsns[shard] = pool.store.image_lsn(shard)

    # Sweep scopes nothing references: shards a crashed rebalance was
    # installing (their layout never committed) or retiring (their drop
    # never completed).
    from ..storage.backend import MAIN_SCOPE

    live = set(shard_names)
    for scope in db.storage.scopes():
        if scope != MAIN_SCOPE and scope not in live:
            db.storage.discard(scope)

    if not image_lsns and not wal.records:
        db.manager.wal = wal
        return 0
    last_lsn = recover_manager(db.manager, wal, image_lsns=image_lsns)
    restore_sharded_tables(db, wal)
    return last_lsn
