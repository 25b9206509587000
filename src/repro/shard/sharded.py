"""Range-sharded tables: one logical table, N key-range shards.

PDTs, SIDs and RIDs belong to one physical table, so a range-sharded
logical table is an ordered list of physical tables (and an unsharded
table is a list of one). Each shard is a *full* physical table inside the
owning database: its own stable image (block-store backed, with a private
buffer pool counting into ``db.io`` under the shard's physical name), its
own three-layer PDT stack, sparse index and WAL share (per-commit entry
lists keyed by the shard's physical name, inside the one log). The
checkpoint scheduler decides per physical table, so hot shards fold
independently while cold shards are never touched.

A :class:`ShardedTable` holds the layout (boundaries in a
:class:`~repro.shard.router.ShardRouter`, shard names) and the
rebalancer's state; it resolves no names for the rest of the system.
:class:`~repro.txn.manager.TransactionManager` does, through
``physical_names`` / ``route`` / ``split_ops`` (the last two delegate to
:meth:`ShardedTable.physical_for` and :meth:`ShardedTable.split_ops`),
and every ``Database`` and ``Transaction`` entry point is one loop over
the names it returns. Reads are planned like every other read
(:func:`~repro.service.plan.plan_scan`: one MergeScan per surviving
shard, concatenated in key order with local RIDs rebased to global
ones). Splitting and merging shards lives in :mod:`~repro.shard.rebalance`.

Physical shard tables are named ``{logical}__s{gen}`` with a
per-logical-table generation counter, so the shards a rebalance creates
never collide with the ones it retires; the database keeps other tables
out of that namespace.
"""

from __future__ import annotations

import bisect

from ..storage.schema import Schema
from ..storage.table import StableTable, sorted_arrays
from .router import ShardRouter


class ShardedTable:
    """A logical table physically partitioned into key-range shards."""

    def __init__(self, db, name: str, schema: Schema, router: ShardRouter,
                 shard_names: list[str], split_rows: int | None = None,
                 merge_rows: int | None = None):
        if len(shard_names) != router.num_shards:
            raise ValueError("shard name count does not match boundaries")
        if split_rows is not None and merge_rows is not None \
                and merge_rows >= split_rows:
            raise ValueError(
                f"merge_rows ({merge_rows}) must be < split_rows "
                f"({split_rows})"
            )
        self.db = db
        self.name = name
        self.schema = schema
        self.router = router
        self.shard_names = list(shard_names)
        self.split_rows = split_rows
        self.merge_rows = merge_rows
        self._gen = 1 + max(
            (int(n.rsplit("__s", 1)[1]) for n in shard_names), default=-1
        )
        # Shards a rebalance replaced while snapshot pins still referenced
        # them, as (shard_name, private pool) pairs: their stable blocks
        # stay alive until the pins drain.
        self._retired_pending: list[tuple] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, db, name: str, schema: Schema, rows=(), shards: int = 4,
               boundaries=None, split_rows: int | None = None,
               merge_rows: int | None = None) -> "ShardedTable":
        """Bulk-load ``rows`` into ``shards`` key-range shards.

        ``boundaries`` fixes the split keys explicitly; by default they
        are chosen at equal row-count quantiles of the sorted load
        (duplicate quantile keys on tiny loads collapse into fewer
        shards). Rows are coerced and sorted exactly once, then handed
        to the columnar path, which cuts shard slices by position.
        """
        return cls.create_from_arrays(
            db, name, schema, sorted_arrays(schema, rows), shards=shards,
            boundaries=boundaries,
            split_rows=split_rows, merge_rows=merge_rows,
        )

    @classmethod
    def create_from_arrays(cls, db, name: str, schema: Schema, arrays: dict,
                           shards: int = 4, boundaries=None,
                           split_rows: int | None = None,
                           merge_rows: int | None = None) -> "ShardedTable":
        """Bulk path for pre-sorted columnar data: boundaries are read
        straight off the sorted key columns (equal-count quantiles unless
        given explicitly) and each shard's stable image is a zero-copy
        array slice — no per-row coercion or re-sorting
        (``StableTable.from_arrays`` still validates the sort)."""
        if shards < 1:
            raise ValueError("need at least one shard")
        key_cols = [arrays[c] for c in schema.sort_key]
        n = len(key_cols[0]) if key_cols else 0
        if boundaries is None:
            cuts = sorted({
                at for i in range(1, shards)
                if 0 < (at := int(i * n / shards)) < n
            })
            boundaries = [tuple(col[at] for col in key_cols) for at in cuts]
        else:
            # Sorted input: each boundary cuts at the first row with
            # key >= boundary, so equal-to-boundary rows land right.
            boundaries = [tuple(b) for b in boundaries]
            keys = list(zip(*key_cols))
            cuts = [bisect.bisect_left(keys, b) for b in boundaries]
        router = ShardRouter(boundaries)
        edges = [0] + cuts + [n]
        shard_names = [f"{name}__s{i}" for i in range(len(edges) - 1)]
        sharded = cls(db, name, schema, router, shard_names,
                      split_rows=split_rows, merge_rows=merge_rows)
        for shard_name, lo, hi in zip(shard_names, edges, edges[1:]):
            sharded.install_shard(StableTable.from_arrays(
                shard_name, schema,
                {c: arrays[c][lo:hi] for c in schema.column_names},
                db.open_shard_pool(shard_name),
            ))
        sharded.log_layout()
        return sharded

    def next_shard_name(self) -> str:
        name = f"{self.name}__s{self._gen}"
        self._gen += 1
        return name

    def install_shard(self, stable: StableTable, read_pdt=None):
        """Publish and register a shard's stable image — built in its
        *own* storage backend (scope = the shard's physical name,
        :meth:`Database.open_shard_pool`) — with (optionally) a pre-built
        Read-PDT (rebalance survivors).

        The shard's blocks are published (synced) before this returns:
        on durable storage a freshly installed shard survives a kill —
        whether its layout record does is decided by the WAL rewrite the
        caller commits afterwards, and an unreferenced scope is swept at
        the next reopen.
        """
        db = self.db
        stable.publish(db.manager._lsn)
        state = db.manager.register_table(stable)
        if read_pdt is not None and not read_pdt.is_empty():
            state.read_pdt = read_pdt
        state.last_commit_lsn = db.manager._lsn
        return state

    def retire_shard(self, shard_name: str) -> None:
        """Unregister a shard a rebalance replaced and queue its storage
        drop.

        The physical drop is always deferred to :meth:`drain_retired`:
        the rebalance must first commit the new layout's WAL rewrite —
        deleting files while the on-disk log still routes to the retired
        shard would lose data on a crash — and while a snapshot pin still
        references the shard the drop waits further, until the pins drain
        (shard names are never reused, so the retired image and its
        replacements coexist); pinned readers keep scanning the exact
        stable image they captured.
        """
        state = self.db.manager.unregister_table(shard_name)
        self.db.scheduler.forget(shard_name)
        self._retired_pending.append((shard_name, state.stable.pool))

    def _drop_shard_storage(self, shard_name: str, pool) -> None:
        pool.store.drop_table(shard_name)
        pool.clear()
        pool.store.close()
        # Retire the shard's whole storage scope: on file-backed storage
        # this deletes the shard's real segment and catalog files.
        self.db.storage.discard(shard_name)

    def drain_retired(self) -> int:
        """Drop storage of retired shards whose last pin has drained
        (called right after a rebalance commits its layout, and again at
        every later maintenance point); returns how many are still alive
        (waiting on pins)."""
        still_pinned = []
        for shard_name, pool in self._retired_pending:
            if self.db.manager.is_pinned(shard_name):
                still_pinned.append((shard_name, pool))
            else:
                self._drop_shard_storage(shard_name, pool)
        self._retired_pending = still_pinned
        return len(still_pinned)

    def log_layout(self) -> None:
        """Record the current boundaries + shard names (and the
        rebalancer configuration) in the WAL — the catalog leg of crash
        recovery."""
        self.db.manager.wal.append_shard_layout(
            self.name, self.router.boundaries, self.shard_names,
            lsn=self.db.manager._lsn,
            config={
                "split_rows": self.split_rows,
                "merge_rows": self.merge_rows,
            },
        )

    @classmethod
    def restore(cls, db, name: str, layout: dict) -> "ShardedTable":
        """Rebuild the wrapper from a WAL shard-layout record; the shard
        stable tables must already be registered with ``db``.

        Shard images registered by hand in the database-wide pool (the
        in-memory recovery path) are re-homed onto their own per-shard
        scopes here, so a shard's cache residency stays its own. Only
        the configuration keys this class still has are read: layouts
        logged by older versions carry more (``"parallel"``) and must
        keep reopening.
        """
        shard_names = list(layout["shards"])
        schema = db.manager.state_of(shard_names[0]).schema
        router = ShardRouter(layout["boundaries"])
        config = layout.get("config", {})
        sharded = cls(
            db, name, schema, router, shard_names,
            split_rows=config.get("split_rows"),
            merge_rows=config.get("merge_rows"),
        )
        for shard in shard_names:
            state = db.manager.state_of(shard)
            if state.stable.pool is db.pool:
                state.stable.attach_storage(db.open_shard_pool(shard))
        return sharded

    # -- introspection ----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shard_names)

    @property
    def boundaries(self) -> list[tuple]:
        return list(self.router.boundaries)

    def shard_states(self):
        return [self.db.manager.state_of(n) for n in self.shard_names]

    def footprints(self) -> list[int]:
        """Per-shard stable+delta footprint (rows + PDT entries), the
        rebalancer's load measure."""
        return [
            state.stable.num_rows + state.read_pdt.count()
            + state.write_pdt.count()
            for state in self.shard_states()
        ]

    # -- routing ----------------------------------------------------------

    def physical_for(self, sk) -> str:
        """Physical shard table owning sort key ``sk``."""
        return self.shard_names[self.router.shard_of(sk)]

    def split_ops(self, ops) -> list[tuple[str, list]]:
        """Split a batch into non-empty ``(physical_name, sub_batch)``
        pairs, preserving op order within each shard."""
        parts = self.router.split_ops(self.schema, ops)
        return [
            (self.shard_names[i], part)
            for i, part in enumerate(parts) if part
        ]

    # -- scanning ---------------------------------------------------------

    def scan_blocks(self, columns=None):
        """Stream the merged logical image as ``(global_rid, arrays)``
        blocks without materializing it — the streaming form of
        ``Database.query``, and the same pipeline minus the maintenance
        drain: a snapshot pin taken at the first pull and held until the
        stream ends (or is closed), ``plan_scan``, then the plan's block
        stream. The per-shard pipelines read through their shard's
        private buffer pool, which counts into ``db.io`` as it reads.
        """
        from ..service.plan import iter_plan_blocks, plan_scan

        with self.db.pin_snapshot() as pin:
            plan = plan_scan(pin, self.name, columns=columns)
            yield from iter_plan_blocks(plan, router=self.db.exec_router)

    # -- maintenance ------------------------------------------------------

    def maybe_rebalance(self) -> int:
        """Run the autonomous rebalancer (quiescent points only); returns
        the number of split/merge actions taken."""
        from .rebalance import maybe_rebalance

        return maybe_rebalance(self)

    def close(self) -> None:
        """Drop retired shards' storage (called from
        :meth:`Database.close`). Retired shards still waiting on pins are
        dropped unconditionally — shutdown outlives any reader.
        """
        for shard_name, pool in self._retired_pending:
            self._drop_shard_storage(shard_name, pool)
        self._retired_pending = []

    def __repr__(self) -> str:
        return (
            f"ShardedTable({self.name!r}, shards={self.num_shards}, "
            f"rows={self.db.row_count(self.name)})"
        )
