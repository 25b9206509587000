"""Database facade: storage + transactions + queries in one object.

This is the public entry point a downstream user starts from::

    db = Database(compressed=True, checkpoint_policy="hot-ranges:4")
    db.create_table("inventory", schema, rows)
    with db.transaction() as txn:
        txn.insert("inventory", ("Berlin", "table", "Y", 10))
    rel = db.query("inventory", columns=["store", "qty"])

Internally each table is an ordered, block-compressed stable image plus the
three-layer PDT stack of the paper; queries are block-pipelined positional
MergeScans that never read columns the query does not name, and delta
maintenance (Propagate / checkpoint) runs autonomously under the configured
checkpoint policy instead of requiring manual ``checkpoint()`` calls.

Thread-safety contract: a ``Database`` is **single-writer** — the inline
``query*``/``insert``/``apply_batch``/``transaction`` surface assumes one
caller thread at a time. Concurrent readers and writers go through
:meth:`Database.serve`, whose :class:`~repro.service.QueryService` is the
concurrency boundary (pinned lock-free reads, one serialized commit
lock); any number of services may be attached. The observability
surfaces (``metrics()``, the trace sink, ``io``) are internally locked
and safe to read from any thread at any time.

Lifecycle contract: construct → use → :meth:`close` (or use the instance
as a context manager). ``close()`` closes attached services (joining
their worker threads), reaps executor worker processes, and releases
storage handles; after it, queries raise. A
durable database killed *without* ``close()`` loses nothing:
:meth:`recover` (or constructing over the same ``storage_path``) rebuilds
tables from the published catalogs and replays the WAL — every
acknowledged commit is restored, byte-identically.

See ``README.md`` for the layer map this facade fronts,
``docs/operations.md`` for the operator-facing knob and metrics catalog,
and ``DESIGN.md`` for how the block-pipelined MergeScan and the
checkpoint scheduler deviate from (and extend) the paper's C
implementation.
"""

from __future__ import annotations

import contextlib
import os
import re

from ..engine.relation import Relation
from ..service.plan import iter_plan_blocks, plan_scan
from ..storage.backend import MAIN_SCOPE, resolve_storage
from ..storage.blocks import BlockStore, DEFAULT_BLOCK_ROWS
from ..storage.buffer import BufferPool
from ..storage.io_stats import IOStats
from ..storage.schema import Schema
from ..storage.table import StableTable
from ..txn.manager import TransactionManager
from ..txn.scheduler import CheckpointScheduler
from ..txn.transaction import Transaction
from ..txn.wal import WriteAheadLog

# A shard's physical name: ``{logical}__s{generation}``.
_SHARD_NAME = re.compile(r"(.+)__s\d+")


class Database:
    """An updatable columnar database with PDT-based update handling.

    Constructor parameters:

    ``compressed``
        Store stable column blocks compressed (the paper's server
        configuration) or plain. Affects simulated I/O volume only.
    ``block_rows``
        Rows per stored column block; scan batches align to this so
        untouched blocks flow through MergeScan by reference. It is also
        the sparse index's granule (one entry per stored block) and the
        one block size every read merges and cuts at: inline queries,
        service cursor blocks, worker frames and checkpoint folds.
    ``buffer_capacity``
        Buffer-pool budget in bytes (``None`` = unbounded).
    ``storage``
        Where column blocks physically live: a
        :class:`~repro.storage.backend.StorageFactory`, ``"memory"``
        (default — the simulated disk), ``"mmap"`` (real per-table
        segment files under ``storage_path``, or an ephemeral temp dir
        when no path is given), or ``"mmap:<path>"``. ``None`` consults
        ``REPRO_STORAGE_BACKEND``. Opening a persistent root that
        already holds data *recovers* it: tables are rebuilt from the
        published catalogs and the WAL is replayed — see
        :meth:`recover`.
    ``storage_path``
        Root directory for ``storage="mmap"``.
    ``wal_path``
        Optional path for a persistent write-ahead log (defaults to
        ``<storage_path>/wal.jsonl`` on persistent storage). A file-backed
        log is one file written through group commit (see
        :mod:`repro.txn.group_commit`): concurrent writers share fsyncs,
        and every commit is still force-written (its acknowledgement
        waits for the shared fsync).
    ``executor``
        How per-shard scan jobs execute: ``"thread"`` (default — on the
        calling or service thread, one core under the GIL) or
        ``"process"`` — the jobs of a multi-shard plan (and every
        service job) are dispatched to :mod:`repro.exec` worker
        processes that mmap the published segment files read-only and
        stream result blocks back through shared memory. Process mode
        needs ``storage="mmap"`` (it degrades to threads otherwise) and
        falls back per-job for state that is not on disk. ``None``
        consults ``REPRO_EXECUTOR``.
    ``workers``
        Process-pool size for ``executor="process"`` (default:
        ``min(4, cpu_count)``).
    ``trace``
        Query/commit tracing. ``True`` keeps the last 4096 finished
        spans in a ring-buffer :class:`~repro.obs.TraceSink`; an ``int``
        sets the ring capacity; a ``TraceSink`` instance is used as-is;
        ``None``/``False`` (default) disables span creation entirely.
        The sink is at ``db.obs.sink``; traced queries through a
        process executor stitch worker-process scan spans into the
        caller's tree.
    ``slow_query_ms``
        When set, queries slower than this threshold are recorded in
        ``db.obs.slow_log`` (profile plus — if tracing — the rendered
        span tree) and emitted on the ``repro.obs.slow`` logger.
    ``checkpoint_policy``
        Maintenance automation. ``None`` (default) means manual
        ``checkpoint()`` calls only; ``"updates:<entries>"`` or
        ``"hot-ranges:<k>"`` enables the checkpoint scheduler: it decides
        after every committing transaction, and work deferred by
        concurrent transactions or snapshot pins is drained between
        queries. Anything else raises ``ValueError``. See
        :mod:`repro.txn.scheduler` for the rules and ``DESIGN.md`` for
        the reasoning; a stuck client holding a pin shows as a growing
        ``scheduler.oldest_pin_age_s``.
    """

    def __init__(
        self,
        compressed: bool = True,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        buffer_capacity: int | None = None,
        wal_path=None,
        checkpoint_policy=None,
        storage=None,
        storage_path=None,
        executor: str | None = None,
        workers: int | None = None,
        trace=None,
        slow_query_ms: float | None = None,
    ):
        from ..exec.router import ExecutorRouter
        from ..obs import Observability

        self.io = IOStats()
        self.obs = Observability(trace=trace, slow_query_ms=slow_query_ms)
        self.storage = resolve_storage(storage, storage_path)
        try:
            exec_mode = (executor or os.environ.get("REPRO_EXECUTOR")
                         or "thread")
            self.exec_router = ExecutorRouter(exec_mode, workers=workers,
                                              storage=self.storage)
            self.store = BlockStore(compressed=compressed,
                                    block_rows=block_rows,
                                    backend=self.storage.open(MAIN_SCOPE))
            self.buffer_capacity = buffer_capacity
            self.pool = BufferPool(self.store, self.io,
                                   capacity_bytes=buffer_capacity)
            if wal_path is None:
                wal_path = self.storage.wal_path()
            self.manager = TransactionManager(
                wal=WriteAheadLog(wal_path, fsync=self.storage.fsync))
            # The manager's logical-table registry: names resolve to
            # physical tables through manager.physical_names / route /
            # split_ops.
            self._sharded: dict = self.manager.sharded_tables
            self.scheduler = CheckpointScheduler(self.manager,
                                                 checkpoint_policy)
            if checkpoint_policy is not None:
                self.manager.add_commit_listener(self.scheduler.on_commit)
            self._services: list = []  # attached QueryService front-ends
            self._closed = False
            self.recovered_lsn = 0
            if self.storage.persistent:
                from ..txn.recovery import recover_persistent

                self.recovered_lsn = recover_persistent(self)
            # Attach observability last: recovery may swap in the loaded
            # WAL (and its group coordinator), and replayed commits should
            # not pollute latency histograms.
            self.manager.obs = self.obs
            if self.manager.wal.group is not None:
                self.manager.wal.group.obs = self.obs
            self.exec_router.tracer = self.obs.tracer
            self.exec_router.io = self.io
            self._register_metric_sources()
        except BaseException:
            # A failed open (a bad option, a refused recovery) must not
            # leak what it acquired: worker processes, file handles and
            # locks, an ephemeral temp root.
            if hasattr(self, "exec_router"):
                self.exec_router.close()
            self.storage.close()
            if hasattr(self, "manager"):
                self.manager.wal.close()
            raise

    # -- observability -----------------------------------------------------

    def _register_metric_sources(self) -> None:
        """Expose every stats surface through the metrics registry, so
        one ``metrics()`` snapshot is coherent across all of them."""
        reg = self.obs.registry
        reg.register_source("io", self.io.as_dict)
        reg.register_source("txn", lambda: self.manager.stats.as_dict())
        reg.register_source(
            "scheduler", lambda: self.scheduler.stats.as_dict())
        reg.register_source("exec", self.exec_router.as_dict)
        reg.register_source("group_commit", self._group_commit_source)
        reg.register_source("service", self._service_source)

    def _group_commit_source(self) -> dict:
        # Empty only when the WAL has no file (an in-memory log).
        group = self.manager.wal.group
        return group.stats.as_dict() if group is not None else {}

    def _service_source(self) -> dict:
        """Counters summed over the attached query services."""
        out: dict = {"attached": len(self._services)}
        for service in list(self._services):
            for key, value in service.stats.as_dict().items():
                out[key] = out.get(key, 0) + value
        return out

    def metrics(self) -> dict:
        """One coherent, JSON-able snapshot of every metric this database
        maintains: the always-on latency histograms (with p50/p99), plus
        the six stats surfaces — IO, transactions, checkpoint scheduler,
        group commit, executor router, query services — read through
        their locked ``as_dict()`` views. Feed it to
        :func:`repro.obs.prometheus_text` (or
        ``scripts/export_metrics.py``) for Prometheus exposition."""
        return self.obs.registry.snapshot()

    @classmethod
    def recover(cls, storage_path, **kwargs) -> "Database":
        """Reopen a durable database from its storage root — the
        kill-and-reopen path. Every table (sharded and unsharded) is
        rebuilt from the persisted block files and catalogs, and the WAL
        is replayed image-aware; no images are re-registered by hand::

            db = Database(storage="mmap", storage_path=root)
            ...                      # commits, checkpoints — then: kill
            db = Database.recover(root)   # byte-identical query results
        """
        return cls(storage="mmap", storage_path=storage_path, **kwargs)

    def open_shard_pool(self, shard_name: str) -> BufferPool:
        """A private buffer pool over ``shard_name``'s own storage scope
        (each shard gets its own backend, so shards can live on different
        media and retiring one deletes real files). Its misses count
        straight into ``db.io`` (internally locked), keyed by the shard's
        physical name."""
        store = BlockStore(
            compressed=self.store.compressed,
            block_rows=self.store.block_rows,
            backend=self.storage.open(shard_name),
        )
        return BufferPool(store, self.io, capacity_bytes=self.buffer_capacity)

    # -- DDL ---------------------------------------------------------------

    def create_table(self, name: str, schema: Schema, rows=()) -> None:
        """Create and bulk-load an ordered table (sorted by its SK)."""
        self._check_free_name(name)
        self._install_table(
            StableTable.bulk_load(name, schema, rows, self.pool))

    def create_table_from_arrays(self, name: str, schema: Schema,
                                 arrays: dict) -> None:
        """Bulk path for pre-sorted columnar data (dbgen output)."""
        self._check_free_name(name)
        self._install_table(
            StableTable.from_arrays(name, schema, arrays, self.pool))

    def _install_table(self, stable: StableTable) -> None:
        # Published before it is registered: on a durable backend the
        # table survives a kill from this point on (before any commit).
        stable.publish(self.manager._lsn)
        self.manager.register_table(stable)

    def _check_free_name(self, name: str, sharded: bool = False) -> None:
        """Reject a create before it writes a block. ``name`` must be
        free, and so must every physical name the create registers: a
        sharded table ``v`` owns the namespace ``v__s<n>`` (its
        rebalancer keeps adding shards there), so no plain table may
        take a name in it and ``v`` may not be created over one."""
        def owner(physical):
            match = _SHARD_NAME.fullmatch(physical)
            return match and match[1]

        taken = [n for n in [*self.manager.table_names(), *self._sharded]
                 if n == name or (sharded and owner(n) == name)]
        if owner(name) in self._sharded:
            taken.append(name)
        if taken:
            raise ValueError(f"table {taken[0]!r} already exists")

    def create_sharded_table(self, name: str, schema: Schema, rows=(),
                             shards: int = 4, boundaries=None,
                             split_rows: int | None = None,
                             merge_rows: int | None = None):
        """Create a range-sharded logical table (see :mod:`repro.shard`).

        Each shard is a full physical table (own stable image, PDT stack,
        scheduler load, buffer pool); a query plans one
        MergeScan per surviving shard and updates route by sort key.
        ``split_rows``/``merge_rows`` arm the autonomous rebalancer; a
        shard whose stable+delta footprint crosses ``split_rows`` is split
        between queries, and adjacent shards whose combined footprint
        falls below ``merge_rows`` are merged. Returns the
        :class:`~repro.shard.ShardedTable`.
        """
        from ..shard.sharded import ShardedTable

        self._check_free_name(name, sharded=True)
        sharded = ShardedTable.create(
            self, name, schema, rows, shards=shards, boundaries=boundaries,
            split_rows=split_rows, merge_rows=merge_rows,
        )
        self._sharded[name] = sharded
        return sharded

    def create_sharded_table_from_arrays(self, name: str, schema: Schema,
                                         arrays: dict, shards: int = 4,
                                         split_rows: int | None = None,
                                         merge_rows: int | None = None):
        """Sharded twin of :meth:`create_table_from_arrays`: pre-sorted
        columnar data is sliced per shard with no per-row coercion."""
        from ..shard.sharded import ShardedTable

        self._check_free_name(name, sharded=True)
        sharded = ShardedTable.create_from_arrays(
            self, name, schema, arrays, shards=shards,
            split_rows=split_rows, merge_rows=merge_rows,
        )
        self._sharded[name] = sharded
        return sharded

    def sharded(self, name: str):
        """The :class:`~repro.shard.ShardedTable` behind a logical name."""
        try:
            return self._sharded[name]
        except KeyError:
            raise KeyError(f"unknown sharded table {name!r}") from None

    def is_sharded(self, name: str) -> bool:
        return name in self._sharded

    def physical_for(self, table: str, sk) -> str:
        """Physical table addressed by ``sk``: the owning shard for a
        sharded table, the table itself otherwise (introspection)."""
        return self.manager.route(table, sk)

    def table(self, name: str) -> StableTable:
        return self.manager.state_of(name).stable

    def table_names(self) -> list[str]:
        return self.manager.table_names()

    # -- snapshot pins and the query service ------------------------------------

    def pin_snapshot(self):
        """Pin the current commit point of the whole database: a
        per-table/per-shard LSN vector plus the captured layer stacks
        behind it (see :mod:`repro.txn.pins`). Every query made against
        the returned :class:`~repro.txn.pins.SnapshotPin` — via
        ``query(..., pin=pin)``, ``query_range(..., pin=pin)``, or a
        service cursor — sees exactly this version, across every shard,
        however many writers, checkpoint folds, or shard splits run in
        the meantime. Release pins promptly (they defer maintenance on
        the tables they cover); usable as a context manager.

        Concurrent use: take pins through ``QueryService.pin()`` (which
        holds the service's commit lock) when writers run on other
        threads; calling this directly is for single-threaded use.
        """
        return self.manager.pin_snapshot()

    def serve(self, workers: int = 4, max_inflight: int = 32,
              admission_timeout: float | None = None):
        """Start a :class:`~repro.service.QueryService` over this
        database — the concurrent front-end accepting simultaneous
        query/range/update requests with streaming cursors. Closed by
        :meth:`close` (or close the service itself)."""
        from ..service import QueryService

        return QueryService(self, workers=workers,
                            max_inflight=max_inflight,
                            admission_timeout=admission_timeout)

    def attach_service(self, service) -> None:
        self._services.append(service)

    def detach_service(self, service) -> None:
        if service in self._services:
            self._services.remove(service)

    # -- transactions ----------------------------------------------------------

    def begin(self) -> Transaction:
        return self.manager.begin()

    @contextlib.contextmanager
    def transaction(self):
        """Context manager: commit on success, abort on exception."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if txn.status.value == "active":
                txn.abort()
            raise
        if txn.status.value == "active":
            txn.commit()

    # -- autocommit conveniences --------------------------------------------------

    def insert(self, table: str, row) -> None:
        with self.transaction() as txn:
            txn.insert(table, row)

    def delete(self, table: str, sk) -> None:
        with self.transaction() as txn:
            txn.delete(table, sk)

    def modify(self, table: str, sk, column: str, value) -> None:
        with self.transaction() as txn:
            txn.modify(table, sk, column, value)

    def insert_many(self, table: str, rows) -> None:
        """Bulk-insert ``rows`` in one transaction via the batch path."""
        self.apply_batch(table, [("ins", row) for row in rows])

    def apply_batch(self, table: str, ops) -> int:
        """Apply a whole update batch — ``("ins", row) | ("del", sk) |
        ("mod", sk, column, value)`` — as one transaction through the
        vectorized bulk path (one WAL record, one resolution sweep).
        Sharded tables split the batch by sort key and apply one
        sub-batch per touched shard inside the same transaction (still
        one WAL record, carrying per-shard entry lists). Returns the
        number of operations applied."""
        with self.transaction() as txn:
            return txn.apply_batch(table, ops)

    # -- queries ---------------------------------------------------------------------

    def query(self, table: str, columns=None, sk=None, pin=None,
              where=None, aggregate=None) -> Relation:
        """Scan the latest committed state (positional merge, no locks).

        Only the named ``columns`` are read from storage. Every read —
        this one, :meth:`query_range` and :meth:`query_point` — runs the
        one pipeline of :meth:`_read`: drain deferred maintenance, pin
        the commit point, plan, stream, materialize.

        ``sk`` adds an equality predicate on the sort key (or an SK
        prefix), i.e. the range ``[sk, sk]`` (see :meth:`query_point`).
        ``pin`` scans a :meth:`pin_snapshot` version instead of the
        latest state.

        ``where`` (a :class:`~repro.engine.expr.Expr`) and ``aggregate``
        (an :class:`~repro.engine.expr.AggSpec`) push filtering and
        partial aggregation into the shard scans themselves: the router
        prunes shards whose sort-key ranges cannot satisfy the predicate,
        and only qualifying (or pre-aggregated) rows are materialized.
        Results are identical to scanning everything and filtering /
        aggregating centrally.
        """
        return self._read(table, sk, sk, columns, pin, where, aggregate)

    def query_range(self, table: str, low=None, high=None, columns=None,
                    pin=None, where=None, aggregate=None) -> Relation:
        """Rows whose sort key (or SK prefix) lies in ``[low, high]``.

        The router prunes a sharded table to the shards whose key ranges
        intersect the bounds, then each table's *stale* sparse index —
        built once on the stable image and never maintained — restricts
        the positional MergeScan to the qualifying SID range, which the
        merge narrows to the bounds inside the first stored block it
        reads; ghost-respecting SID assignment keeps the pruning correct
        under any update load (paper section 2.1, "Respecting Deletes").
        ``pin``, ``where`` and ``aggregate`` as in :meth:`query`.
        """
        return self._read(table, low, high, columns, pin, where, aggregate)

    def query_point(self, table: str, sk, columns=None) -> Relation:
        """Rows whose sort key equals ``sk`` (or extends it, for an SK
        prefix): the range ``[sk, sk]``, so a full key reaches one shard
        and reads one stored block per column, where the merge narrows
        to the key's own rows — no fan-out, cold shards untouched."""
        return self._read(table, sk, sk, columns)

    def _read(self, table: str, low, high, columns, pin=None, where=None,
              aggregate=None) -> Relation:
        """The one read path. A latest-state read first drains the
        maintenance the checkpoint scheduler had to defer (and, on a
        sharded table, runs the rebalancer) — *between* queries, so PDT
        layers shrink back without a stop-the-world pause — then pins the
        commit point for the duration of the scan. An explicit ``pin``
        skips both: its version is already fixed."""
        with self.obs.query_scope(table) as q:
            if pin is not None:
                version = contextlib.nullcontext(pin)
            else:
                self.drain_maintenance(table)
                version = self.pin_snapshot()
            with version as pinned:
                # Plan the pinned version (shard pruning, sparse-index
                # SID ranges, push-down — an unsharded table is a
                # one-part plan) and materialize the plan's block stream.
                plan = plan_scan(pinned, table, low=low, high=high,
                                 columns=columns, where=where,
                                 agg=aggregate)
                rel = Relation.from_batches(
                    plan.columns,
                    iter_plan_blocks(plan, router=self.exec_router),
                )
            q["rows"] = rel.num_rows
            return rel

    def image_rows(self, table: str) -> list[tuple]:
        from ..core.stack import image_rows

        rows: list[tuple] = []
        for name in self.manager.physical_names(table):
            state = self.manager.state_of(name)
            rows.extend(
                image_rows(state.stable, self.manager.latest_layers(name)))
        return rows

    def row_count(self, table: str) -> int:
        total = 0
        for name in self.manager.physical_names(table):
            total += self.manager.state_of(name).stable.num_rows
            for layer in self.manager.latest_layers(name):
                total += layer.total_delta()
        return total

    # -- maintenance --------------------------------------------------------------------

    def checkpoint(self, table: str) -> None:
        """Fold all deltas into a fresh stable image.

        The manual form, run even with transactions open (their pins keep
        the outgoing version); ``checkpoint_policy=`` runs full
        or incremental checkpoints automatically instead. Sharded tables
        checkpoint shard by shard (each fold rewrites only that shard's
        stable image; shards without deltas are not touched).
        """
        # Resolved at call time, so a hook installed on the module (the
        # crash matrix kills between two shards' folds) sees every fold.
        from ..txn.checkpoint import checkpoint_table

        for name in self.manager.physical_names(table):
            checkpoint_table(self.manager, name)

    def rebalance(self, table: str) -> int:
        """Run the shard rebalancer now; returns actions taken. (It also
        runs autonomously between queries on sharded tables.)"""
        return self.sharded(table).maybe_rebalance()

    def drain_maintenance(self, table: str | None = None) -> None:
        """Run the maintenance the checkpoint scheduler deferred, then the
        shard rebalancer: for ``table`` (every shard of a sharded one),
        or for every table when ``None``. Latest-state reads call it
        before they pin; :class:`~repro.service.QueryService` calls it
        between requests."""
        if table is None:
            self.scheduler.run_pending()
        else:
            for name in self.manager.physical_names(table):
                self.scheduler.run_pending(name)
        for logical, sharded in list(self._sharded.items()):
            if table is None or table == logical:
                # Also drops retired-shard storage whose pins have gone.
                sharded.maybe_rebalance()

    def delta_bytes(self, table: str) -> int:
        """Bytes of RAM-resident delta state (PDT entries, paper model)."""
        return sum(
            layer.memory_usage()
            for name in self.manager.physical_names(table)
            for layer in self.manager.latest_layers(name)
        )

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Shut the database down cleanly: close attached query services
        (joining their workers), reap executor worker processes, and drop
        retired-shard storage. Idempotent; after it, the interpreter
        exits without lingering pool threads. Usable as a
        context manager::

            with Database() as db:
                ...
        """
        if self._closed:
            return
        self._closed = True
        for service in list(self._services):
            service.close()
        for sharded in self._sharded.values():
            sharded.close()
        # Reap executor worker processes (join, then terminate stragglers)
        # before storage goes away — no orphans, and no worker left
        # mapping segment files a shutdown sweep might touch.
        self.exec_router.close()
        # Clean shutdown is a durability point: publish every backend's
        # catalog before releasing file handles.
        self.storage.close()
        self.manager.wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- temperature control (benchmarks) ---------------------------------------------------

    def make_cold(self) -> None:
        self.pool.clear()
        for name in self.manager.table_names():
            self.manager.state_of(name).stable.pool.clear()

    def warm(self, table: str, columns=None) -> None:
        for name in self.manager.physical_names(table):
            self.manager.state_of(name).stable.pool.warm_table(name, columns)
