"""The concurrent query front-end: admission, pins, jobs, cursors.

``QueryService`` is the database's concurrency boundary. Synchronous
callers use the ``submit_*`` methods (thread-safe, returning streaming
cursors or futures); asyncio callers use the ``query`` / ``query_range`` /
``apply_batch`` / ``update`` coroutines, which are a thin façade over the
same worker pool — submission hops to a thread, cursors are async-iterable
natively.

One read request flows::

    acquire admission slot                 (backpressure: bounded in-flight)
      -> lease a snapshot pin              (one commit point, whole database)
      -> plan per-shard scans against it   (router + sparse-index pruning)
      -> schedule one job per shard        (one pass over its SID range)
      -> return a StreamingCursor          (blocks stream as shards finish)

Writes (scalar updates and bulk batches) run on the same pool but are
serialized by the service's commit lock — the PDT layering makes readers
never block on them: every live cursor reads pinned layers, and a commit
on a pinned table swings the master Write-PDT to a copy instead of
mutating the object pins loan. On durable storage the commit lock is also
the group-commit coalescing point: each write stages its WAL record under
the lock but waits for the shared fsync *outside* it, so while one
writer's group fsync is in flight the next writer is already running its
commit CPU work — fsyncs coalesce across writers and the asyncio façade
gets the benefit for free through the existing futures. When the last
in-flight request drains, the service runs the maintenance the checkpoint
scheduler and rebalancer deferred while pins were live — the same
between-queries draining ``Database.query`` does for synchronous use.

Thread-safety contract: every public method is safe from any thread (and
the coroutine facade from any event loop); internally, reads are
lock-free against writes — a commit never blocks a streaming cursor and
vice versa. ``stats`` is updated under its own lock; read it via
``stats.as_dict()`` (or ``Database.metrics()``) for a coherent snapshot.

Lifecycle contract: obtain a service from ``Database.serve(workers=N)``
and close it — it is a context manager — before closing the database
(``Database.close()`` also closes any still-attached services).
``close()`` drains in-flight requests, joins the worker pool, and runs
deferred maintenance; afterwards submissions raise :class:`ServiceClosed`
while already-returned cursors may still be drained. Cursors and pins
obtained from the service hold refcounted leases, so dropping them (even
abandoning them to the GC) releases resources deterministically.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from .cursor import StreamingCursor
from .jobs import (
    AdmissionController,
    JobScheduler,
    ServiceClosed,
    ServiceStats,
)
from .plan import plan_scan

DEFAULT_WORKERS = 4


class _PinLease:
    """Refcounted hold on one submission's pin.

    Both the cursors *and* the shard scan jobs of a submission hold the
    lease — one hold each, all counted in up front: a cursor closed
    early must not let maintenance rewrite the pinned objects a
    still-running job is scanning, so the pin releases (if owned) only
    when the last cursor has finished AND the last job has stopped
    reading.
    """

    def __init__(self, pin, owns: bool, holds: int):
        self.pin = pin
        self.owns = owns
        self._count = holds
        self._lock = threading.Lock()

    def release(self) -> bool:
        """Drop one hold; True when the lease just drained. The pin is
        released exactly once: ``owns`` is cleared under the lock, so a
        lease whose pin was already force-released at service shutdown
        (:meth:`disown`) cannot release it again when a leftover cursor
        is closed afterwards."""
        with self._lock:
            self._count -= 1
            drained = self._count == 0
            release_pin = drained and self.owns
            if release_pin:
                self.owns = False
        if release_pin:
            self.pin.release()
        return drained

    def disown(self) -> None:
        """Force-release the owned pin (service shutdown outlives
        never-drained cursors); later ``release`` calls become pin
        no-ops."""
        with self._lock:
            release_pin = self.owns
            self.owns = False
        if release_pin:
            self.pin.release()


class QueryService:
    """Concurrent front-end over one :class:`~repro.db.database.Database`.

    Parameters: ``workers`` sizes the scan/write pool; ``max_inflight``
    bounds admitted read requests (buffered result memory scales with it);
    ``admission_timeout`` turns backpressure into
    :class:`~repro.service.jobs.ServiceSaturated` after that many seconds
    (``None`` blocks). A cursor block is one stored block's merge, cut
    only where it runs to twice the pinned image's ``block_rows``.

    The service registers itself with the database, so ``db.close()``
    joins its workers; use either as a context manager.
    """

    def __init__(self, db, workers: int = DEFAULT_WORKERS,
                 max_inflight: int = 32,
                 admission_timeout: float | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._db = db
        # Process-mode databases hand shard jobs to worker processes; the
        # runner is None in thread mode and the scheduler keeps its
        # zero-overhead in-thread default.
        exec_router = getattr(db, "exec_router", None)
        self._runner = (
            exec_router.spec_runner() if exec_router is not None else None
        )
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="query-service",
        )
        self._write_lock = threading.RLock()
        self._scheduler = JobScheduler()
        self._admission = AdmissionController(max_inflight,
                                              timeout=admission_timeout)
        self.stats = ServiceStats()
        self._leases: set[_PinLease] = set()
        self._leases_lock = threading.Lock()
        self._closed = False
        db.attach_service(self)

    # -- pins --------------------------------------------------------------

    def pin(self):
        """A database-wide snapshot pin at the current commit point, taken
        under the service's commit lock (so it cannot straddle a write).
        Pass it to submissions to run several requests against one
        consistent version; release it (or use ``with``) when done."""
        self._check_open()
        with self._write_lock:
            return self._db.pin_snapshot()

    # -- read submissions --------------------------------------------------

    def submit_query(self, table: str, columns=None, pin=None,
                     where=None, agg=None) -> StreamingCursor:
        """Full-table scan at one commit point; returns its cursor.
        ``where`` / ``agg`` push a predicate
        (:class:`~repro.engine.expr.Expr`) and/or a partial aggregate
        (:class:`~repro.engine.expr.AggSpec`) into the shard jobs."""
        return self.submit_many(
            [{"table": table, "columns": columns, "where": where,
              "agg": agg}], pin=pin)[0]

    def submit_range(self, table: str, low=None, high=None, columns=None,
                     pin=None, where=None, agg=None) -> StreamingCursor:
        """Sort-key range scan ``[low, high]`` (prefix-aware, like
        ``Database.query_range``) at one commit point, with optional
        pushed-down ``where`` predicate and ``agg`` partial aggregate."""
        return self.submit_many(
            [{"table": table, "low": low, "high": high,
              "columns": columns, "where": where, "agg": agg}], pin=pin)[0]

    def submit_many(self, requests, pin=None) -> list[StreamingCursor]:
        """Admit a batch of read requests against one shared pin.

        ``requests`` is a list of dicts with keys ``table`` and optional
        ``low`` / ``high`` / ``columns`` / ``where`` / ``agg``. Every
        request gets one scan job per shard it touches, all reading the
        same pinned version: the submission shape for concurrent
        analytics over one consistent snapshot.
        """
        self._check_open()
        requests = list(requests)
        if not requests:
            return []
        # All-or-nothing batch grant; raises ValueError when the batch
        # exceeds max_inflight outright.
        self._admission.acquire(len(requests))
        own_pin = pin is None
        plan_t0 = time.perf_counter()
        try:
            if own_pin:
                pin = self.pin()
            # Planning is side-effect free; a bad request (unknown table,
            # unknown column) fails the batch here, before any job exists.
            plans = [
                plan_scan(
                    pin, request["table"],
                    low=request.get("low"), high=request.get("high"),
                    columns=request.get("columns"),
                    where=request.get("where"), agg=request.get("agg"),
                )
                for request in requests
            ]
        except BaseException:
            if own_pin and pin is not None:
                pin.release()
            self._admission.release(len(requests))
            raise
        plan_s = time.perf_counter() - plan_t0
        tracer = self._db.obs.tracer
        lease = _PinLease(
            pin, owns=own_pin,
            holds=sum(1 + len(plan.parts) for plan in plans))
        with self._leases_lock:
            self._leases.add(lease)
        # The job reads the pinned objects until it finishes — its lease
        # hold keeps an early cursor close from letting maintenance
        # rewrite state a live scan depends on.
        drop_job_hold = lambda: self._lease_done(lease)  # noqa: E731
        cursors: list[StreamingCursor] = []
        jobs: list = []
        for plan in plans:
            # One root span per request; its shard jobs parent to it by
            # explicit context (they run on pool threads). Finished by
            # the cursor.
            root = (
                tracer.begin("query", table=plan.table,
                             shards=len(plan.parts))
                if tracer.enabled else None
            )
            ctx = root.ctx() if root is not None else None
            feeds = []
            for spec in plan.parts:
                job = self._scheduler.schedule(
                    spec, runner=self._runner)[1]
                feeds.append(job.feed)
                if ctx is not None:
                    job.trace = (tracer, ctx)
                job.on_done = drop_job_hold
                jobs.append(job)
            cursor = StreamingCursor(
                plan, feeds, on_finish=self._make_finisher(lease),
                tracer=tracer, root_span=root)
            cursor.profile.plan_s = plan_s  # batch planning time
            cursors.append(cursor)
            self.stats.bump(
                **{"range_queries" if plan.filtered else "queries": 1},
                jobs_scheduled=len(plan.parts),
            )
        submitted = 0
        try:
            for job in jobs:
                self._pool.submit(self._run_job, job)
                submitted += 1
        except BaseException:
            # pool.submit racing close() is the realistic failure here:
            # drop the hold of every job that never started, and close
            # our cursors (which frees their slots and holds).
            for job in jobs[submitted:]:
                job.on_done()
            for cursor in cursors:
                cursor.close()
            raise
        return cursors

    # -- write submissions -------------------------------------------------

    def submit_batch(self, table: str, ops) -> Future:
        """Apply a whole update batch (bulk path, one transaction, one WAL
        record) through the service; resolves to the op count."""
        return self._submit_write(
            lambda: self._db.apply_batch(table, list(ops)), "batches")

    def submit_update(self, table: str, op) -> Future:
        """Apply one scalar op — ``("ins", row) | ("del", sk) |
        ("mod", sk, column, value)`` — as its own transaction."""
        kind = op[0]
        if kind == "ins":
            work = lambda: self._db.insert(table, op[1])  # noqa: E731
        elif kind == "del":
            work = lambda: self._db.delete(table, op[1])  # noqa: E731
        elif kind == "mod":
            work = lambda: self._db.modify(table, op[1], op[2],  # noqa: E731
                                           op[3])
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        return self._submit_write(work, "updates")

    def _submit_write(self, work, counter: str) -> Future:
        self._check_open()
        # Count only admitted submissions (a ServiceClosed above must not
        # inflate the write counters).
        self.stats.bump(**{counter: 1})
        obs = self._db.obs

        def locked():
            if obs.tracer.enabled:
                # Root span for the write path; txn.commit (manager) and
                # wal.group_flush (a led flush) nest under it ambiently.
                with obs.tracer.start("service.write", kind=counter):
                    return self._write_locked(work, obs)
            return self._write_locked(work, obs)

        return self._pool.submit(locked)

    def _write_locked(self, work, obs):
        manager = self._db.manager
        with self._write_lock:
            # Stage the WAL record under the lock, wait for the
            # shared group fsync outside it: the next writer runs its
            # commit CPU work while ours is being made durable.
            with manager.defer_durability():
                result = work()
            ticket = manager.take_deferred_ticket()
        if ticket is not None:
            t0 = time.perf_counter()
            if obs.tracer.enabled:
                with obs.tracer.start("wal.ack_wait") as span:
                    manager.wal.wait_durable(ticket)
                    span.attrs.update(led=ticket.led,
                                      group_size=ticket.group_size)
            else:
                manager.wal.wait_durable(ticket)
            # The deferred ack wait IS this commit's durability stage
            # (the manager timed ~0 for it inside the lock).
            obs.commit_stage_seconds["durability_wait"].observe(
                time.perf_counter() - t0)
            self.stats.bump(
                group_commits=1,
                group_flushes_led=1 if ticket.led else 0,
                group_commits_coalesced=(
                    1 if ticket.group_size > 1 else 0),
            )
        return result

    # -- asyncio façade ----------------------------------------------------

    async def query(self, table: str, columns=None, pin=None,
                    where=None, agg=None) -> StreamingCursor:
        """Async submission; iterate the returned cursor with
        ``async for``."""
        return await asyncio.to_thread(
            self.submit_query, table, columns=columns, pin=pin,
            where=where, agg=agg)

    async def query_range(self, table: str, low=None, high=None,
                          columns=None, pin=None, where=None, agg=None
                          ) -> StreamingCursor:
        return await asyncio.to_thread(
            self.submit_range, table, low=low, high=high,
            columns=columns, pin=pin, where=where, agg=agg)

    async def apply_batch(self, table: str, ops) -> int:
        return await asyncio.wrap_future(self.submit_batch(table, ops))

    async def update(self, table: str, op) -> int:
        return await asyncio.wrap_future(self.submit_update(table, op))

    # -- maintenance hook --------------------------------------------------

    def _lease_done(self, lease: _PinLease) -> None:
        if lease.release():
            with self._leases_lock:
                self._leases.discard(lease)
            # The pin this lease held may have been the last thing
            # deferring maintenance; if the service is otherwise idle no
            # later request would drain it, so kick a drain now.
            if self._admission.inflight == 0 and not self._closed:
                try:
                    self._pool.submit(self._drain_maintenance)
                except RuntimeError:
                    pass  # closing; close() handles the leftovers

    def _run_job(self, job) -> None:
        """Pool entry point for a scheduled shard job: run it under a
        ``shard.scan`` span parented (by explicit context — this is a
        pool thread) to the request that created the job."""
        if job.trace is None:
            job.run()
            self._note_pushdown(job)
            return
        tracer, ctx = job.trace
        with tracer.start("shard.scan", parent=ctx,
                          shard=job.spec.pinned.name) as span:
            job.run()
            span.attrs["blocks"] = job.blocks
            if job.pushdown:
                span.attrs["rows_scanned"] = \
                    job.pushdown_counter["rows_in"]
                span.attrs["rows_out"] = job.pushdown_counter["rows_out"]
        self._note_pushdown(job)

    def _note_pushdown(self, job) -> None:
        """Fold one finished pushed-down job's row accounting into the
        service counters."""
        if not job.pushdown:
            return
        counter = job.pushdown_counter
        self.stats.bump(
            pushdown_jobs=1,
            rows_scanned=counter["rows_in"],
            rows_pushed_down=max(0, counter["rows_in"]
                                 - counter["rows_out"]),
        )

    def _make_finisher(self, lease: _PinLease):
        def on_finish(cursor: StreamingCursor) -> None:
            self.stats.bump(blocks_streamed=cursor.profile.blocks,
                            rows_streamed=cursor.profile.rows)
            self._db.obs.observe_query(cursor.profile)
            self._lease_done(lease)
            if self._admission.release() == 0 and not self._closed:
                try:
                    self._pool.submit(self._drain_maintenance)
                except RuntimeError:
                    pass  # lost the race with close(); nothing to drain for

        return on_finish

    def _drain_maintenance(self) -> None:
        """Between-requests maintenance: run what the checkpoint scheduler
        and rebalancer deferred while pins were live — the service-side
        twin of the draining ``Database.query`` does between queries."""
        if self._closed or self._admission.inflight:
            return
        with self._write_lock:
            if self._admission.inflight:
                return  # a new request was admitted; it will drain later
            self._db.drain_maintenance()
        self.stats.bump(maintenance_runs=1)

    # -- lifecycle ---------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("query service is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def inflight(self) -> int:
        return self._admission.inflight

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    def close(self) -> None:
        """Reject new submissions, join the workers, release leftover pin
        leases. Already-returned cursors can still be drained (their
        blocks are buffered); idempotent."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        # Jobs have all finished; any lease still held belongs to a
        # never-drained cursor. Shutdown outlives those readers: release
        # their pins so maintenance is not deferred forever.
        with self._leases_lock:
            leases, self._leases = list(self._leases), set()
        for lease in leases:
            lease.disown()
        self._db.detach_service(self)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"QueryService(inflight={self._admission.inflight}, "
            f"peak={self._admission.peak_inflight}, {state})"
        )
