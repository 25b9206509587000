"""ExecutorRouter: per-job dispatch to shard workers, thread fallback.

The router is the single decision point both parallel scan paths go
through — the inline plan fan-out (``service.plan.iter_plan_blocks``,
plans of more than one part) and the query service's per-shard jobs. For
each job it asks: *is this shard's
pinned version on disk where a worker process can mmap it?* If yes (mmap
backend, stable image still storage-attached, published ``image_lsn``
matching the pinned one, and enough rows to be worth a hop), the job is
serialized as a pin vector and dispatched to a :class:`ShardWorker`
process; otherwise it runs on the calling thread exactly as before. The
fallback is silent and per-job, so ``Database(executor="process")`` is
always safe — memory-backed databases, unpublished checkpoints, and
tiny tables simply stay on threads.

Crash isolation: a worker that dies mid-job (detected by pipe EOF or a
dead process with a drained pipe) is reaped and replaced; the in-flight
job is re-dispatched with ``skip=<blocks already delivered>`` — pinned
scans are deterministic, so the replacement (or, after
``max_redispatch`` deaths, the thread fallback) continues the byte
stream exactly where the dead worker left it. The database keeps
serving; nothing above the router notices beyond latency.

Thread-safety contract: the dispatch surface (``stream_blocks``,
``run_source``, ``submit_stream``, ``spec_runner``) may be called from
any thread concurrently — workers are handed out under the router's
lock, and each in-flight job owns its worker exclusively until the
final frame (so pipes and shm rings are never shared mid-job). The
counter fields are best-effort under concurrency; read them through
``as_dict()`` (the ``exec`` source of ``Database.metrics()``).

Lifecycle contract: the router is created by (and belongs to) one
``Database``; workers spawn lazily on first eligible dispatch and are
joined/reaped by ``close()``, which ``Database.close()`` calls — after
that, dispatches run on the calling thread. Workers hold **read-only**
mmaps of published segments and no WAL or catalog locks, so a leaked or
killed worker can never corrupt the database.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor

from .pinvec import scan_payload
from .transport import DEFAULT_RING_BYTES, ShmRingReader

DEFAULT_WORKERS = 4
#: Below this many stable rows a process hop costs more than it saves.
MIN_REMOTE_ROWS = 2048
#: Seconds a dispatch waits for a free worker before running locally.
DISPATCH_TIMEOUT_S = 30.0
#: Worker deaths one job survives before it falls back to a thread.
MAX_REDISPATCH = 2


class WorkerCrashed(RuntimeError):
    """A worker process died while a job was in flight."""


class StaleImage(RuntimeError):
    """The worker's published catalog does not carry the pinned image."""


class ExprRejected(RuntimeError):
    """The worker rejected the job's pushed-down expression (vocabulary
    skew); the router re-runs the identical pushed pipeline locally."""


class _WorkerHandle:
    """One spawned worker process + its pipe and block ring."""

    _ids = itertools.count()

    def __init__(self, ring_bytes: int):
        import multiprocessing as mp

        from .worker import worker_main

        ctx = mp.get_context("spawn")
        self.reader = ShmRingReader(ring_bytes)
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=worker_main,
            args=(child_conn, self.reader.name, ring_bytes),
            name=f"repro-shard-worker-{next(self._ids)}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self._job_ids = itertools.count()
        self.dead = False

    @property
    def pid(self):
        return self.proc.pid

    def run_job(self, payload: dict, on_done=None):
        """Dispatch one scan job; yield ``(first_rid, arrays)`` blocks.

        ``on_done`` (if given) receives the telemetry extras dict the
        worker ships with its final frame — per-job IO counters and
        worker-side trace spans. Extras of an *abandoned* predecessor
        job are dropped with its blocks (the job-id check), so a retried
        job's counters are never ingested twice.

        Raises :class:`StaleImage` (job not runnable remotely, worker
        fine) or :class:`WorkerCrashed` (worker died; caller re-dispatches
        with the delivered-block count)."""
        job_id = next(self._job_ids)
        try:
            self.conn.send(("scan", job_id, payload))
        except (OSError, BrokenPipeError):
            self.dead = True
            raise WorkerCrashed("pipe to worker is gone") from None
        while True:
            try:
                if not self.conn.poll(0.05):
                    if not self.proc.is_alive() and not self.conn.poll(0):
                        self.dead = True
                        raise WorkerCrashed(
                            f"worker pid={self.pid} died mid-job"
                        )
                    continue
                msg = self.conn.recv()
            except (EOFError, OSError):
                self.dead = True
                raise WorkerCrashed(
                    f"worker pid={self.pid} died mid-job") from None
            op = msg[0]
            if op == "block":
                _op, got_id, first_rid, frame = msg
                if got_id != job_id:
                    continue  # tail of an abandoned predecessor job
                yield first_rid, self.reader.decode(frame)
            elif op == "done":
                if msg[1] == job_id:
                    if on_done is not None and len(msg) > 3:
                        on_done(msg[3])
                    return
            elif op == "stale":
                if msg[1] == job_id:
                    raise StaleImage(msg[2])
            elif op == "unsupported":
                if msg[1] == job_id:
                    raise ExprRejected(msg[2])
            elif op == "error":
                if msg[1] == job_id:
                    raise RuntimeError(f"shard worker failed: {msg[2]}")

    def close(self, timeout: float = 2.0) -> None:
        self.dead = True
        try:
            self.conn.send(("close",))
        except (OSError, BrokenPipeError):
            pass
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout)
        try:
            self.conn.close()
        except OSError:
            pass
        self.reader.close()
        self.proc.close()


class ScanSource:
    """One partition's scan: a local thunk plus optional remote identity.

    Callable (runs the local block pipeline), and carries the
    pinned-state references the router needs to build a pin-vector
    payload at dispatch time.
    """

    __slots__ = ("local", "stable", "layers", "columns", "sid_lo",
                 "sid_hi", "low", "high", "trace_ctx", "push")

    def __init__(self, local, stable=None, layers=(), columns=(),
                 sid_lo=0, sid_hi=None, low=None, high=None,
                 trace_ctx=None, push=None):
        self.local = local
        self.stable = stable
        self.layers = tuple(layers)
        self.columns = tuple(columns)
        self.sid_lo = sid_lo
        self.sid_hi = sid_hi
        self.low = low  # sort-key bounds the merge narrows the window to
        self.high = high
        # Serialized span context captured on the *submitting* thread
        # (contextvars do not cross the driver pool): lets worker spans
        # stitch under the query span even for inline fan-out scans.
        self.trace_ctx = trace_ctx
        # Pushed-down computation payload; the local thunk must apply
        # the same evaluation (see ShardScanSpec.pushed_stream).
        self.push = push

    def __call__(self):
        return self.local()


class ExecutorRouter:
    """Routes per-shard scan jobs to worker processes or threads.

    ``mode`` is ``"thread"`` (every job local — the pre-existing
    behaviour, zero overhead) or ``"process"``. Workers are spawned
    lazily on first eligible dispatch, so a process-mode database that
    never scans a big mmap table never forks anything.
    """

    def __init__(self, mode: str = "thread", workers: int | None = None,
                 storage=None):
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown executor mode {mode!r}")
        if mode == "process" and not self._storage_supported(storage):
            # Memory (or custom non-mmap) storage has nothing a worker
            # could mmap; degrade silently so REPRO_EXECUTOR=process is
            # safe across the whole matrix.
            mode = "thread"
        self.mode = mode
        self.workers = max(1, workers if workers is not None
                           else min(DEFAULT_WORKERS, os.cpu_count() or 1))
        self.ring_bytes = DEFAULT_RING_BYTES
        self.min_remote_rows = MIN_REMOTE_ROWS
        self.dispatch_timeout = DISPATCH_TIMEOUT_S
        self.max_redispatch = MAX_REDISPATCH
        self.block_delay_s = 0.0  # test hook: per-block worker-side sleep
        self._handles: list[_WorkerHandle] = []
        self._free: queue.Queue = queue.Queue()
        self._spawned = 0
        self._lock = threading.Lock()
        self._threads: ThreadPoolExecutor | None = None
        self._closed = False
        # observability ----------------------------------------------------
        self.remote_jobs = 0
        self.local_jobs = 0
        self.redispatches = 0
        self.stale_fallbacks = 0
        self.expr_fallbacks = 0  # worker rejected a pushed expression
        self.worker_io_merges = 0  # completed remote jobs whose IO merged
        # Set by the owning Database: worker-side IO deltas merge into
        # `io` (the db-level IOStats); `tracer` threads span context into
        # payloads and stitches worker spans back into the sink.
        self.io = None
        self.tracer = None

    def as_dict(self) -> dict:
        """JSON-able router counters for ``Database.metrics()``."""
        return {
            "mode": self.mode,
            "workers": self.workers,
            "remote_jobs": self.remote_jobs,
            "local_jobs": self.local_jobs,
            "redispatches": self.redispatches,
            "stale_fallbacks": self.stale_fallbacks,
            "expr_fallbacks": self.expr_fallbacks,
            "worker_io_merges": self.worker_io_merges,
            "live_workers": len(self.worker_pids()),
        }

    @staticmethod
    def _storage_supported(storage) -> bool:
        from ..storage.mmap_backend import MmapStorage

        return isinstance(storage, MmapStorage)

    # -- worker pool -------------------------------------------------------

    def worker_pids(self) -> list[int]:
        """PIDs of live workers (crash-injection tests kill these)."""
        with self._lock:
            return [h.pid for h in self._handles if not h.dead]

    def _checkout(self):
        if self.mode != "process" or self._closed:
            return None
        with self._lock:
            if self._closed:
                return None
            if self._spawned < self.workers:
                self._spawned += 1
                try:
                    handle = _WorkerHandle(self.ring_bytes)
                except BaseException:
                    self._spawned -= 1
                    raise
                self._handles.append(handle)
                return handle
        try:
            handle = self._free.get(timeout=self.dispatch_timeout)
        except queue.Empty:
            return None
        if handle is None or handle.dead:  # close() drained, or raced
            return None
        return handle

    def _checkin(self, handle) -> None:
        if handle.dead:
            with self._lock:
                if handle in self._handles:
                    self._handles.remove(handle)
                self._spawned -= 1
            handle.close(timeout=0.5)
            return
        if self._closed:
            return
        self._free.put(handle)

    # -- payloads ----------------------------------------------------------

    def payload_for(self, stable, layers, columns, sid_lo, sid_hi,
                    low=None, high=None, push=None) -> dict | None:
        """A pin-vector job payload, or None when the job must stay
        local: thread mode, a table too small to be worth the hop, a
        non-mmap scope (including an outgoing image a fold under a pin
        re-homed into memory), or an unpublished/mismatched image LSN."""
        if self.mode != "process" or self._closed \
                or stable.num_rows < self.min_remote_rows:
            return None
        from ..storage.mmap_backend import MmapFileBackend

        backend = stable.pool.store.backend
        if not isinstance(backend, MmapFileBackend):
            return None
        # The LSN stamped on the object when *this* image was published
        # — never the store's current value, which a concurrent
        # checkpoint may already have moved past.
        image_lsn = stable.image_lsn
        epoch = stable.image_epoch
        if image_lsn is None or epoch is None:
            return None
        payload = scan_payload(
            backend.root, stable.name, image_lsn, epoch, layers, columns,
            sid_lo, sid_hi, low=low, high=high, push=push,
        )
        if self.block_delay_s:
            payload["block_delay_s"] = self.block_delay_s
        return payload

    # -- job execution -----------------------------------------------------

    def stream_blocks(self, payload: dict, local, trace_ctx=None,
                      counter=None):
        """Run one job remotely with crash re-dispatch; yield its blocks.

        ``local`` is the zero-argument thread fallback returning the same
        deterministic block stream — for pushed-down jobs it applies the
        identical predicate/aggregate pipeline, so a worker that rejects
        the expression (:class:`ExprRejected`, version skew) degrades to
        a byte-identical local pass. ``delivered`` blocks already yielded
        to the consumer are skipped on every re-run, so the output is
        byte-identical whether zero, one, or every worker died.
        ``counter`` receives the completed worker's push-down row
        accounting (``rows_in`` / ``rows_out`` extras); the local
        fallback is expected to fill the same counter itself.

        Telemetry: the worker ships per-job IO counters and its scan span
        with the final ``done`` frame; both are ingested here *exactly
        once per completed attempt* — a crashed attempt ships nothing
        (its span is recorded as an ``orphan`` instead, so redispatches
        stay visible in the trace tree rather than silently missing).
        ``trace_ctx`` overrides the ambient current span for callers
        driving this from a pool thread (see :class:`ScanSource`)."""
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        cur = tracer.current() if traced else None
        ctx = trace_ctx if trace_ctx is not None else (
            cur.ctx() if cur is not None else None)
        if traced and ctx is not None:
            payload = dict(payload, trace=ctx)
        delivered = 0
        deaths = 0
        use_local = False
        while not use_local:
            handle = self._checkout()
            if handle is None:
                break
            extras: dict = {}
            try:
                for block in handle.run_job(dict(payload, skip=delivered),
                                            on_done=extras.update):
                    yield block
                    delivered += 1
                self.remote_jobs += 1
                self._ingest_extras(extras)
                if counter is not None and "pushdown" in extras:
                    for key, value in extras["pushdown"].items():
                        counter[key] = counter.get(key, 0) + value
                if cur is not None:
                    cur.attrs["remote_blocks"] = (
                        cur.attrs.get("remote_blocks", 0) + delivered)
                return
            except StaleImage:
                self.stale_fallbacks += 1
                use_local = True
            except ExprRejected:
                self.expr_fallbacks += 1
                use_local = True
            except WorkerCrashed:
                deaths += 1
                self.redispatches += 1
                if traced and ctx is not None:
                    tracer.record_orphan(
                        ctx, "worker.scan", pid=handle.pid,
                        delivered=delivered,
                        table=payload.get("table", "?"))
                if deaths > self.max_redispatch:
                    use_local = True
            finally:
                self._checkin(handle)
        self.local_jobs += 1
        local_blocks = 0
        for i, block in enumerate(local()):
            if i >= delivered:
                local_blocks += 1
                yield block
        if cur is not None:
            cur.attrs["local_blocks"] = (
                cur.attrs.get("local_blocks", 0) + local_blocks)
            if delivered:  # blocks a since-dead worker did deliver
                cur.attrs["remote_blocks"] = (
                    cur.attrs.get("remote_blocks", 0) + delivered)

    def _ingest_extras(self, extras: dict) -> None:
        """Fold one completed remote job's telemetry into parent state."""
        if not extras:
            return
        io_delta = extras.get("io")
        if io_delta is not None and self.io is not None:
            self.io.merge(io_delta)
            self.worker_io_merges += 1
        spans = extras.get("spans")
        if spans and self.tracer is not None and self.tracer.enabled:
            from ..obs.trace import Span

            for span_dict in spans:
                self.tracer.sink.record(Span.from_dict(span_dict))

    def run_source(self, source) -> list:
        """Materialize one :class:`ScanSource` (remote when eligible)."""
        payload = self.payload_for(
            source.stable, source.layers, source.columns,
            source.sid_lo, source.sid_hi, low=source.low, high=source.high,
            push=source.push,
        )
        if payload is None:
            self.local_jobs += 1
            return list(source())
        return list(self.stream_blocks(payload, source.local,
                                       trace_ctx=source.trace_ctx))

    def submit_stream(self, source):
        """Executor hook for :func:`~repro.engine.scan.fanout_scan_blocks`:
        a future resolving to the source's materialized block list."""
        try:
            return self._driver_pool().submit(self.run_source, source)
        except RuntimeError:
            # Lost a race with close(): run inline on the caller's thread
            # (every job is local once closed).
            future: Future = Future()
            try:
                future.set_result(self.run_source(source))
            except BaseException as exc:
                future.set_exception(exc)
            return future

    def spec_runner(self):
        """The per-shard job runner the query service installs, or None
        in thread mode (the scheduler then keeps its zero-cost default).
        The runner signature matches ``ShardScanJob``'s contract:
        ``runner(spec, counter=None) -> block iterable``
        over the spec's own SID range. Pushed-down specs ship their
        predicate and partial-aggregate payload to the worker, which
        streams back the *reduced* blocks over the ring; ``counter``
        collects the worker's rows_in/rows_out accounting (or the local
        pipeline's, on fallback) exactly once per completed pass."""
        if self.mode != "process":
            return None

        def run(spec, counter=None):
            pinned = spec.pinned
            local = lambda: spec.pushed_stream(counter=counter)  # noqa: E731
            payload = self.payload_for(
                pinned.stable, pinned.layers, spec.scan_cols,
                spec.sid_lo, spec.sid_hi, low=spec.low, high=spec.high,
                push=spec.push_payload(),
            )
            if payload is None:
                self.local_jobs += 1
                return local()
            return self.stream_blocks(payload, local, counter=counter)

        return run

    def fanout_executor(self):
        """Executor for block fan-out: the router itself in process mode,
        None otherwise — including after close — and the caller then
        chains the shard scans on its own thread."""
        return self if self.mode == "process" and not self._closed else None

    def _driver_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._threads is None:
                if self._closed:
                    raise RuntimeError("executor router is closed")
                # One driver thread per worker plus slack for local
                # fallbacks; drivers mostly block on worker pipes.
                self._threads = ThreadPoolExecutor(
                    max_workers=self.workers + 2,
                    thread_name_prefix="exec-router",
                )
            return self._threads

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Join and reap every worker process (idempotent): drivers are
        joined first so no job is mid-pipe, then each worker gets a
        close message, a join, and a terminate if it ignores both; ring
        segments are unlinked. No orphaned children survive."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads, self._threads = self._threads, None
            handles, self._handles = self._handles, []
        if threads is not None:
            threads.shutdown(wait=True)
        while True:  # unblock any checkout still waiting on the queue
            try:
                self._free.get_nowait()
            except queue.Empty:
                break
        for handle in handles:
            handle.close()

    def __repr__(self) -> str:
        return (
            f"ExecutorRouter(mode={self.mode!r}, workers={self.workers}, "
            f"remote={self.remote_jobs}, local={self.local_jobs}, "
            f"redispatched={self.redispatches})"
        )
