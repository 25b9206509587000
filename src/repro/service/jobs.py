"""Per-shard scan jobs, cooperative sharing, and admission control.

The service decomposes every read request into one job per shard (the
:mod:`~repro.service.plan` output). Jobs are the unit of scheduling *and*
of sharing: a :class:`ShardScanJob` carries a list of consumer feeds, and
any request whose spec reads the same pinned version
(:attr:`~repro.service.plan.ShardScanSpec.share_key`) can attach to a job
instead of scheduling its own scan. The job then runs one MergeScan over
the union of its consumers' SID ranges and pushes every block to every
feed — the cooperative-scans idea (Zukowski et al.'s X100 lineage, the
same system family as the paper): under concurrent skewed analytics most
requests want the same hot blocks, so one physical scan amortizes across
all of them. Each consumer's own key filter discards whatever the union
over-scans, which is what makes attach-with-extension unconditionally
safe.

Attachment works *mid-scan* too: a compatible consumer arriving after the
job started (whose range the already-frozen union covers) gets a
:class:`DeferredFeed` — it rides along for the remaining blocks, which
buffer while a small *catch-up* sub-scan re-reads the deterministic
prefix it missed; once the prefix is delivered the buffered tail flushes
and the consumer has the exact full stream. Only a consumer arriving
after the scan finished (or needing rows outside the frozen union)
schedules a fresh job.

Jobs execute through a pluggable ``runner`` — by default the spec's own
in-thread block pipeline; a process-mode database installs the
:class:`~repro.exec.router.ExecutorRouter`'s runner so the same job (and
its catch-up sub-scans) stream from a shard worker process instead.

Feeds are unbounded: a job never blocks on a slow consumer (so job workers
cannot deadlock), and memory stays bounded because admission control
bounds in-flight *requests* — the same envelope as the process-mode
fan-out of inline reads, which materializes whole per-shard scans per query.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field, fields


class ServiceError(RuntimeError):
    """Base class for query-service failures."""


class ServiceClosed(ServiceError):
    """Request submitted to a closed service."""


class ServiceSaturated(ServiceError):
    """Admission control could not grant a slot within the timeout."""


_DONE = object()  # feed sentinel: the producing job finished cleanly


class ShardFeed:
    """One consumer's view of one shard job's block stream."""

    def __init__(self):
        self._queue: queue.SimpleQueue = queue.SimpleQueue()

    def put(self, item) -> None:
        self._queue.put(item)

    def finish(self) -> None:
        self._queue.put(_DONE)

    def fail(self, exc: BaseException) -> None:
        self._queue.put(exc)

    def blocks(self):
        """Yield ``(first_rid, arrays)`` until the job finishes; re-raise
        the job's failure in the consumer."""
        while True:
            item = self._queue.get()
            if item is _DONE:
                return
            if isinstance(item, BaseException):
                raise item
            yield item


class DeferredFeed(ShardFeed):
    """A feed attached mid-scan: live items buffer until the catch-up
    sub-scan primes the prefix the consumer missed, keeping the
    consumer's stream in exact block order."""

    def __init__(self):
        super().__init__()
        self._buffer: list = []
        self._state_lock = threading.Lock()
        self._primed = False

    def _enqueue_or_buffer(self, item) -> None:
        with self._state_lock:
            if not self._primed:
                self._buffer.append(item)
                return
        self._queue.put(item)

    def put(self, item) -> None:
        self._enqueue_or_buffer(item)

    def finish(self) -> None:
        self._enqueue_or_buffer(_DONE)

    def fail(self, exc: BaseException) -> None:
        self._enqueue_or_buffer(exc)

    def prime(self, prefix_blocks) -> None:
        """Deliver the missed prefix, then flush whatever the live job
        buffered in the meantime; later items flow straight through."""
        with self._state_lock:
            for block in prefix_blocks:
                self._queue.put(block)
            for item in self._buffer:
                self._queue.put(item)
            self._buffer = []
            self._primed = True

    def prime_failed(self, exc: BaseException) -> None:
        """The catch-up sub-scan failed: the consumer's stream is
        unrecoverable (its prefix is missing) even if the live job is
        fine."""
        with self._state_lock:
            self._queue.put(exc)
            self._buffer = []
            self._primed = True


class ShardScanJob:
    """One scheduled scan of one shard's pinned version, multi-consumer.

    ``runner(spec, sid_lo, sid_hi, block_rows, counter=None) -> block
    iterable`` overrides how the union range is physically scanned
    (process-mode dispatch); the default is the spec's in-thread
    *pushed* pipeline, which applies the spec's predicate/aggregate
    below the feeds. Either way the stream over a pinned version is
    deterministic — pushed or not — which is what makes mid-scan
    catch-up (and crash re-dispatch inside the router's runner) exact.
    """

    def __init__(self, spec, block_rows: int, runner=None):
        self.spec = spec
        self.block_rows = block_rows
        self.sid_lo = spec.sid_lo
        self.sid_hi = spec.sid_hi
        self._runner = runner
        # Push-down accounting, filled by the pushed stream (locally or
        # from the worker's completion extras): rows the physical scan
        # read vs. rows that survived into the feeds.
        self.pushdown = bool(getattr(spec, "pushdown", False))
        self.pushdown_counter = {"rows_in": 0, "rows_out": 0}
        self._feeds: list[ShardFeed] = [ShardFeed()]
        self._lock = threading.Lock()
        self._started = False
        self._finished = False
        self._emitted = 0  # blocks fanned out so far (under _lock)
        self._done_callbacks: list = []
        # (tracer, parent ctx) set by the service on new jobs; the span
        # parents under the request that *created* the job (a shared job
        # belongs to its first submitter's trace).
        self.trace = None

    @property
    def first_feed(self) -> ShardFeed:
        return self._feeds[0]

    @property
    def consumers(self) -> int:
        return len(self._feeds)

    def _stream(self, sid_lo: int, sid_hi: int, counter: dict | None = None):
        """The job's (pushed-down) block stream. ``counter`` collects
        push-down row accounting for the *primary* pass only — catch-up
        re-scans pass None so re-read rows are not double-counted."""
        if self._runner is not None:
            return self._runner(self.spec, sid_lo, sid_hi, self.block_rows,
                                counter=counter)
        return self.spec.pushed_stream(sid_lo, sid_hi, self.block_rows,
                                       counter=counter)

    def try_attach(self, spec):
        """Join this job; returns ``(feed, catch_up)``.

        Before the scan starts, the union range extends to cover ``spec``
        and the feed sees every block (``catch_up`` is None). Once
        underway the union is frozen, so only a spec it already covers
        can join: the feed buffers the remaining live blocks while
        ``catch_up`` — run it on a worker thread — re-scans the missed
        deterministic prefix and primes the feed. ``(None, None)`` means
        the job cannot take the spec (finished, or range outside the
        frozen union): schedule a fresh job.
        """
        with self._lock:
            if not self._started:
                self.sid_lo = min(self.sid_lo, spec.sid_lo)
                self.sid_hi = max(self.sid_hi, spec.sid_hi)
                feed = ShardFeed()
                self._feeds.append(feed)
                return feed, None
            if self._finished or spec.sid_lo < self.sid_lo \
                    or spec.sid_hi > self.sid_hi:
                return None, None
            missed = self._emitted
            if missed == 0:
                # Started but nothing emitted yet: a plain feed still
                # sees the whole stream.
                feed = ShardFeed()
                self._feeds.append(feed)
                return feed, None
            feed = DeferredFeed()
            self._feeds.append(feed)
            lo, hi = self.sid_lo, self.sid_hi

        def catch_up():
            try:
                prefix = []
                stream = iter(self._stream(lo, hi))
                for block in stream:
                    prefix.append(block)
                    if len(prefix) == missed:
                        break
                close = getattr(stream, "close", None)
                if close is not None:
                    close()
                feed.prime(prefix)
            except BaseException as exc:
                feed.prime_failed(exc)

        return feed, catch_up

    def add_done_callback(self, callback) -> None:
        """Run ``callback`` once the scan stops touching its pinned
        inputs (pin-lease holds ride on this). Runs immediately if the
        job already finished."""
        with self._lock:
            if not self._finished:
                self._done_callbacks.append(callback)
                return
        callback()

    def run(self) -> None:
        """Scan the union range once, fanning blocks to every consumer.

        The feed list is re-snapshotted per block in the same locked
        section that counts the block as emitted, so a mid-scan attach
        either receives a block live or counts it as missed — never
        neither, never both.
        """
        with self._lock:
            self._started = True
        try:
            for block in self._stream(self.sid_lo, self.sid_hi,
                                      counter=self.pushdown_counter
                                      if self.pushdown else None):
                with self._lock:
                    feeds = list(self._feeds)
                    self._emitted += 1
                for feed in feeds:
                    feed.put(block)
        except BaseException as exc:  # propagate into every consumer
            with self._lock:
                self._finished = True
                feeds = list(self._feeds)
            for feed in feeds:
                feed.fail(exc)
        else:
            with self._lock:
                self._finished = True
                feeds = list(self._feeds)
            for feed in feeds:
                feed.finish()
        finally:
            with self._lock:
                self._finished = True
                callbacks, self._done_callbacks = self._done_callbacks, []
            for callback in callbacks:
                callback()


class JobScheduler:
    """Coalesces compatible shard scans and hands jobs to the worker pool.

    ``schedule`` only *registers* work; the caller submits the returned
    new jobs to its executor after the whole request (or request batch)
    is planned — so every spec a multi-request submission produces gets
    its sharing chance before any scan starts.
    """

    def __init__(self):
        self._open: dict[tuple, ShardScanJob] = {}
        self._lock = threading.Lock()

    def schedule(self, spec, block_rows: int, runner=None
                 ) -> tuple[ShardFeed, ShardScanJob, bool, object]:
        """``(feed, job, shared, catch_up)`` for ``spec``.

        ``shared`` is True when an open compatible job absorbed the spec
        (pre-start, or mid-scan through a deferred feed); otherwise the
        caller must submit the (new) job to its executor. ``catch_up`` is
        a zero-argument callable the caller must also run (mid-scan
        attaches only — it back-fills the consumer's missed prefix), or
        None. ``runner`` overrides the physical scan for a job created
        here (see :class:`ShardScanJob`).
        """
        key = spec.share_key + (block_rows,)
        with self._lock:
            job = self._open.get(key)
            if job is not None:
                feed, catch_up = job.try_attach(spec)
                if feed is not None:
                    return feed, job, True, catch_up
            job = ShardScanJob(spec, block_rows, runner=runner)
            self._open[key] = job
            return job.first_feed, job, False, None

    def run_job(self, job: ShardScanJob) -> None:
        """Executor entry point for a scheduled job.

        The job stays in the open table *while it runs* — that is what
        keeps the mid-scan attach window open — and is retired when the
        scan finishes (unless a later schedule already replaced it with a
        fresh job for the same key)."""
        key = job.spec.share_key + (job.block_rows,)
        try:
            job.run()
        finally:
            with self._lock:
                if self._open.get(key) is job:
                    del self._open[key]


class AdmissionController:
    """Bounds in-flight read requests (the service's backpressure).

    ``acquire(n)`` grants all ``n`` slots of a batch atomically —
    all-or-nothing, so two concurrent batch submissions can never
    hold-and-wait each other into a deadlock. It blocks until the slots
    free (or ``timeout`` elapses — :class:`ServiceSaturated`); writers
    are serialized by the commit lock and are not admission-bounded.
    Memory for buffered result blocks is proportional to
    ``max_inflight``.
    """

    def __init__(self, max_inflight: int, timeout: float | None = None):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self.timeout = timeout
        self._cond = threading.Condition()
        self.inflight = 0
        self.peak_inflight = 0
        self.admitted = 0
        self.rejected = 0

    def acquire(self, n: int = 1) -> None:
        if n > self.max_inflight:
            raise ValueError(
                f"batch of {n} exceeds max_inflight {self.max_inflight}"
            )
        deadline = (
            None if self.timeout is None
            else time.monotonic() + self.timeout
        )
        with self._cond:
            while self.inflight + n > self.max_inflight:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                timed_out = (remaining is not None and remaining <= 0) \
                    or not self._cond.wait(remaining)
                if timed_out:
                    self.rejected += n
                    raise ServiceSaturated(
                        f"no admission slot within {self.timeout}s "
                        f"({self.inflight} requests in flight)"
                    )
            self.inflight += n
            self.admitted += n
            self.peak_inflight = max(self.peak_inflight, self.inflight)

    def release(self, n: int = 1) -> int:
        with self._cond:
            self.inflight -= n
            self._cond.notify_all()
            return self.inflight


@dataclass
class ServiceStats:
    """Service-wide counters (guarded by the service's stats lock)."""

    queries: int = 0
    range_queries: int = 0
    updates: int = 0
    batches: int = 0
    jobs_scheduled: int = 0
    jobs_shared: int = 0
    jobs_attached: int = 0  # shared via a *mid-scan* (catch-up) attach
    blocks_streamed: int = 0
    rows_streamed: int = 0
    # Push-down (jobs carrying a pushed predicate/aggregate):
    pushdown_jobs: int = 0
    rows_scanned: int = 0      # rows those jobs' physical scans read
    rows_pushed_down: int = 0  # rows evaluated in-job, never streamed
    maintenance_runs: int = 0
    # Group-commit coalescing (durable backends; zero on memory storage):
    group_commits: int = 0            # writes acknowledged via a group fsync
    group_flushes_led: int = 0        # writes whose wait led the flush
    group_commits_coalesced: int = 0  # writes that shared a flush
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def bump(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def as_dict(self) -> dict:
        """Coherent JSON-able view taken under the stats lock. Prefer
        this (or ``Database.metrics()``) over reading fields directly."""
        with self._lock:
            return {f.name: getattr(self, f.name) for f in fields(self)
                    if not f.name.startswith("_")}

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ServiceStats({body})"
