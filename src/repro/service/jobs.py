"""Per-shard scan jobs and admission control.

The service decomposes every read request into one job per shard (the
:mod:`~repro.service.plan` output). A :class:`ShardScanJob` makes one pass
over its spec's SID range and pushes every block into its one
:class:`ShardFeed`, which the request's cursor drains.

Jobs execute through a pluggable ``runner`` — by default the spec's own
in-thread block pipeline; a process-mode database installs the
:class:`~repro.exec.router.ExecutorRouter`'s runner so the same job
streams from a shard worker process instead.

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
    """One shard job's block stream, as its consumer sees it."""

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


class ShardScanJob:
    """One scan of one shard's pinned version, streamed into one feed.

    ``runner(spec, counter=None) -> block iterable`` overrides how the
    spec's SID range is physically scanned (process-mode dispatch); the
    default is the spec's in-thread *pushed* pipeline, which applies the
    spec's predicate/aggregate before the feed. Either way the stream
    over a pinned version is deterministic, which is what makes crash
    re-dispatch inside the router's runner exact.
    """

    def __init__(self, spec, runner=None):
        self.spec = spec
        self._runner = runner
        # Push-down accounting, filled by the pushed stream (locally or
        # from the worker's completion extras): rows the physical scan
        # read vs. rows that survived into the feed.
        self.pushdown = spec.pushdown
        self.pushdown_counter = {"rows_in": 0, "rows_out": 0}
        self.feed = ShardFeed()
        self.blocks = 0  # blocks streamed into the feed
        # Set by the service: the request's (tracer, parent ctx) for the
        # job's span, and the callback that drops the job's pin-lease
        # hold once the scan stops reading its pinned inputs.
        self.trace = None
        self.on_done = None

    def run(self) -> None:
        """Scan the spec's range once into the feed. ``on_done`` runs
        before the feed ends, so a consumer that sees the end of the
        stream never races the job's lease release."""
        counter = self.pushdown_counter if self.pushdown else None
        failure = None
        try:
            if self._runner is not None:
                stream = self._runner(self.spec, counter=counter)
            else:
                stream = self.spec.pushed_stream(counter=counter)
            for block in stream:
                self.blocks += 1
                self.feed.put(block)
        except BaseException as exc:  # re-raised in the consumer
            failure = exc
        try:
            if self.on_done is not None:
                self.on_done()
        finally:
            if failure is None:
                self.feed.finish()
            else:
                self.feed.fail(failure)


class JobScheduler:
    """Turns a shard scan spec into the job that scans it."""

    def schedule(self, spec, runner=None
                 ) -> tuple[ShardFeed, ShardScanJob, bool, object]:
        """``(feed, job, False, None)``: a fresh job and its feed; the
        caller submits the job to its executor. ``runner`` overrides the
        physical scan (see :class:`ShardScanJob`)."""
        # benchmarks/e2e's probes unpack this 4-tuple: keep its shape.
        job = ShardScanJob(spec, runner=runner)
        return job.feed, job, False, None


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
