"""Leader/follower group commit: the one path a WAL record takes to disk.

On durable storage every commit is "force-written at commit": its WAL
record must be on disk before the commit is acknowledged. Paying one
``os.fsync`` per commit serializes multi-writer throughput on fsync
latency — the classical fix (DeWitt et al.'s group commit, as deployed in
every WAL-based engine since) is to let concurrent committers *stage*
their serialized records under a short critical section, elect one
**leader** to write and fsync the whole batch in a single log append, and
have the **followers** merely wait until the shared fsync lands.

The protocol here:

* :meth:`GroupCommitCoordinator.stage` appends the record's encoded line
  to the staging queue (mutex-guarded, O(bytes) work only) and returns a
  :class:`GroupCommitTicket`.
* A committer that needs durability calls :meth:`wait_durable`. It tries
  the **flush lock**: the winner becomes the leader, drains the staged
  queue (at most :data:`MAX_GROUP` records), appends every line to the
  log file, fsyncs it once, and resolves all tickets. Losers wait on
  their ticket's event — by the time the leader releases the flush lock
  their record is usually already durable, and whoever still holds an
  unresolved ticket becomes the next leader.
* Acknowledgement order is staging order: the flush lock fully serializes
  groups, so on-disk state is always *a prefix of acknowledged commits*
  plus at most one partially-written (never acknowledged) group.

A lone committer is simply a group of one: it leads its own flush and
pays exactly one fsync, the per-commit discipline. The leader never
lingers; groups form from fsync overlap alone. With Python's GIL the win
is exactly the textbook one: ``os.fsync`` releases the GIL, so while the
leader sleeps in the kernel every other writer runs its commit-path CPU
work and stages; throughput moves from ``1/(cpu + fsync)`` towards
``1/max(cpu, fsync/group)``.

Whole-file WAL rewrites (checkpoint rebase, truncation, shard layout
updates) take the same flush lock and resolve any still-staged tickets
after the rewritten file lands: a rewrite only ever happens once the
staged records' effects are covered by published stable images or by the
rewritten log itself, so the rewrite *is* their durability point.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, fields

# Records one leader flushes at most: a full queue leaves the rest to the
# next leader, keeping worst-case commit latency bounded.
MAX_GROUP = 128


class GroupCommitTicket:
    """One staged record's durability handle (resolved by some leader)."""

    __slots__ = ("_event", "error", "group_size", "led")

    def __init__(self):
        self._event = threading.Event()
        self.error: BaseException | None = None
        self.group_size = 0   # records in the flush that resolved us
        self.led = False      # True when our own wait led the flush

    @property
    def resolved(self) -> bool:
        return self._event.is_set()

    @property
    def durable(self) -> bool:
        return self._event.is_set() and self.error is None


@dataclass
class GroupCommitStats:
    """Coordinator-wide counters (guarded by the staging mutex)."""

    staged: int = 0        # records ever staged
    flushes: int = 0       # leader flushes (each = one fsync round)
    fsyncs: int = 0        # log fsyncs issued (= flushes when fsyncing)
    coalesced: int = 0     # records that shared a flush with another
    max_group: int = 0     # largest group flushed so far
    rewrite_drains: int = 0  # tickets resolved by a whole-file rewrite

    def as_dict(self) -> dict:
        """JSON-able view; the surface ``Database.metrics()`` reads.
        Prefer this over poking the counter fields directly."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class GroupCommitCoordinator:
    """The staging queue + leader election for one file-backed
    :class:`~repro.txn.wal.WriteAheadLog` (which always owns one).

    Thread-safe. ``crash_hook`` is a test seam: when set, it is called
    with a boundary name (``"group-pre-fsync"`` after the group's lines
    were written, ``"group-post-fsync"`` after the fsync, before any
    ticket resolves) and the number of records in the flush —
    ``scripts/crash_matrix.py`` uses it to kill the process at exact
    points inside the shared fsync.
    """

    def __init__(self, wal):
        self.wal = wal
        self.stats = GroupCommitStats()
        self.crash_hook = None
        # Observability bundle (set by the owning Database): flush
        # latency histogram + a wal.group_flush span per leader flush.
        self.obs = None
        self._mutex = threading.Lock()      # guards _staged + stats
        self.flush_lock = threading.Lock()  # one leader (or rewrite) at a time
        self._staged: list[tuple[str, GroupCommitTicket]] = []

    # -- staging -----------------------------------------------------------

    def stage(self, line: str) -> GroupCommitTicket:
        """Queue one record's encoded line; returns the ticket a later
        flush resolves."""
        ticket = GroupCommitTicket()
        with self._mutex:
            self._staged.append((line, ticket))
            self.stats.staged += 1
        return ticket

    def pending(self) -> int:
        with self._mutex:
            return len(self._staged)

    # -- durability --------------------------------------------------------

    def wait_durable(self, ticket: GroupCommitTicket) -> None:
        """Block until ``ticket``'s record is durable, leading a flush if
        nobody else is. Raises the flush's failure, if any."""
        while not ticket.resolved:
            if self.flush_lock.acquire(timeout=0.002):
                try:
                    if not ticket.resolved:
                        self._flush_locked(leader=ticket)
                finally:
                    self.flush_lock.release()
            else:
                ticket._event.wait(0.05)
        if ticket.error is not None:
            raise ticket.error

    # -- the leader's flush ------------------------------------------------

    def _flush_locked(self, leader: GroupCommitTicket) -> None:
        with self._mutex:
            batch = self._staged[:MAX_GROUP]
            del self._staged[: len(batch)]
        if not batch:
            return
        size = len(batch)
        obs = self.obs
        t_flush = time.perf_counter() if obs is not None else 0.0
        fsync_s = 0.0
        try:
            created = self.wal._write_lines([line for line, _ in batch])
            if self.crash_hook is not None:
                self.crash_hook("group-pre-fsync", size)
            if self.wal.fsync:
                t_sync = time.perf_counter() if obs is not None else 0.0
                self._fsync_paths()
                if created:
                    self.wal._fsync_parent()
                if obs is not None:
                    fsync_s = time.perf_counter() - t_sync
        except BaseException as exc:
            for _, ticket in batch:
                ticket.error = exc
                ticket._event.set()
            raise
        if obs is not None:
            flush_s = time.perf_counter() - t_flush
            obs.group_flush_seconds.observe(flush_s)
            tracer = obs.tracer
            if tracer.enabled:
                # The leader flushes on a committing thread, so the span
                # nests under that thread's txn.commit / ack-wait span.
                span = tracer.begin("wal.group_flush", records=size,
                                    fsync_ms=round(fsync_s * 1e3, 3))
                span.start_s = time.time() - flush_s
                span.duration_s = flush_s
                tracer.finish(span)
        with self._mutex:
            self.stats.flushes += 1
            if self.wal.fsync:
                self.stats.fsyncs += 1
            if size > 1:
                self.stats.coalesced += size
            self.stats.max_group = max(self.stats.max_group, size)
        if self.crash_hook is not None:
            self.crash_hook("group-post-fsync", size)
        for _, ticket in batch:
            ticket.group_size = size
            ticket.led = ticket is leader
            ticket._event.set()

    def _fsync_paths(self) -> None:
        """fsync the log file once for the whole group (``benchmarks/e2e``
        probes this method by name as ``txn.fsync``). The WAL's append
        handle already points at the right inode: rewrites close it under
        the shared flush lock."""
        os.fsync(self.wal._handle().fileno())

    # -- rewrite integration ----------------------------------------------

    def drain_for_rewrite(self) -> list[GroupCommitTicket]:
        """Called by the WAL (holding the flush lock) before a whole-file
        rewrite: take every staged ticket. The caller resolves them with
        :meth:`resolve_drained` once the rewritten file is durable — the
        rewrite covers their records (or the published images that folded
        them)."""
        with self._mutex:
            batch, self._staged = self._staged, []
        return [ticket for _, ticket in batch]

    def resolve_drained(self, tickets: list) -> None:
        with self._mutex:
            self.stats.rewrite_drains += len(tickets)
        for ticket in tickets:
            ticket.group_size = max(len(tickets), 1)
            ticket._event.set()
