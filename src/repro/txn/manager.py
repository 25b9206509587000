"""Transaction manager: snapshot isolation with optimistic concurrency.

Implements Algorithm 9 (Finish/Commit/Abort): a committing transaction's
Trans-PDT is Serialized against every overlapping committed transaction in
commit order (detecting write-write conflicts), then Propagated into the
master Write-PDT. Serialized Trans-PDTs of recent commits are kept in the
``TZ`` set with a reference count of still-running overlapping
transactions, exactly as in the paper's Figure 15 walkthrough.

No locks are taken anywhere on the read path: queries run against shared
Read-PDTs and Write-PDT snapshots *loaned by reference* — "copying is not
always required" (section 3.3). Every committed version a reader holds is
held by one mechanism, a :class:`~repro.txn.pins.SnapshotPin`: ``begin``
takes one for the transaction (released when it finishes), and reads
outside transactions take one per scan. A loan stays valid because the
commit path never mutates a Write-PDT a live pin holds: Propagate then
runs into a fresh copy that replaces the master (copy-on-commit), and the
loaned object is left exactly as it was; a checkpoint swaps in fresh
Read- and Write-PDTs.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field, fields

from ..core.pdt import PDT
from ..core.propagate import propagate_batch
from ..core.serialize import serialize
from ..core.types import TransactionConflict
from ..storage.sparse_index import SparseIndex
from ..storage.table import StableTable
from .pins import PinnedLayout, PinnedTable, SnapshotPin
from .transaction import Transaction, TransactionError, TxnStatus
from .wal import WriteAheadLog


@dataclass
class TableState:
    """Per-table storage + delta layers managed by the manager."""

    stable: StableTable
    read_pdt: PDT
    write_pdt: PDT
    sparse_index: SparseIndex | None = None
    last_commit_lsn: int = 0

    @property
    def schema(self):
        return self.stable.schema


@dataclass
class _CommitRecord:
    """A recently committed transaction kept for overlap serialization."""

    lsn: int
    tables: dict  # table -> serialized Trans-PDT (consecutive at this lsn)
    refcnt: int = 0


@dataclass
class ManagerStats:
    commits: int = 0
    aborts: int = 0
    conflicts: int = 0
    propagations: int = 0      # commits' and propagate_write_to_read's
    snapshot_copies: int = 0   # pin-forced copies: commit and Propagate
    snapshot_reuses: int = 0   # Write-PDT loans taken by pins (no copy)

    def as_dict(self) -> dict:
        """JSON-able view; the surface ``Database.metrics()`` reads.
        Prefer this over poking the counter fields directly."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class TransactionManager:
    """Lock-free transaction management over PDT-layered tables."""

    def __init__(self, wal: WriteAheadLog | None = None):
        self._tables: dict[str, TableState] = {}
        # logical name -> ShardedTable; shared with the owning Database.
        # Only physical_names / route / split_ops read it: they are the
        # one place a name resolves to the physical tables behind it.
        self.sharded_tables: dict = {}
        self._running: dict[int, Transaction] = {}
        self._tz: list[_CommitRecord] = []
        self._lsn = 0
        self._next_txn_id = 1
        self.wal = wal if wal is not None else WriteAheadLog()
        # Per-thread durability deferral (see defer_durability()): the
        # service stages the WAL record under its write lock but waits for
        # the shared group fsync outside it, so waits overlap.
        self._deferred = threading.local()
        self.stats = ManagerStats()
        # Observability bundle (set by the owning Database): when present,
        # _finish times its stages into the commit histograms and emits a
        # txn.commit span. A bare manager (tests, tools) pays nothing.
        self.obs = None
        self._commit_listeners: list = []
        self._next_pin_id = 1
        self._pins: dict[int, SnapshotPin] = {}
        # Pins are released from whatever thread finishes a cursor, while
        # new pins and is_pinned checks run on writer/maintenance threads.
        self._pin_lock = threading.Lock()

    def add_commit_listener(self, listener) -> None:
        """Register ``listener(tables)`` to run after each successful commit
        that changed data. Listeners run at the end of Finish, when the
        committing transaction's pin is already released — so a listener
        sees a table unpinned whenever no *other* pin (a running
        transaction's or a reader's) holds it, which is what lets the
        checkpoint scheduler piggyback maintenance on the commit path."""
        self._commit_listeners.append(listener)

    # -- table registry ---------------------------------------------------------

    def register_table(self, stable: StableTable) -> TableState:
        if stable.name in self._tables:
            raise ValueError(f"table {stable.name!r} already registered")
        state = TableState(
            stable=stable,
            read_pdt=PDT(stable.schema),
            write_pdt=PDT(stable.schema),
            sparse_index=SparseIndex(stable),
        )
        self._tables[stable.name] = state
        return state

    def unregister_table(self, table: str) -> TableState:
        """Drop a table from the registry (shard rebalancing retires the
        shards it replaces). Requires a quiescent point: a running
        transaction may hold snapshots of — or Trans-PDT entries against —
        the departing table."""
        if self._running:
            raise TransactionError(
                "unregister requires no running transactions"
            )
        try:
            state = self._tables.pop(table)
        except KeyError:
            raise KeyError(f"unknown table {table!r}") from None
        return state

    def state_of(self, table: str) -> TableState:
        try:
            return self._tables[table]
        except KeyError:
            raise KeyError(f"unknown table {table!r}") from None

    def table_names(self) -> list[str]:
        return list(self._tables)

    # -- name resolution ---------------------------------------------------------
    #
    # A table is the ordered list of physical tables behind it: a
    # range-sharded logical table's shards in key order, or the one
    # physical table an unsharded name is. Every entry point that takes a
    # table name resolves it here; unknown names raise KeyError.

    def physical_names(self, table: str) -> list[str]:
        """The physical tables behind ``table``, in key order."""
        sharded = self.sharded_tables.get(table)
        if sharded is not None:
            return list(sharded.shard_names)
        self.state_of(table)
        return [table]

    def route(self, table: str, sk) -> str:
        """The physical table owning sort key ``sk`` in ``table``."""
        sharded = self.sharded_tables.get(table)
        if sharded is not None:
            return sharded.physical_for(sk)
        self.state_of(table)
        return table

    def split_ops(self, table: str, ops) -> list[tuple[str, list]]:
        """Split an update batch into ``(physical_name, sub_batch)``
        parts, op order kept within each part; an unsharded table is one
        part."""
        sharded = self.sharded_tables.get(table)
        if sharded is not None:
            return sharded.split_ops(ops)
        self.state_of(table)
        return [(table, ops)]

    # -- snapshot pins -----------------------------------------------------------

    def pin_snapshot(self) -> SnapshotPin:
        """Pin the current commit point of *every* table (see
        :mod:`repro.txn.pins`).

        Requires no quiescence: the pin captures committed state only
        (running transactions' Trans-PDTs are invisible to it). The
        Write-PDT snapshot is the master itself, *loaned by reference*,
        or None when it is empty — "copying is not always required"
        (section 3.3) — so pins under one commit LSN share one object
        and pinning copies nothing. While the pin is live, maintenance on
        its tables is deferred or runs copy-on-write and commits touching
        them propagate copy-on-commit (see :meth:`_finish_inner`); release
        pins promptly (the scheduler reports the oldest one that blocked
        it as ``oldest_pin_age_s``). Every transaction holds one.
        """
        tables = {}
        loans = 0
        for name, state in self._tables.items():
            write_pdt = state.write_pdt
            if write_pdt.is_empty():
                write_pdt = None
            else:
                loans += 1
            tables[name] = PinnedTable(
                name, state.stable, state.read_pdt, write_pdt,
                state.sparse_index, state.last_commit_lsn,
            )
        self.stats.snapshot_reuses += loans
        layouts = {
            # The router keeps its boundaries as tuples.
            logical: PinnedLayout(tuple(sharded.router.boundaries),
                                  tuple(sharded.shard_names))
            for logical, sharded in self.sharded_tables.items()
        }
        with self._pin_lock:
            pin = SnapshotPin(
                manager=self, pin_id=self._next_pin_id, tables=tables,
                layouts=layouts, lsn=self._lsn,
                created_at=time.monotonic(),
            )
            self._next_pin_id += 1
            self._pins[pin.pin_id] = pin
        return pin

    def release_pin(self, pin: SnapshotPin) -> None:
        """Drop a pin's references; deferred maintenance becomes eligible
        again once the last pin covering a table drains. (Called via
        :meth:`SnapshotPin.release`, which makes it idempotent; safe from
        any thread — cursors release pins from their consumers.)"""
        with self._pin_lock:
            self._pins.pop(pin.pin_id, None)

    def is_pinned(self, table: str) -> bool:
        """True while any live pin captured ``table``'s current version."""
        with self._pin_lock:
            return any(table in pin.tables for pin in self._pins.values())

    def pin_count(self, table: str | None = None) -> int:
        with self._pin_lock:
            if table is None:
                return len(self._pins)
            return sum(table in pin.tables for pin in self._pins.values())

    def oldest_pin_age(self, table: str | None = None) -> float:
        """Seconds since the oldest live pin (covering ``table``, or any
        table) was taken; 0.0 when none are live. The scheduler uses
        this to flag stuck clients whose pins stall maintenance."""
        now = time.monotonic()
        with self._pin_lock:
            ages = [
                now - pin.created_at
                for pin in self._pins.values()
                if table is None or table in pin.tables
            ]
        return max(ages, default=0.0)

    # -- transaction lifecycle ------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction reading through one snapshot pin: later
        commits never leak into its view (they swing a loaned master to
        a copy instead of mutating it)."""
        txn = Transaction(self, self._next_txn_id, self.pin_snapshot())
        self._next_txn_id += 1
        self._running[txn.txn_id] = txn
        return txn

    def commit(self, txn: Transaction) -> None:
        """Finish(ok=True): serialize against overlaps, then propagate."""
        self._finish(txn, ok=True)

    def abort(self, txn: Transaction) -> None:
        """Finish(ok=False): release overlap references, discard updates."""
        self._finish(txn, ok=False)

    def _finish(self, txn: Transaction, ok: bool) -> None:
        obs = self.obs
        if obs is None:
            self._finish_inner(txn, ok, None)
            return
        # Stage timings land in `timings` only for commits that changed
        # data — the per-commit Python overhead the ROADMAP wants
        # profiled. The span nests any group-flush span the commit leads.
        timings: dict = {}
        t0 = time.perf_counter()
        try:
            if obs.tracer.enabled:
                with obs.tracer.start("txn.commit" if ok else "txn.abort",
                                      txn_id=txn.txn_id) as span:
                    self._finish_inner(txn, ok, timings)
                    span.attrs.update({
                        f"{k}_ms": round(v * 1e3, 3)
                        for k, v in timings.items()
                    })
            else:
                self._finish_inner(txn, ok, timings)
        finally:
            if timings:
                obs.commit_seconds.observe(time.perf_counter() - t0)
                for stage, secs in timings.items():
                    obs.commit_stage_seconds[stage].observe(secs)

    def _finish_inner(self, txn: Transaction, ok: bool,
                      timings: dict | None) -> None:
        if txn.txn_id not in self._running:
            raise TransactionError(f"transaction {txn.txn_id} not running")
        trans_pdts = {
            name: pdt for name, pdt in txn._trans.items() if not pdt.is_empty()
        }
        conflict: TransactionConflict | None = None
        t_ser = time.perf_counter() if timings is not None else 0.0
        for record in list(self._tz):
            if record.lsn <= txn.start_lsn:
                continue  # committed before txn started: no overlap
            if ok and conflict is None:
                try:
                    for name, committed_pdt in record.tables.items():
                        if name in trans_pdts:
                            trans_pdts[name] = serialize(
                                trans_pdts[name], committed_pdt
                            )
                except TransactionConflict as exc:
                    conflict = exc
                    self.stats.conflicts += 1
            record.refcnt -= 1
            if record.refcnt == 0:
                self._tz.remove(record)
        ser_s = (time.perf_counter() - t_ser) if timings is not None else 0.0
        # Off the running list and its pin released together, before the
        # copy-on-commit check: the committer's own loan must not force
        # a copy of the master it is about to propagate into.
        del self._running[txn.txn_id]
        txn.pin.release()

        if not ok or conflict is not None:
            txn.status = TxnStatus.ABORTED
            self.stats.aborts += 1
            if conflict is not None:
                raise conflict
            return

        ticket = None
        t_prop = time.perf_counter() if timings is not None else 0.0
        wal_s = 0.0
        if trans_pdts:
            self._lsn += 1
            for name, pdt in trans_pdts.items():
                state = self.state_of(name)
                if self._write_pdt_shared(name, state):
                    # The master is loaned out (a live pin — maybe a
                    # running transaction's — reads it): propagate into a
                    # copy and swing the master, leaving every loan
                    # untouched.
                    fresh = state.write_pdt.copy()
                    propagate_batch(fresh, pdt)
                    state.write_pdt = fresh
                    self.stats.snapshot_copies += 1
                else:
                    propagate_batch(state.write_pdt, pdt)
                state.last_commit_lsn = self._lsn
                self.stats.propagations += 1
            t_wal = time.perf_counter() if timings is not None else 0.0
            ticket = self.wal.append_commit(self._lsn, trans_pdts)
            if timings is not None:
                wal_s = time.perf_counter() - t_wal
            if self._running:
                self._tz.append(
                    _CommitRecord(
                        lsn=self._lsn,
                        tables=trans_pdts,
                        refcnt=len(self._running),
                    )
                )
        txn.status = TxnStatus.COMMITTED
        self.stats.commits += 1
        prop_s = 0.0
        if timings is not None and trans_pdts:
            prop_s = t_wal - t_prop  # propagation ends at the WAL append
        if trans_pdts:
            for listener in self._commit_listeners:
                listener(list(trans_pdts))
        wait_s = 0.0
        if ticket is not None:
            # Group commit: the record is staged, not yet fsynced. Wait
            # here (after listeners — a listener-triggered checkpoint
            # rewrite resolves staged tickets itself) unless this thread
            # deferred durability to overlap waits across writers.
            if getattr(self._deferred, "active", False):
                self._deferred.ticket = ticket
            else:
                t_wait = time.perf_counter() if timings is not None else 0.0
                self.wal.wait_durable(ticket)
                if timings is not None:
                    wait_s = time.perf_counter() - t_wait
        if timings is not None and trans_pdts:
            timings.update(serialize=ser_s, propagate=prop_s,
                           wal_append=wal_s, durability_wait=wait_s)

    def _write_pdt_shared(self, name: str, state: TableState) -> bool:
        """Is the master Write-PDT loaned to a live pin that must not see
        the commit being propagated? (The committer's own pin is already
        released when this is asked.) Empty masters are never loaned:
        ``pin_snapshot`` captures None for them."""
        current = state.write_pdt
        if current.is_empty():
            return False
        with self._pin_lock:
            for pin in self._pins.values():
                pinned = pin.tables.get(name)
                if pinned is not None and pinned.write_pdt is current:
                    return True
        return False

    # -- durability deferral (group-commit write path) -------------------------

    @contextlib.contextmanager
    def defer_durability(self):
        """Within the block, this thread's commits stage their WAL record
        but do not wait for the shared group fsync; the caller collects
        the ticket with :meth:`take_deferred_ticket` and waits outside
        its critical section. On an in-memory log there is nothing to
        wait for and the ticket is None."""
        self._deferred.active = True
        self._deferred.ticket = None
        try:
            yield
        finally:
            self._deferred.active = False

    def take_deferred_ticket(self):
        """The ticket stashed by the last deferred commit on this thread
        (None when it needed no wait); clears the stash."""
        ticket = getattr(self._deferred, "ticket", None)
        self._deferred.ticket = None
        return ticket

    # -- reads outside transactions ---------------------------------------------------

    def latest_layers(self, table: str) -> list[PDT]:
        """Read/Write layer stack reflecting the latest committed state."""
        state = self.state_of(table)
        return [state.read_pdt, state.write_pdt]

    def running_count(self) -> int:
        return len(self._running)

    def tz_size(self) -> int:
        return len(self._tz)

    # -- maintenance -------------------------------------------------------------------

    def propagate_write_to_read(self, table: str) -> None:
        """Migrate the master Write-PDT into the Read-PDT (section 3.3).

        Runs while transactions are open: each reads through its own pin,
        and a pinned Read-PDT is copied before it absorbs anything
        (below), so no snapshot double-applies. Positions in the output
        domain (open Trans-PDTs', TZ records') do not move. A checkpoint
        never calls this: its fold merges through both layers.
        """
        state = self.state_of(table)
        if state.write_pdt.is_empty():
            return
        if self.is_pinned(table):
            # A live pin references this Read-PDT (and loans the Write-PDT
            # about to fold into it): migrate into a fresh copy so the
            # pinned stack keeps describing the pinned version.
            state.read_pdt = state.read_pdt.copy()
            self.stats.snapshot_copies += 1
        propagate_batch(state.read_pdt, state.write_pdt)
        # Swing, don't clear: the old Write-PDT object may still be loaned
        # to a pin, and its contents now live in the (possibly copied)
        # Read-PDT of the *new* stack only.
        state.write_pdt = PDT(state.schema)
        self.stats.propagations += 1
