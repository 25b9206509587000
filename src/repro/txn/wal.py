"""Write-ahead log for PDT-based transactions.

The paper (footnote 2) notes that column stores, like row stores, write
commit information to a WAL — sequential I/O that does not limit
throughput. Our WAL records, per commit, the *serialized* Trans-PDT entry
list of every touched table: each record is consecutive to the previous
database state, so replaying records in LSN order through Propagate
reconstructs the master Write-PDT exactly (see :func:`replay_into`).

Records are *batched*: one record per commit regardless of how many
updates the transaction (or a ``apply_batch`` bulk commit) carried. A
record's entry list is the PDT's own entry run (``PDT.entries()``), and
replay builds it back with one ``bulk_append_entries`` before folding it
in with ``propagate_batch`` — the WAL leg of the vectorized update path.
A record is also the unit of recovery atomicity: replay applies whole
records only, so a crash between records (exercised by
``replay_into(..., max_records=N)``) always recovers a transaction
all-or-nothing.

A file-backed log is one JSON-lines file, and every record reaches it
through group commit (:mod:`repro.txn.group_commit`): the record is
encoded as one line and *staged*, ``append_commit`` returns a ticket, and
the committer calls :meth:`WriteAheadLog.wait_durable` (the transaction
manager does this automatically) to be acknowledged only after a leader's
shared append + fsync lands. A lone committer leads a group of one. A
group is N whole records, so crash atomicity and :func:`replay_into` are
unchanged.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .group_commit import GroupCommitCoordinator


def _to_native(value):
    """JSON fallback for numpy scalars living inside update payloads."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _fsync_dir(path) -> None:
    """fsync a directory: file creation, rename, and unlink are directory
    mutations — without this a crash can lose the *entry* of a file whose
    contents were dutifully fsynced."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class WalRecord:
    """One logged event: a commit (per-table entry lists), a delta
    snapshot re-logged by an incremental checkpoint, or a metadata record
    such as a shard layout."""

    lsn: int
    tables: dict = field(default_factory=dict)
    # tables: name -> list of (sid, kind, payload) with JSON-safe payloads
    kind: str = "commit"
    meta: dict | None = None  # payload of non-commit records


class WriteAheadLog:
    """Append-only commit log, in memory with optional file persistence.

    File durability: appends go through the group-commit coordinator and
    are flushed and (by default) fsynced before their ticket resolves —
    "force-written at commit" — and every whole-file rewrite (truncate,
    rebase, layout update) goes through a temp file, an atomic
    ``os.replace``, and a directory fsync, so a kill mid-rewrite leaves
    the previous complete log, never a torn one. Without a ``path`` the
    log lives in memory only and appends return no ticket.
    """

    def __init__(self, path=None, fsync: bool = True):
        self.path = path
        self.fsync = fsync
        self.records: list[WalRecord] = []
        self._defer_rewrites = False
        self._fh = None  # persistent append handle
        self.group = GroupCommitCoordinator(self) if path is not None \
            else None

    @contextlib.contextmanager
    def atomic(self):
        """Defer file rewrites until the block exits, then write once.

        Multi-step log surgery (a shard rebalance drops retired shards'
        history, re-logs survivor snapshots, and logs the new layout)
        must not leave the on-disk log between steps — e.g. with the old
        layout still naming shards whose deltas were just dropped. Under
        ``atomic()`` the in-memory record list mutates stepwise but the
        file sees only the final, mutually consistent state.
        """
        self._defer_rewrites = True
        try:
            yield
        finally:
            self._defer_rewrites = False
            self._rewrite_file()

    def append_commit(self, lsn: int, table_pdts: dict):
        """Log a commit: ``table_pdts`` maps table name -> Trans-PDT, each
        recorded as its :meth:`~repro.core.pdt.PDT.entries` run.

        On a file-backed log the record is *staged* and a
        :class:`~repro.txn.group_commit.GroupCommitTicket` is returned;
        pass it to :meth:`wait_durable` before acknowledging the commit.
        An in-memory log returns None.
        """
        tables = {name: pdt.entries() for name, pdt in table_pdts.items()}
        return self._append_record(WalRecord(lsn=lsn, tables=tables),
                                   wait=False)

    def append_snapshot(self, table: str, snapshot_pdt, lsn: int,
                        for_image_lsn: int) -> None:
        """Append a delta-snapshot record *before* a new stable image is
        published (the pre-publish leg of an incremental checkpoint).

        The record is tagged with the LSN of the image it is consecutive
        to: replay applies it only when the persisted catalog says that
        exact image was published (``image_lsn == for_image_lsn``), so a
        crash on either side of the publish recovers consistently —
        before it, the still-logged commit history applies and the
        snapshot is ignored; after it, the history is skipped (folded
        into the image) and the snapshot provides the surviving deltas.
        Always durable on return (the subsequent catalog publish depends
        on it).
        """
        self._append_record(WalRecord(
            lsn=lsn,
            kind="snapshot",
            tables={table: snapshot_pdt.entries()},
            meta={"table": table, "for_image_lsn": int(for_image_lsn)},
        ))

    def wait_durable(self, ticket) -> None:
        """Block until a staged record's shared fsync lands (no-op for
        ``None`` tickets)."""
        if ticket is not None:
            self.group.wait_durable(ticket)

    # -- append plumbing ---------------------------------------------------

    def _append_record(self, record: WalRecord, wait: bool = True):
        self.records.append(record)
        if self.path is None or self._defer_rewrites:
            return None
        ticket = self.group.stage(self._encode_json(self._to_json(record)))
        if wait:
            self.group.wait_durable(ticket)
            return None
        return ticket

    def _handle(self):
        """Persistent append handle (per-commit ``open`` is measurable on
        the fsync-bound hot path). Invalidated whenever a rewrite swaps
        the file's inode under the name."""
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def close(self) -> None:
        """Release the append handle (the log stays valid on disk)."""
        if self._fh is not None:
            with contextlib.suppress(OSError):
                self._fh.close()
            self._fh = None

    def _write_lines(self, lines: list) -> bool:
        """Group-flush write leg: append the lines (in staging order), no
        fsync — the coordinator fsyncs after its crash-hook boundary.
        Returns True when the append created the file (its directory
        entry still needs an fsync)."""
        created = self._fh is None and not os.path.exists(self.path)
        fh = self._handle()
        fh.writelines(lines)
        fh.flush()
        return created

    def _fsync_parent(self) -> None:
        _fsync_dir(os.path.dirname(os.path.abspath(self.path)) or ".")

    @staticmethod
    def _encode_json(raw: dict) -> str:
        return json.dumps(raw, default=_to_native) + "\n"

    def truncate(self) -> None:
        """Discard logged commit records (after a checkpoint made them
        redundant). Shard-layout metadata survives: boundaries are catalog
        state a recovery needs even when no deltas are outstanding."""
        self.records = [r for r in self.records if r.kind == "shard-layout"]
        self._rewrite_file()

    # -- shard-layout metadata -------------------------------------------

    def append_shard_layout(self, table: str, boundaries, shard_names,
                            lsn: int = 0, config: dict | None = None
                            ) -> None:
        """Log the current layout of a range-sharded table.

        Only the *latest* layout per logical table is kept: a layout is
        *catalog* state describing the shard tables that exist on disk
        right now, exactly like the stable images themselves. Earlier
        layouts name shard tables whose stable images and WAL records a
        rebalance already replaced, so nothing could ever be replayed
        against them (the same reason ``max_records`` crash boundaries
        are only meaningful within the history since the last
        checkpoint/rebalance rebase).
        """
        self.records = [
            r for r in self.records
            if not (r.kind == "shard-layout" and r.meta["table"] == table)
        ]
        self.records.append(WalRecord(
            lsn=lsn,
            kind="shard-layout",
            meta={
                "table": table,
                "boundaries": [list(b) for b in boundaries],
                "shards": list(shard_names),
                "config": dict(config or {}),
            },
        ))
        self._rewrite_file()

    def shard_layouts(self) -> dict:
        """Latest logged layout per sharded table: ``name ->
        {"boundaries": [...], "shards": [...], "config": {...}}``."""
        out: dict = {}
        for record in self.records:
            if record.kind == "shard-layout":
                out[record.meta["table"]] = {
                    "boundaries": [tuple(b) for b in
                                   record.meta["boundaries"]],
                    "shards": list(record.meta["shards"]),
                    "config": dict(record.meta.get("config", {})),
                }
        return out

    def rebase_table(self, table: str, snapshot_pdt=None,
                     lsn: int = 0, for_image_lsn: int | None = None) -> None:
        """Drop one table's logged history after its stable image was
        rebuilt, keeping recovery exact.

        A checkpoint folds logged deltas into the stable image; replaying
        them again on recovery would double-apply them against renumbered
        SIDs. Full checkpoints pass ``snapshot_pdt=None`` (every delta
        folded); incremental range checkpoints pass the *surviving*
        Read-PDT, which is re-logged as one snapshot record consecutive to
        the new stable image — so recovery replays exactly the still-live
        deltas and nothing that was folded. Other tables' records are
        untouched (their per-commit shares are kept).

        With durable storage this is pure garbage collection: the
        published catalog's ``image_lsn`` already makes replay skip the
        folded history (and any pre-publish :meth:`append_snapshot`
        record whose tag no longer matches), so a crash before this
        rewrite lands recovers identically.
        """
        rebased = []
        for record in self.records:
            if record.kind == "snapshot" and record.meta["table"] == table:
                continue  # superseded by the fresh snapshot (if any)
            if record.kind == "commit" and table in record.tables:
                remaining = {
                    name: entries
                    for name, entries in record.tables.items()
                    if name != table
                }
                if not remaining:
                    continue
                record = WalRecord(lsn=record.lsn, tables=remaining)
            rebased.append(record)
        self.records = rebased
        if snapshot_pdt is not None and not snapshot_pdt.is_empty():
            self.records.append(
                WalRecord(
                    lsn=lsn,
                    kind="snapshot",
                    tables={table: snapshot_pdt.entries()},
                    meta={
                        "table": table,
                        "for_image_lsn": int(
                            lsn if for_image_lsn is None else for_image_lsn
                        ),
                    },
                )
            )
        self._rewrite_file()

    def _rewrite_file(self) -> None:
        if self.path is None or self._defer_rewrites:
            return
        # A rewrite persists (or supersedes — rebases only drop records
        # whose effects the published images already cover) everything
        # staged: resolve those tickets once it lands.
        with self.group.flush_lock:
            drained = self.group.drain_for_rewrite()
            # os.replace swaps the inode under the name: a cached append
            # handle would keep writing to the unlinked file.
            self.close()
            tmp = str(self.path) + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                for record in self.records:
                    fh.write(self._encode_json(self._to_json(record)))
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, self.path)  # a kill leaves old or new, never torn
            if self.fsync:
                # The rename itself is a directory mutation; make it durable.
                self._fsync_parent()
            self.group.resolve_drained(drained)

    def __len__(self) -> int:
        return len(self.records)

    @staticmethod
    def _to_json(record: WalRecord) -> dict:
        raw = {"lsn": record.lsn, "tables": record.tables}
        if record.kind != "commit":
            raw["kind"] = record.kind
            raw["meta"] = record.meta
        return raw

    @staticmethod
    def _record_from(raw: dict) -> WalRecord:
        tables = {
            name: [tuple(e) for e in entries]
            for name, entries in raw["tables"].items()
        }
        return WalRecord(
            lsn=raw["lsn"], tables=tables,
            kind=raw.get("kind", "commit"), meta=raw.get("meta"),
        )

    # -- loading -----------------------------------------------------------

    @classmethod
    def load(cls, path, fsync: bool = True) -> "WriteAheadLog":
        """Read a persisted log back from disk into a ready file-backed
        log (appends continue the same file, fsynced per ``fsync``).

        A torn trailing line (the record a kill interrupted mid-append)
        is discarded *and truncated off the file*: appends are the unit
        of commit durability, so a partial record is a commit that never
        happened — and leaving its bytes in place would corrupt the next
        append (which would land on the same line, losing that commit at
        the following recovery).

        A log whose main file carries a ``wal-meta`` line was striped
        over ``<path>.s<i>.e<epoch>`` stream files, which hold its
        commits; replaying the main file alone would silently lose them,
        so it is refused with a ``ValueError`` before anything on disk
        is touched.
        """
        raws: list = []
        valid_bytes = 0
        torn = False
        missing_newline = False
        with open(path, "rb") as fh:
            for line in fh:
                if not line.strip():
                    valid_bytes += len(line)
                    continue
                try:
                    raws.append(json.loads(line.decode("utf-8")))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    torn = True
                    break
                valid_bytes += len(line)
                # A complete record whose trailing newline the kill cut
                # off parses fine but would merge with the next append.
                missing_newline = not line.endswith(b"\n")
        for raw in raws:
            if raw.get("kind") == "wal-meta":
                meta = raw.get("meta") or {}
                raise ValueError(
                    f"{path}: striped WAL layout ({meta.get('streams')} "
                    f"streams, epoch {meta.get('epoch')}) keeps its commits "
                    f"in {path}.s<i>.e{meta.get('epoch')} files, which are "
                    f"no longer read; replaying the main file alone would "
                    f"lose them"
                )
        if torn:
            with open(path, "r+b") as fh:
                fh.truncate(valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
            _fsync_dir(os.path.dirname(os.path.abspath(path)) or ".")
        elif missing_newline:
            with open(path, "ab") as fh:
                fh.write(b"\n")
                fh.flush()
                os.fsync(fh.fileno())
        wal = cls(path, fsync=fsync)
        wal.records = [cls._record_from(raw) for raw in raws]
        return wal


def replay_into(wal: WriteAheadLog, pdts: dict,
                max_records: int | None = None,
                image_lsns: dict | None = None) -> int:
    """Re-apply logged commits to fresh master Write-PDTs.

    ``pdts`` maps table name -> empty PDT (one per table). Records are
    consecutive, so each entry list can be bulk-loaded directly (its SIDs
    are already in the RID domain of the state produced by the previous
    records) and folded in with the sorted-run Propagate. Returns the
    last LSN replayed.

    ``max_records`` stops replay after that many records — the state a
    crash at that record boundary would recover to. Records are the unit
    of atomicity: a prefix of whole records is always a transaction-
    consistent image. (Group commit does not change this: a group is N
    whole records, and :meth:`WriteAheadLog.load` already cut any torn
    tail a never-acknowledged flush left.)

    ``image_lsns`` (table -> LSN of the *persisted* stable image, from a
    durable backend's catalog) makes replay image-aware: a table's commit
    entries at or below its image LSN are skipped — the published image
    already folded them in — and a ``snapshot`` record applies only when
    its ``for_image_lsn`` tag matches the persisted image. This is what
    closes the crash window between a checkpoint's catalog publish and
    its WAL rebase. Without ``image_lsns`` (in-memory recovery from
    re-registered images) every record applies, as before.
    """
    from ..core.propagate import propagate_batch

    def _apply(name, entries):
        if name not in pdts:
            raise KeyError(f"WAL references unknown table {name!r}")
        target = pdts[name]
        staging = target.__class__(target.schema)
        staging.bulk_append_entries(entries)
        propagate_batch(target, staging)

    last_lsn = 0
    records = wal.records if max_records is None else \
        wal.records[:max_records]
    for record in records:
        if record.kind == "commit":
            for name, entries in record.tables.items():
                if image_lsns is not None and \
                        record.lsn <= image_lsns.get(name, 0):
                    continue  # folded into the published image
                _apply(name, entries)
        elif record.kind == "snapshot":
            name = record.meta["table"]
            if image_lsns is None or \
                    image_lsns.get(name, 0) == record.meta["for_image_lsn"]:
                _apply(name, record.tables[name])
            # else: tagged for an image that was never published — ignore
        else:
            continue
        last_lsn = record.lsn
    return last_lsn
