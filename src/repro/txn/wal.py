"""Write-ahead log for PDT-based transactions.

The paper (footnote 2) notes that column stores, like row stores, write
commit information to a WAL — sequential I/O that does not limit
throughput. Our WAL records, per commit, the *serialized* Trans-PDT entry
list of every touched table: each record is consecutive to the previous
database state, so replaying records in LSN order through Propagate
reconstructs the master Write-PDT exactly (see :func:`replay_into`).

Records are *batched*: one record per commit regardless of how many
updates the transaction (or a ``apply_batch`` bulk commit) carried, with
the entry lists exported in bulk (``entry_lists``) and replayed in bulk
(``bulk_append_entries`` + ``propagate_batch``) — the WAL leg of the
vectorized update path. A record is also the unit of recovery atomicity:
replay applies whole records only, so a crash between records (exercised
by ``replay_into(..., max_records=N)``) always recovers a transaction
all-or-nothing.

Durability has two optional layers on top of the per-record fsync:

* **Group commit** (``group=GroupCommitPolicy(...)``): appends are staged
  and one leader fsyncs a whole batch of records at once —
  :mod:`repro.txn.group_commit`. ``append_commit`` then returns a ticket;
  the committer calls :meth:`wait_durable` (the transaction manager does
  this automatically) and is acknowledged only after the shared fsync
  lands. A group is N whole records, so crash atomicity and
  :func:`replay_into` are unchanged.
* **Striped streams** (``streams=N``): commit records are routed to N
  side files (``<path>.s<i>.e<epoch>``) by a stable hash of the table
  name, so a cross-shard batch splits into per-stream part lines sharing
  one LSN and the group leader fsyncs the touched streams in parallel.
  The main file carries a ``wal-meta`` line naming the stream layout and
  every whole-file rewrite collapses all records back into the main file
  under a bumped epoch (the old stream files become garbage and are
  swept). :meth:`load` merges the files, re-joins part lines by LSN, and
  drops everything from the first LSN with missing parts onward — safe
  because the flush lock totally orders groups: an incomplete LSN and
  everything after it belong to the one flush that never acknowledged.
"""

from __future__ import annotations

import contextlib
import glob as _glob
import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..core.types import KIND_DEL
from .group_commit import GroupCommitCoordinator, GroupCommitPolicy


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

    File durability: appends are flushed and (by default) fsynced per
    record — "force-written at commit" — and every whole-file rewrite
    (truncate, rebase, layout update) goes through a temp file, an atomic
    ``os.replace``, and a directory fsync, so a kill mid-rewrite leaves
    the previous complete log, never a torn one. ``group`` enables
    coalesced fsyncs (see the module docstring); ``streams`` stripes
    commit records over per-shard log files.
    """

    def __init__(self, path=None, fsync: bool = True, streams: int = 1,
                 group: GroupCommitPolicy | None = None):
        self.path = path
        self.fsync = fsync
        self.streams = max(1, int(streams))
        self.records: list[WalRecord] = []
        self._defer_rewrites = False
        self._stream_epoch = 0
        self._meta_logged = False
        self._known_paths: set = set()
        self._handles: dict = {}  # path -> persistent append handle
        self.group = (
            GroupCommitCoordinator(self, group)
            if group is not None and path is not None else None
        )

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
        """Log a commit: ``table_pdts`` maps table name -> serialized PDT.

        Without group commit the record is durable on return (None).
        With group commit the record is *staged* and a
        :class:`~repro.txn.group_commit.GroupCommitTicket` is returned;
        pass it to :meth:`wait_durable` before acknowledging the commit.
        """
        tables = {
            name: self._serialize_pdt(pdt)
            for name, pdt in table_pdts.items()
        }
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
        on it), even under group commit.
        """
        self._append_record(WalRecord(
            lsn=lsn,
            kind="snapshot",
            tables={table: self._serialize_pdt(snapshot_pdt)},
            meta={"table": table, "for_image_lsn": int(for_image_lsn)},
        ))

    def wait_durable(self, ticket) -> None:
        """Block until a staged record's shared fsync lands (no-op for
        ``None`` tickets and ungrouped logs)."""
        if ticket is not None and self.group is not None:
            self.group.wait_durable(ticket)

    # -- append plumbing ---------------------------------------------------

    def _append_record(self, record: WalRecord, wait: bool = True):
        self.records.append(record)
        if self.path is None or self._defer_rewrites:
            return None
        parts = self._record_parts(record)
        if self.group is not None:
            ticket = self.group.stage(parts)
            if wait:
                self.group.wait_durable(ticket)
                return None
            return ticket
        self._log_direct(parts)
        return None

    def _handle(self, path):
        """Persistent append handle (per-commit ``open`` is measurable on
        the fsync-bound hot path). Invalidated whenever a rewrite swaps
        the file's inode under the name."""
        fh = self._handles.get(path)
        if fh is None or fh.closed:
            fh = open(path, "a", encoding="utf-8")
            self._handles[path] = fh
        return fh

    def _close_handles(self) -> None:
        for fh in self._handles.values():
            with contextlib.suppress(OSError):
                fh.close()
        self._handles.clear()

    def close(self) -> None:
        """Release append handles (the log stays valid on disk)."""
        self._close_handles()

    def _log_direct(self, parts) -> None:
        for path, line in parts:
            created = (path not in self._known_paths
                       and not os.path.exists(path))
            fh = self._handle(path)
            fh.write(line)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
            if created and self.fsync:
                self._fsync_parent(path)
            self._known_paths.add(path)

    def _write_lines(self, by_path: dict) -> list:
        """Group-flush write leg: append each path's lines (in staging
        order), no fsync — the coordinator fsyncs after its crash-hook
        boundary. Returns the paths newly created (their directory entry
        still needs an fsync)."""
        created = []
        for path, lines in by_path.items():
            if path not in self._known_paths and not os.path.exists(path):
                created.append(path)
            fh = self._handle(path)
            fh.writelines(lines)
            fh.flush()
            self._known_paths.add(path)
        return created

    def _fsync_parent(self, path) -> None:
        _fsync_dir(os.path.dirname(os.path.abspath(path)) or ".")

    # -- stream routing ----------------------------------------------------

    def _stream_path(self, index: int, epoch: int | None = None) -> str:
        epoch = self._stream_epoch if epoch is None else epoch
        return f"{self.path}.s{index}.e{epoch}"

    def _stream_index(self, table: str) -> int:
        return zlib.crc32(table.encode("utf-8")) % self.streams

    def _meta_json(self) -> dict:
        return {
            "lsn": 0, "tables": {}, "kind": "wal-meta",
            "meta": {"streams": self.streams, "epoch": self._stream_epoch},
        }

    def _ensure_meta(self) -> None:
        """Make the main file name the live stream layout before any
        record lands in a stream file (durable first: recovery discovers
        the stream files through this line)."""
        if self._meta_logged:
            return
        lock = self.group.flush_lock if self.group is not None else \
            contextlib.nullcontext()
        with lock:
            if self._meta_logged:
                return
            created = (self.path not in self._known_paths
                       and not os.path.exists(self.path))
            fh = self._handle(self.path)
            fh.write(self._encode_json(self._meta_json()))
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
            if created and self.fsync:
                self._fsync_parent(self.path)
            self._known_paths.add(self.path)
            self._meta_logged = True

    def _record_parts(self, record: WalRecord) -> list:
        """``(path, encoded line)`` pairs for one record. Non-commit
        records and unstriped logs write one whole line; a striped commit
        splits per stream, each part tagged with the total part count."""
        if self.streams <= 1:
            return [(self.path, self._encode_json(self._to_json(record)))]
        self._ensure_meta()
        if record.kind != "commit" or not record.tables:
            return [(self.path, self._encode_json(self._to_json(record)))]
        groups: dict[int, dict] = {}
        for name, entries in record.tables.items():
            groups.setdefault(self._stream_index(name), {})[name] = entries
        nparts = len(groups)
        parts = []
        for index in sorted(groups):
            raw = {"lsn": record.lsn, "tables": groups[index]}
            if nparts > 1:
                raw["parts"] = nparts
            parts.append((self._stream_path(index), self._encode_json(raw)))
        return parts

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
                    tables={table: self._serialize_pdt(snapshot_pdt)},
                    meta={
                        "table": table,
                        "for_image_lsn": int(
                            lsn if for_image_lsn is None else for_image_lsn
                        ),
                    },
                )
            )
        self._rewrite_file()

    @staticmethod
    def _serialize_pdt(pdt) -> list:
        """JSON-safe ``(sid, kind, payload)`` entry list of one PDT,
        exported with the bulk leaf-drain interface (no per-entry
        ``Entry`` construction on the commit path)."""
        value_of = pdt.values.value_of
        entries = []
        for sid, kind, ref in zip(*pdt.entry_lists()):
            payload = value_of(kind, ref)
            if kind < 0:
                # INS row / DEL key: the record must not alias a row the
                # PDT may still rewrite in place.
                payload = list(payload)
            entries.append((sid, kind, payload))
        return entries

    def _rewrite_file(self) -> None:
        if self.path is None or self._defer_rewrites:
            return
        if self.group is not None:
            # A rewrite persists (or supersedes — rebases only drop
            # records whose effects the published images already cover)
            # everything staged: resolve those tickets once it lands.
            with self.group.flush_lock:
                drained = self.group.drain_for_rewrite()
                self._rewrite_locked()
                self.group.resolve_drained(drained)
        else:
            self._rewrite_locked()

    def _rewrite_locked(self) -> None:
        # os.replace swaps the inode under the name: cached append
        # handles would keep writing to the unlinked file.
        self._close_handles()
        old_epoch = self._stream_epoch
        if self.streams > 1:
            self._stream_epoch = old_epoch + 1
        tmp = str(self.path) + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            if self.streams > 1:
                fh.write(self._encode_json(self._meta_json()))
            for record in self.records:
                fh.write(self._encode_json(self._to_json(record)))
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, self.path)  # a kill leaves old or new, never torn
        if self.fsync:
            # The rename itself is a directory mutation; make it durable.
            self._fsync_parent(self.path)
        self._known_paths.add(self.path)
        self._meta_logged = self.streams > 1
        if self.streams > 1:
            # The collapse superseded the previous epoch's stream files.
            for index in range(self.streams):
                stale = self._stream_path(index, old_epoch)
                self._known_paths.discard(stale)
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(stale)

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
    def load(cls, path) -> "WriteAheadLog":
        """Read a persisted log back from disk.

        A torn trailing line (the record a kill interrupted mid-append)
        is discarded *and truncated off the file*: appends are the unit
        of commit durability, so a partial record is a commit that never
        happened — and leaving its bytes in place would corrupt the next
        append (which would land on the same line, losing that commit at
        the following recovery). Each stream file of a striped log gets
        the same repair; part lines are then re-joined by LSN and
        commits from the first incomplete LSN on are dropped (the one
        flush a kill interrupted — never acknowledged).
        """
        wal = cls(path=None)
        streams, epoch = 1, 0
        raws: list = []
        for raw in cls._read_file(path):
            if raw.get("kind") == "wal-meta":
                streams = int(raw["meta"]["streams"])
                epoch = int(raw["meta"]["epoch"])
                continue
            raws.append(raw)
        if streams > 1:
            for index in range(streams):
                spath = f"{path}.s{index}.e{epoch}"
                if os.path.exists(spath):
                    raws.extend(cls._read_file(spath))
            cls._sweep_stale_streams(path, epoch)
        wal.records = cls._assemble(raws, striped=streams > 1)
        wal.path = path
        wal.streams = streams
        wal._stream_epoch = epoch
        wal._meta_logged = streams > 1
        return wal

    @classmethod
    def _read_file(cls, path) -> list:
        """One file's parsed record dicts, repairing a torn tail in
        place (truncate + fsync file and directory)."""
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
        return raws

    @classmethod
    def _assemble(cls, raws: list, striped: bool) -> list:
        if not striped:
            return [cls._record_from(raw) for raw in raws]
        groups: dict[int, dict] = {}
        others: list = []
        for order, raw in enumerate(raws):
            if raw.get("kind", "commit") != "commit":
                others.append((raw["lsn"], 1, order, cls._record_from(raw)))
                continue
            lsn = raw["lsn"]
            group = groups.setdefault(
                lsn, {"tables": {}, "need": 1, "have": 0, "order": order})
            group["need"] = max(group["need"], int(raw.get("parts", 1)))
            group["have"] += 1
            for name, entries in raw["tables"].items():
                group["tables"][name] = [tuple(e) for e in entries]
        incomplete = [lsn for lsn, g in groups.items()
                      if g["have"] < g["need"]]
        # Parts of one flush may land on disk out of LSN order across
        # files, so a *complete* LSN above an incomplete one still belongs
        # to the crashed, unacknowledged flush: drop the whole tail.
        bad = min(incomplete) if incomplete else None
        merged = list(others)
        for lsn, group in groups.items():
            if bad is not None and lsn >= bad:
                continue
            merged.append((lsn, 0, group["order"],
                           WalRecord(lsn=lsn, tables=group["tables"])))
        merged.sort(key=lambda item: item[:3])
        return [record for *_, record in merged]

    @staticmethod
    def _sweep_stale_streams(path, keep_epoch: int | None) -> None:
        """Unlink stream files of superseded epochs (collapse garbage a
        kill may have left behind)."""
        for stale in _glob.glob(_glob.escape(str(path)) + ".s*.e*"):
            try:
                epoch = int(str(stale).rsplit(".e", 1)[1])
            except ValueError:
                continue
            if keep_epoch is None or epoch != keep_epoch:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(stale)

    def adopt_runtime(self, configured: "WriteAheadLog") -> None:
        """Carry runtime configuration (fsync, stripe count, group-commit
        policy) from a freshly constructed WAL onto this loaded one — the
        recovery handoff. A stripe-count change collapses the log into
        the main file so the on-disk layout matches the configuration."""
        self.fsync = configured.fsync
        file_streams = self.streams
        self.streams = configured.streams
        if configured.group is not None and self.path is not None:
            self.group = GroupCommitCoordinator(self,
                                                configured.group.policy)
        if self.path is not None and file_streams != self.streams:
            self._meta_logged = False
            self._rewrite_file()
            self._sweep_stale_streams(
                self.path,
                self._stream_epoch if self.streams > 1 else None,
            )


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
    whole records, and :meth:`WriteAheadLog.load` already dropped any
    partially persisted, never-acknowledged flush tail.)

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
        staging.bulk_append_entries(
            (sid, kind, tuple(payload) if kind == KIND_DEL else payload)
            for sid, kind, payload in entries
        )
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
