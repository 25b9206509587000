"""Database-wide snapshot pins: one commit point across every shard.

A cross-shard read through ``Database.query`` captures each shard's
latest-committed layer stack independently — correct per shard, but two
shards can be captured on either side of a commit, so a concurrent writer
can tear a logical table's image across shards. A :class:`SnapshotPin`
fixes the whole database at one commit point instead: for every physical
table it captures the stable image, the Read-PDT (by reference), a
Write-PDT snapshot *loan* (the master by reference — commits propagate
copy-on-commit while it is loaned, so the object never changes under the
pin), the stale sparse index, and the table's last-commit LSN — together
a per-table/per-shard LSN vector naming exactly one version of the
database. For sharded logical tables the shard layout (boundaries +
shard names) is captured too, so a pinned reader keeps routing against
the layout it pinned even while the rebalancer restructures the live
table.

Pinned state stays valid because every mutation of committed layers is
*by replacement* (a commit on a pinned table propagates into a copy and
swings the master Write-PDT to it; checkpoints install fresh stable/PDT
objects) or made pin-aware:

* ``propagate_write_to_read`` copies-on-write the Read-PDT while the
  table is pinned, so the pinned reference never absorbs the Write-PDT a
  pin loans (the checkpoint scheduler additionally *defers* folds on
  pinned tables until pins drain);
* checkpoints re-home the outgoing stable image onto a private
  in-memory copy of its encoded blocks before dropping them from the
  shared store, so pinned readers keep reading the image they captured;
* the shard rebalancer defers retired shards' block drops until the pins
  that captured them drain (shard names are never reused, so old and new
  images coexist in the block store).

Pins are cheap (reference captures only — no copies at pin time),
require no quiescence, and are the one way to hold a committed version:
the async query service hands one to every streaming cursor, every
latest-state read takes one for its scan, and every transaction reads
through the pin ``TransactionManager.begin`` takes (paper section 3.3's
Write-PDT snapshot is that pin's loan). A running transaction therefore
counts as a pin everywhere pins are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class PinnedTable(NamedTuple):
    """One physical table's captured version: the scan inputs at pin time.

    ``write_pdt`` is ``None`` when the Write-PDT was empty at the pin
    point (the common case between maintenance cycles); ``layers`` yields
    the non-empty PDT stack in merge order. Every stable image is
    published before it is registered, so ``stable`` itself names the
    persisted image the layers are relative to. A plain immutable record:
    every transaction start builds one per physical table.
    """

    name: str
    stable: object
    read_pdt: object
    write_pdt: object  # loaned master, or None when empty at pin time
    sparse_index: object
    lsn: int

    @property
    def layers(self) -> tuple:
        if self.write_pdt is None:
            return (self.read_pdt,)
        return (self.read_pdt, self.write_pdt)


class PinnedLayout(NamedTuple):
    """A sharded logical table's layout at pin time."""

    boundaries: tuple
    shard_names: tuple


@dataclass
class SnapshotPin:
    """A released-once handle on one database-wide commit point.

    Obtained from :meth:`TransactionManager.pin_snapshot` (usually via
    ``Database.pin_snapshot()`` or ``QueryService.pin()``; every
    transaction holds one as ``Transaction.pin`` until it finishes).
    Usable as a context manager; releasing is idempotent. While any pin
    covering a table is live, maintenance on that table is deferred or
    runs copy-on-write, so the captured objects keep describing the
    pinned version.
    """

    manager: object
    pin_id: int
    tables: dict  # physical name -> PinnedTable
    layouts: dict = field(default_factory=dict)  # logical -> PinnedLayout
    lsn: int = 0
    created_at: float = 0.0  # time.monotonic() at pin time (age tracking)
    released: bool = False

    def table(self, name: str) -> PinnedTable:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(
                f"table {name!r} is not covered by this pin "
                f"(created after the pin was taken?)"
            ) from None

    def physical_names(self, table: str) -> list[str]:
        """Physical tables backing ``table`` at pin time, in key order."""
        if table in self.layouts:
            return list(self.layouts[table].shard_names)
        # Raise the pin's KeyError for unknown names.
        return [self.table(table).name]

    def lsn_vector(self) -> dict[str, int]:
        """Per-physical-table last-commit LSNs — the version this pin
        names. Every cross-shard read under the pin sees exactly these."""
        return {name: pt.lsn for name, pt in self.tables.items()}

    def release(self) -> None:
        if not self.released:
            self.released = True
            self.manager.release_pin(self)

    def __enter__(self) -> "SnapshotPin":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self.released else "live"
        return (
            f"SnapshotPin(id={self.pin_id}, lsn={self.lsn}, "
            f"tables={len(self.tables)}, {state})"
        )
