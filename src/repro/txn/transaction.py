"""Transactions over snapshot-isolated, three-layer PDT stacks.

A transaction sees (equation (9))::

    TABLE = stable .Merge(Read-PDT) .Merge(Write-PDT snapshot) .Merge(Trans-PDT)

A running transaction is a snapshot pin (:mod:`repro.txn.pins`) plus
private layers. ``TransactionManager.begin`` takes one pin and every
table's stable image, Read-PDT, Write-PDT snapshot and sparse index are
read through it, never from the live manager state. The Write-PDT
snapshot is the pin's reference *loan* of the master (pins under the
same commit LSN share the same object; commits never mutate a loaned
master in place — they propagate into a copy and replace it). The
Trans-PDT stacks on top of the pinned layers, is private and collects
this transaction's own updates, so later queries in the transaction see
its earlier effects. A table registered after ``begin`` lies outside
the pin: touching it raises the pin's ``KeyError``.

An optional fourth *Query-PDT* layer (paper footnote 5) buffers the updates
of a single statement so the statement does not see its own changes
(Halloween protection); it is folded into the Trans-PDT when the statement
finishes.
"""

from __future__ import annotations

import enum

from ..core.pdt import PDT
from ..core.propagate import propagate_batch
from ..core.stack import image_rows, merge_scan_layers
from ..db.update_processor import BatchUpdater, PositionalUpdater
from ..engine.relation import Relation


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TransactionError(RuntimeError):
    """Operation on a transaction in the wrong state."""


class Transaction:
    """One snapshot-isolated transaction; created by the manager."""

    def __init__(self, manager, txn_id: int, pin):
        self._manager = manager
        self.txn_id = txn_id
        self.pin = pin  # the committed version this transaction reads
        self.start_lsn = pin.lsn
        self.status = TxnStatus.ACTIVE
        self._trans: dict[str, PDT] = {}  # table -> Trans-PDT
        self._query: dict[str, PDT] | None = None  # Query-PDT layer

    # -- layer plumbing ------------------------------------------------------

    def _read_layers(self, table: str) -> list:
        layers = list(self.pin.table(table).layers)
        if table in self._trans:
            layers.append(self._trans[table])
        return layers

    def _update_layers(self, table: str) -> list:
        layers = self._read_layers(table)
        schema = layers[0].schema  # the pinned Read-PDT's
        if table not in self._trans:
            self._trans[table] = PDT(schema)
            layers.append(self._trans[table])
        if self._query is not None:
            layers.append(self._query.setdefault(table, PDT(schema)))
        return layers

    def _updater(self, table: str) -> PositionalUpdater:
        pinned = self.pin.table(table)
        return PositionalUpdater(
            pinned.stable, self._update_layers(table), pinned.sparse_index
        )

    def _require_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status.value}"
            )

    # -- reads ----------------------------------------------------------------

    def scan(self, table: str, columns=None) -> Relation:
        """Snapshot-consistent scan (sees this transaction's own updates):
        the physical tables behind ``table`` in key order, each through
        this transaction's own layer stack."""
        self._require_active()
        pinned = [self.pin.table(name)
                  for name in self._manager.physical_names(table)]
        if columns is None:
            columns = pinned[0].stable.schema.column_names
        columns = list(columns)

        def batches():
            for pt in pinned:
                yield from merge_scan_layers(
                    pt.stable, self._read_layers(pt.name), columns=columns,
                )
        return Relation.from_batches(columns, batches())

    def image_rows(self, table: str) -> list[tuple]:
        """Full current image as tuples (testing convenience)."""
        self._require_active()
        rows: list[tuple] = []
        for name in self._manager.physical_names(table):
            rows.extend(image_rows(self.pin.table(name).stable,
                                   self._read_layers(name)))
        return rows

    # -- writes ---------------------------------------------------------------

    def insert(self, table: str, row) -> int:
        self._require_active()
        first = self._manager.physical_names(table)[0]
        schema = self.pin.table(first).stable.schema
        row = schema.coerce_row(row)
        physical = self._manager.route(table, schema.sk_of(row))
        return self._updater(physical).insert(row)

    def delete(self, table: str, sk) -> int:
        self._require_active()
        return self._updater(self._manager.route(table, sk)).delete_by_key(sk)

    def modify(self, table: str, sk, column: str, value) -> int:
        self._require_active()
        physical = self._manager.route(table, sk)
        return self._updater(physical).modify_by_key(sk, column, value)

    def apply_batch(self, table: str, ops) -> int:
        """Apply a whole ``("ins", row) | ("del", sk) | ("mod", sk, col,
        value)`` batch through the vectorized bulk path; returns the
        number of operations applied. All-or-nothing: the batch is split
        by physical table and *every* part is resolved and validated
        before any part lands in its Trans-PDT."""
        self._require_active()
        staged = []
        for physical, part in self._manager.split_ops(table, ops):
            pinned = self.pin.table(physical)
            updater = BatchUpdater(
                pinned.stable, self._update_layers(physical),
                pinned.sparse_index,
            )
            staged.append((updater, updater.prepare(part)))
        return sum(u.commit_staged(s) for u, s in staged)

    # -- query-level isolation (footnote 5) -------------------------------------

    def begin_query(self) -> None:
        """Route subsequent updates into a private Query-PDT so the running
        statement does not observe its own changes."""
        self._require_active()
        if self._query is not None:
            raise TransactionError("query scope already open")
        self._query = {}

    def end_query(self) -> None:
        """Fold the Query-PDT into the Trans-PDT."""
        if self._query is None:
            raise TransactionError("no query scope open")
        for table, qpdt in self._query.items():
            if table not in self._trans:
                self._trans[table] = PDT(qpdt.schema)
            propagate_batch(self._trans[table], qpdt)
        self._query = None

    # -- lifecycle ---------------------------------------------------------------

    def commit(self) -> None:
        self._require_active()
        if self._query is not None:
            self.end_query()
        self._manager.commit(self)

    def abort(self) -> None:
        self._require_active()
        self._manager.abort(self)

    def touched_tables(self) -> list[str]:
        return [t for t, pdt in self._trans.items() if not pdt.is_empty()]

    def __repr__(self) -> str:
        return (
            f"Transaction(id={self.txn_id}, lsn={self.start_lsn}, "
            f"{self.status.value})"
        )
