"""Transactions over snapshot-isolated, three-layer PDT stacks.

A transaction sees (equation (9))::

    TABLE = stable .Merge(Read-PDT) .Merge(Write-PDT snapshot) .Merge(Trans-PDT)

The Read-PDT is shared by reference (only Propagate mutates it, and only
when no snapshots are live); the Write-PDT snapshot is a reference *loan*
of the master taken at transaction start (transactions that started under
the same commit LSN share the same object; commits never mutate a loaned
master in place — they propagate into a copy and replace it); the
Trans-PDT is private and collects this transaction's own updates, so
later queries in the transaction see its earlier effects.

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

    def __init__(self, manager, txn_id: int, start_lsn: int):
        self._manager = manager
        self.txn_id = txn_id
        self.start_lsn = start_lsn
        self.status = TxnStatus.ACTIVE
        self._snapshots: dict = {}  # table -> write-PDT snapshot (or None)
        self._trans: dict[str, PDT] = {}  # table -> Trans-PDT
        self._query: dict[str, PDT] | None = None  # Query-PDT layer

    # -- layer plumbing ------------------------------------------------------

    def _read_layers(self, table: str) -> list:
        state = self._manager.state_of(table)
        layers = [state.read_pdt]
        snapshot = self._snapshot(table)
        if snapshot is not None:
            layers.append(snapshot)
        if table in self._trans:
            layers.append(self._trans[table])
        return layers

    def _update_layers(self, table: str) -> list:
        layers = self._read_layers(table)
        if table not in self._trans:
            self._trans[table] = PDT(self._manager.state_of(table).schema)
            layers.append(self._trans[table])
        if self._query is not None:
            pdt = self._query.setdefault(
                table, PDT(self._manager.state_of(table).schema)
            )
            layers.append(pdt)
        return layers

    def _snapshot(self, table: str):
        if table not in self._snapshots:
            self._snapshots[table] = self._manager.write_snapshot(
                table, self.start_lsn
            )
        return self._snapshots[table]

    def _updater(self, table: str) -> PositionalUpdater:
        state = self._manager.state_of(table)
        return PositionalUpdater(
            state.stable, self._update_layers(table), state.sparse_index
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
        names = self._manager.physical_names(table)
        if columns is None:
            columns = self._manager.state_of(names[0]).schema.column_names
        columns = list(columns)

        def batches():
            for name in names:
                yield from merge_scan_layers(
                    self._manager.state_of(name).stable,
                    self._read_layers(name),
                    columns=columns,
                )
        return Relation.from_batches(columns, batches())

    def image_rows(self, table: str) -> list[tuple]:
        """Full current image as tuples (testing convenience)."""
        self._require_active()
        rows: list[tuple] = []
        for name in self._manager.physical_names(table):
            state = self._manager.state_of(name)
            rows.extend(image_rows(state.stable, self._read_layers(name)))
        return rows

    # -- writes ---------------------------------------------------------------

    def insert(self, table: str, row) -> int:
        self._require_active()
        first = self._manager.physical_names(table)[0]
        schema = self._manager.state_of(first).schema
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
            state = self._manager.state_of(physical)
            updater = BatchUpdater(
                state.stable, self._update_layers(physical),
                state.sparse_index,
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
                self._trans[table] = PDT(
                    self._manager.state_of(table).schema
                )
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
