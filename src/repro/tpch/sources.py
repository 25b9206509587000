"""Scan sources for the three TPC-H run modes of Figure 19.

* :class:`CleanSource` — "no-updates": scans stable tables directly.
* :class:`PdtSource` — positional merging through the database's PDT
  layers (reads only requested columns).
* :class:`VdtSource` — value-based merging for the updated tables (always
  reads their sort-key columns) and clean scans for the rest.

All three share one :class:`~repro.db.database.Database` (hence one buffer
pool and one I/O accounting), so per-query time and I/O are directly
comparable across modes.
"""

from __future__ import annotations

import time

from ..db.database import Database
from ..engine.relation import Relation
from ..engine.scan import scan_clean, scan_vdt
from ..vdt.vdt import VDT


class _Source:
    """A scan source that adds up the wall-clock time of its scans (data
    access + merging) in ``scan_seconds``, which Figure 19's harness uses
    to split query time into scan vs processing components."""

    def __init__(self, db: Database):
        self.db = db
        self.scan_seconds = 0.0

    def scan(self, table: str, columns=None, where=None) -> Relation:
        start = time.perf_counter()
        rel = self._scan(table, columns, where)
        self.scan_seconds += time.perf_counter() - start
        return rel


class CleanSource(_Source):
    """No-updates run: stable images only.

    ``where`` hints are ignored: the queries re-apply their full
    predicates centrally, so skipping push-down only costs time, never
    correctness.
    """

    def _scan(self, table, columns, where) -> Relation:
        return scan_clean(self.db.table(table), columns=columns)


class PdtSource(_Source):
    """PDT run: positional MergeScan through Read/Write layers.

    ``where`` hints are pushed down by :meth:`Database.query`: the shard
    router prunes shards whose sort-key ranges cannot satisfy the
    predicate, and each surviving shard's scan filters rows before they
    are materialized. The scan time of Figure 19 is the whole
    ``db.query`` call (plan + data access + merging).
    """

    def _scan(self, table, columns, where) -> Relation:
        return self.db.query(table, columns=columns, where=where)


class VdtSource(_Source):
    """VDT run: value-based MergeScan for tables that have deltas.

    ``where`` hints are ignored (the VDT merge path has no push-down);
    queries re-filter centrally, so results stay identical across modes.
    """

    def __init__(self, db: Database, vdts: dict[str, VDT]):
        super().__init__(db)
        self.vdts = vdts

    def _scan(self, table, columns, where) -> Relation:
        vdt = self.vdts.get(table)
        if vdt is None or vdt.is_empty():
            return scan_clean(self.db.table(table), columns=columns)
        return scan_vdt(self.db.table(table), vdt, columns=columns)
