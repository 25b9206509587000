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
from ..engine.scan import ScanTimer, scan_clean, scan_vdt
from ..vdt.vdt import VDT


class CleanSource:
    """No-updates run: stable images only.

    ``where`` hints are ignored: the queries re-apply their full
    predicates centrally, so skipping push-down only costs time, never
    correctness.
    """

    def __init__(self, db: Database, timer: ScanTimer | None = None):
        self.db = db
        self.timer = timer

    def scan(self, table: str, columns=None, where=None) -> Relation:
        return scan_clean(self.db.table(table), columns=columns,
                          timer=self.timer)


class PdtSource:
    """PDT run: positional MergeScan through Read/Write layers.

    ``where`` hints are pushed down by :meth:`Database.query`: the shard
    router prunes shards whose sort-key ranges cannot satisfy the
    predicate, and each surviving shard's scan filters rows before they
    are materialized. The scan time of Figure 19 is the whole
    ``db.query`` call (plan + data access + merging).
    """

    def __init__(self, db: Database, timer: ScanTimer | None = None):
        self.db = db
        self.timer = timer

    def scan(self, table: str, columns=None, where=None) -> Relation:
        start = time.perf_counter()
        rel = self.db.query(table, columns=columns, where=where)
        if self.timer is not None:
            self.timer.add(table, time.perf_counter() - start)
        return rel


class VdtSource:
    """VDT run: value-based MergeScan for tables that have deltas.

    ``where`` hints are ignored (the VDT merge path has no push-down);
    queries re-filter centrally, so results stay identical across modes.
    """

    def __init__(self, db: Database, vdts: dict[str, VDT],
                 timer: ScanTimer | None = None):
        self.db = db
        self.vdts = vdts
        self.timer = timer

    def scan(self, table: str, columns=None, where=None) -> Relation:
        vdt = self.vdts.get(table)
        if vdt is None or vdt.is_empty():
            return scan_clean(self.db.table(table), columns=columns,
                              timer=self.timer)
        return scan_vdt(self.db.table(table), vdt, columns=columns,
                        timer=self.timer)
