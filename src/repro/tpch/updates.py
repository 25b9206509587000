"""Applying TPC-H refresh streams (RF1 inserts / RF2 deletes).

The paper's update load: "the official 2 TPC-H update streams which update
(insert and delete) roughly 0.1% of two main tables: lineitem and orders".
Because both tables are SK-ordered (orders by date, lineitem by orderkey),
these trickle updates scatter across the entire tables — the hostile case
for a column store that differential structures exist to absorb.

The same logical stream is applied to a PDT-managed database and to a
parallel set of VDTs, so Figure 19 compares identical table images.
"""

from __future__ import annotations

from ..db.database import Database
from ..vdt.vdt import VDT
from . import schema as tpch_schema
from .dbgen import RefreshPair, TpchData


def _lineitems_by_orderkey(data: TpchData) -> dict[int, list[int]]:
    """orderkey -> linenumbers of the original population (RF2 cascade)."""
    arrays = data.tables["lineitem"]
    mapping: dict[int, list[int]] = {}
    for ok, ln in zip(arrays["l_orderkey"], arrays["l_linenumber"]):
        mapping.setdefault(int(ok), []).append(int(ln))
    return mapping


def _orderdate_by_orderkey(data: TpchData) -> dict[int, int]:
    arrays = data.tables["orders"]
    return {
        int(k): int(d)
        for k, d in zip(arrays["o_orderkey"], arrays["o_orderdate"])
    }


class RefreshApplier:
    """Applies refresh pairs consistently across run modes."""

    def __init__(self, data: TpchData):
        self.data = data
        self._line_index = _lineitems_by_orderkey(data)
        self._date_index = _orderdate_by_orderkey(data)

    # -- PDT mode -----------------------------------------------------------

    def refresh_ops(self, pair: RefreshPair) -> tuple[dict, dict]:
        """The pair's logical updates as per-table op batches:
        ``(rf1_ops, rf2_ops)`` mapping table name -> operation list."""
        rf1 = {
            "orders": [("ins", row) for row in pair.new_orders],
            "lineitem": [("ins", row) for row in pair.new_lineitems],
        }
        rf2: dict[str, list] = {"orders": [], "lineitem": []}
        for orderkey in pair.delete_orderkeys:
            orderdate = self._date_index[orderkey]
            rf2["orders"].append(("del", (orderdate, orderkey)))
            for line in self._line_index.get(orderkey, ()):
                rf2["lineitem"].append(("del", (orderkey, line)))
        return rf1, rf2

    def apply_pdt(self, db: Database, pair: RefreshPair) -> None:
        """RF1 then RF2 as two transactions against the PDT database.

        Each refresh half goes through the vectorized batch path (one
        batch per table per transaction — one WAL record per refresh
        half). Every table name resolves to the physical tables behind
        it, so a range-sharded lineitem (``load_database(..., lineitem_shards=N)``)
        absorbs the stream shard by shard with no changes here.
        """
        for half in self.refresh_ops(pair):
            with db.transaction() as txn:
                for table, ops in half.items():
                    txn.apply_batch(table, ops)

    def apply_all_pdt(self, db: Database) -> None:
        for pair in self.data.refreshes:
            self.apply_pdt(db, pair)

    # -- VDT mode -----------------------------------------------------------

    def apply_vdt(self, vdts: dict[str, VDT], pair: RefreshPair) -> None:
        orders_vdt = vdts["orders"]
        lineitem_vdt = vdts["lineitem"]
        for row in pair.new_orders:
            orders_vdt.add_insert(row)
        for row in pair.new_lineitems:
            lineitem_vdt.add_insert(row)
        for orderkey in pair.delete_orderkeys:
            orderdate = self._date_index[orderkey]
            orders_vdt.add_delete((orderdate, orderkey))
            for line in self._line_index.get(orderkey, ()):
                lineitem_vdt.add_delete((orderkey, line))

    def apply_all_vdt(self, vdts: dict[str, VDT]) -> None:
        for pair in self.data.refreshes:
            self.apply_vdt(vdts, pair)

    def make_vdts(self) -> dict[str, VDT]:
        return {
            name: VDT(tpch_schema.SCHEMAS[name])
            for name in tpch_schema.UPDATED_TABLES
        }

    # -- reference mode --------------------------------------------------------

    def post_update_rows(self, table: str) -> list[tuple]:
        """Ground-truth rows of ``table`` after all refresh pairs, computed
        set-wise (for correctness tests)."""
        schema = tpch_schema.SCHEMAS[table]
        rows = {schema.sk_of(r): r for r in self.data.rows(table)}
        for pair in self.data.refreshes:
            if table == "orders":
                for row in pair.new_orders:
                    row = schema.coerce_row(row)
                    rows[schema.sk_of(row)] = row
                for orderkey in pair.delete_orderkeys:
                    orderdate = self._date_index[orderkey]
                    rows.pop((orderdate, orderkey), None)
            elif table == "lineitem":
                for row in pair.new_lineitems:
                    row = schema.coerce_row(row)
                    rows[schema.sk_of(row)] = row
                for orderkey in pair.delete_orderkeys:
                    for line in self._line_index.get(orderkey, ()):
                        rows.pop((orderkey, line), None)
            else:
                break
        return [rows[k] for k in sorted(rows)]
