"""TPC-H refresh streams through the vectorized bulk-update path.

The paper's update load: RF1/RF2 pairs inserting and deleting ~0.1% of
orders and lineitem, scattered across the SK-ordered tables. The bulk
path (one ``apply_batch`` per table per refresh half) must land the exact
same image as the scalar per-row oracle and as the set-wise ground truth
``RefreshApplier.post_update_rows`` — at more than one scale factor, so
batches cross sparse-granule and block boundaries differently.
"""

import pytest

from repro.tpch import RefreshApplier, generate, load_database

from ..oracles.per_row_refresh import apply_refreshes_per_row

SCALES = [0.001, 0.003]


@pytest.fixture(scope="module", params=SCALES, ids=lambda s: f"sf{s}")
def env(request):
    data = generate(scale=request.param, seed=777)
    return data, RefreshApplier(data)


class TestBulkRefreshStreams:
    def test_bulk_path_matches_ground_truth(self, env):
        """All RF1/RF2 pairs through ``apply_batch``: merged image equals
        the set-wise reference for every updated table."""
        data, applier = env
        db = load_database(data, compressed=False)
        applier.apply_all_pdt(db)
        for table in ("orders", "lineitem"):
            assert db.image_rows(table) == applier.post_update_rows(table)

    def test_bulk_path_matches_scalar_oracle(self, env):
        """Bulk and scalar application must agree entry-for-entry on the
        final delta state, not just on the merged image."""
        data, applier = env
        bulk_db = load_database(data, compressed=False)
        scalar_db = load_database(data, compressed=False)
        applier.apply_all_pdt(bulk_db)
        apply_refreshes_per_row(applier, scalar_db)
        for table in ("orders", "lineitem"):
            assert bulk_db.image_rows(table) == scalar_db.image_rows(table)
            bulk_state = bulk_db.manager.state_of(table)
            scalar_state = scalar_db.manager.state_of(table)
            assert _entries(bulk_state.write_pdt) == \
                _entries(scalar_state.write_pdt)

    def test_one_wal_record_per_refresh_half(self, env):
        """Each RF1 (and each RF2) is one commit batch -> one WAL record
        carrying both tables' entry lists."""
        data, applier = env
        db = load_database(data, compressed=False)
        applier.apply_all_pdt(db)
        assert len(db.manager.wal) == 2 * len(data.refreshes)
        rf1 = db.manager.wal.records[0]
        assert set(rf1.tables) == {"orders", "lineitem"}

    def test_refresh_ops_round_trip(self, env):
        """The op-batch export covers exactly the pair's inserts and the
        RF2 order/lineitem delete cascade."""
        data, applier = env
        pair = data.refreshes[0]
        rf1, rf2 = applier.refresh_ops(pair)
        assert len(rf1["orders"]) == len(pair.new_orders)
        assert len(rf1["lineitem"]) == len(pair.new_lineitems)
        assert len(rf2["orders"]) == len(pair.delete_orderkeys)
        assert all(op[0] == "ins" for ops in rf1.values() for op in ops)
        assert all(op[0] == "del" for ops in rf2.values() for op in ops)


def _entries(pdt):
    out = []
    for entry in pdt.iter_entries():
        value = pdt.values.value_of(entry.kind, entry.ref)
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        out.append((entry.sid, entry.rid, entry.kind, value))
    return out
