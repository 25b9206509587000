"""TPC-H with a range-sharded lineitem: loading, refresh streams, and
queries must behave exactly as with the unsharded table.

Lineitem is the paper's refresh-heavy table; sharding it by orderkey
range routes each RF1/RF2 batch to the shards its keys address, each
shard absorbing its sub-batch through the same vectorized bulk path.
"""

import pytest

from repro.tpch import RefreshApplier, generate, load_database

from ..oracles.per_row_refresh import apply_refreshes_per_row

SCALE = 0.002


@pytest.fixture(scope="module")
def env():
    data = generate(scale=SCALE, seed=777)
    return data, RefreshApplier(data)


class TestShardedLineitem:
    def test_load_partitions_by_orderkey(self, env):
        data, _ = env
        db = load_database(data, compressed=False, lineitem_shards=4)
        st = db.sharded("lineitem")
        assert st.num_shards == 4
        total = sum(s.stable.num_rows for s in st.shard_states())
        assert total == len(data.tables["lineitem"]["l_orderkey"])
        # shards are contiguous orderkey ranges
        prev_hi = None
        for state in st.shard_states():
            keys = state.stable.column("l_orderkey")
            if len(keys) == 0:
                continue
            if prev_hi is not None:
                assert keys.min() >= prev_hi
            prev_hi = keys.max()

    def test_refresh_streams_match_ground_truth(self, env):
        data, applier = env
        db = load_database(data, compressed=False, lineitem_shards=4)
        applier.apply_all_pdt(db)
        assert db.image_rows("lineitem") \
            == applier.post_update_rows("lineitem")
        assert db.image_rows("orders") == applier.post_update_rows("orders")

    def test_sharded_equals_unsharded_refresh(self, env):
        data, applier = env
        sharded_db = load_database(data, compressed=False,
                                   lineitem_shards=3)
        plain_db = load_database(data, compressed=False)
        applier.apply_all_pdt(sharded_db)
        applier.apply_all_pdt(plain_db)
        assert sharded_db.image_rows("lineitem") \
            == plain_db.image_rows("lineitem")
        assert sharded_db.query("lineitem").rows() \
            == plain_db.query("lineitem").rows()

    def test_scalar_refresh_path_routes(self, env):
        data, applier = env
        db = load_database(data, compressed=False, lineitem_shards=3)
        apply_refreshes_per_row(applier, db)
        assert db.image_rows("lineitem") \
            == applier.post_update_rows("lineitem")

    def test_queries_fan_out(self, env):
        data, _ = env
        sharded_db = load_database(data, compressed=False,
                                   lineitem_shards=4)
        plain_db = load_database(data, compressed=False)
        cols = ["l_orderkey", "l_quantity", "l_shipdate"]
        a = sharded_db.query("lineitem", columns=cols)
        b = plain_db.query("lineitem", columns=cols)
        for c in cols:
            assert a[c].tolist() == b[c].tolist()
