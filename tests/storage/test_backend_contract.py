"""Backend conformance suite: every StorageBackend obeys one contract.

Run against both shipped implementations (memory, mmap). Each case
exercises the contract through :class:`~repro.storage.blocks.BlockStore`
where layout is involved (round-trips, row counts) and directly where the
backend itself owns the behavior (catalog metadata, sync/reopen).
"""

import numpy as np
import pytest

from repro.storage import (
    BlockKey,
    BlockStore,
    DataType,
    MemoryBackend,
    MemoryStorage,
    MmapFileBackend,
    MmapStorage,
    Schema,
)


@pytest.fixture(params=["memory", "mmap"])
def backend_env(request, tmp_path):
    """(make_backend, reopen) pair per implementation.

    ``make_backend()`` returns a fresh backend; ``reopen(backend)``
    simulates a process restart — for mmap a brand-new instance over the
    same root (reading only what was published), for memory the same
    instance (its 'persistence' is the process lifetime).
    """
    if request.param == "memory":
        def make():
            return MemoryBackend()

        def reopen(backend):
            return backend
    else:
        def make():
            return MmapFileBackend(tmp_path / "store")

        def reopen(backend):
            backend.sync()
            backend.close()
            return MmapFileBackend(tmp_path / "store")

    return make, reopen


def make_store(backend, block_rows=8, compressed=True):
    return BlockStore(compressed=compressed, block_rows=block_rows,
                      backend=backend)


class TestBlockRoundTrip:
    def test_int_and_string_round_trip(self, backend_env):
        make, _ = backend_env
        store = make_store(make())
        store.store_column("t", "v", DataType.INT64, np.arange(20))
        store.store_column("t", "s", DataType.STRING,
                           np.array(["a", "bb", ""] * 7, dtype=object)[:20])
        assert store.column_rows("t", "v") == 20
        assert list(store.read_block(BlockKey("t", "v", 1))) == \
            list(range(8, 16))
        got = np.concatenate([
            store.read_block(BlockKey("t", "s", b)) for b in range(3)
        ])
        assert list(got) == (["a", "bb", ""] * 7)[:20]

    def test_empty_column_stores_one_empty_block(self, backend_env):
        make, _ = backend_env
        store = make_store(make())
        store.store_column("t", "v", DataType.INT64, [])
        assert store.column_rows("t", "v") == 0
        assert store.column_blocks("t", "v") == 1
        assert len(store.read_block(BlockKey("t", "v", 0))) == 0

    def test_partial_tail_block(self, backend_env):
        make, _ = backend_env
        store = make_store(make())
        store.store_column("t", "v", DataType.INT64, np.arange(11))
        assert store.column_blocks("t", "v") == 2
        assert list(store.read_block(BlockKey("t", "v", 1))) == [8, 9, 10]
        # stored size is the encoded size the I/O accounting charges
        assert store.stored_size(BlockKey("t", "v", 1)) == \
            len(store.backend.get_block("t", "v", 1))

    def test_restore_same_key_truncates_old_blocks(self, backend_env):
        make, _ = backend_env
        store = make_store(make())
        store.store_column("t", "v", DataType.INT64, np.arange(30))
        assert store.column_blocks("t", "v") == 4
        store.store_column("t", "v", DataType.INT64, np.arange(5))
        assert store.column_blocks("t", "v") == 1
        assert store.column_rows("t", "v") == 5
        with pytest.raises(LookupError):  # KeyError or IndexError per impl
            store.backend.get_block("t", "v", 3)

    def test_delete_table(self, backend_env):
        make, _ = backend_env
        store = make_store(make())
        store.store_column("t", "v", DataType.INT64, np.arange(10))
        store.store_column("u", "v", DataType.INT64, np.arange(10))
        store.drop_table("t")
        assert not store.has_column("t", "v")
        assert store.has_column("u", "v")
        assert store.tables() == ["u"]


class TestRowCountContract:
    def test_fast_accessors_track_per_block_records(self, backend_env):
        """column_dtype/column_rows are O(1) accessors but must stay
        consistent with the per-block catalog as blocks are appended."""
        make, _ = backend_env
        backend = make()
        backend.begin_column("t", "v", DataType.INT64)
        assert backend.column_rows("t", "v") == 0
        for block, rows in enumerate((8, 8, 3)):
            backend.put_block("t", "v", block, b"x" * (block + 1), rows)
        assert backend.column_dtype("t", "v") is DataType.INT64
        assert backend.column_rows("t", "v") == \
            backend.column_meta("t", "v").row_count == 19
        assert [backend.block_size("t", "v", b) for b in range(3)] == \
            [1, 2, 3]
        assert backend.column_meta("t", "v").stored_bytes == 6
        with pytest.raises(KeyError):
            backend.column_dtype("t", "missing")
        with pytest.raises(KeyError):
            backend.column_rows("t", "missing")


class TestAppendOnlyBlocks:
    """Blocks are written once: put_block only takes a column's next
    index, and a refused write changes neither catalog nor bytes."""

    @pytest.mark.parametrize("block", [0, 1, 3, -1])
    def test_put_block_off_the_tail_raises(self, backend_env, block):
        make, _ = backend_env
        store = make_store(make())
        store.store_column("t", "v", DataType.INT64, np.arange(11))
        backend = store.backend
        sizes = [backend.block_size("t", "v", b) for b in range(2)]
        blobs = [bytes(backend.get_block("t", "v", b)) for b in range(2)]
        with pytest.raises(IndexError):
            backend.put_block("t", "v", block, b"overwrite", rows=8)
        assert backend.column_rows("t", "v") == 11
        assert len(backend.column_meta("t", "v").blocks) == 2
        assert [backend.block_size("t", "v", b) for b in range(2)] == sizes
        assert [bytes(backend.get_block("t", "v", b))
                for b in range(2)] == blobs
        assert list(store.read_block(BlockKey("t", "v", 1))) == [8, 9, 10]

    def test_put_block_on_unregistered_column_raises(self, backend_env):
        make, _ = backend_env
        backend = make()
        with pytest.raises(KeyError):
            backend.put_block("t", "v", 0, b"x", rows=1)
        assert backend.columns() == []

    def test_refused_write_appends_no_segment_bytes(self, tmp_path):
        store = make_store(MmapFileBackend(tmp_path / "store"))
        store.store_column("t", "v", DataType.INT64, np.arange(11))
        seg = next((tmp_path / "store" / "segments").glob("*.seg"))
        size = seg.stat().st_size
        with pytest.raises(IndexError):
            store.backend.put_block("t", "v", 0, b"overwrite", rows=8)
        assert seg.stat().st_size == size


class TestReadOnlyOpen:
    """The worker path: a read-only open of a live root sees only the
    published catalog and never mutates it."""

    def test_readonly_sees_published_catalog_only(self, tmp_path):
        writer = make_store(MmapFileBackend(tmp_path / "store"))
        writer.store_column("t", "v", DataType.INT64, np.arange(10))
        writer.set_image_lsn("t", 3)
        writer.sync()
        writer.store_column("u", "v", DataType.INT64, np.arange(5))
        writer.set_image_lsn("t", 9)  # unpublished
        reader = MmapFileBackend(tmp_path / "store", readonly=True)
        store = BlockStore(backend=reader)
        assert store.block_rows == 8
        assert store.tables() == ["t"]
        assert store.column_rows("t", "v") == 10
        assert store.image_lsn("t") == 3
        assert list(store.read_block(BlockKey("t", "v", 1))) == [8, 9]
        reader.close()
        writer.close()

    def test_readonly_rejects_writes(self, tmp_path):
        writer = make_store(MmapFileBackend(tmp_path / "store"))
        writer.store_column("t", "v", DataType.INT64, np.arange(10))
        writer.sync()
        catalog = (tmp_path / "store" / "catalog.json").read_bytes()
        reader = MmapFileBackend(tmp_path / "store", readonly=True)
        with pytest.raises(PermissionError):
            reader.begin_column("t", "w", DataType.INT64)
        with pytest.raises(PermissionError):
            reader.put_block("t", "v", 2, b"x", rows=1)
        with pytest.raises(PermissionError):
            reader.delete_table("t")
        reader.set_table_meta("t", image_lsn=99)
        reader.set_store_meta({"block_rows": 1})
        reader.sync()
        assert reader.get_table_meta("t").get("image_lsn") is None
        assert reader.get_store_meta()["block_rows"] == 8
        assert reader.columns() == [("t", "v")]
        assert reader.column_rows("t", "v") == 10
        assert (tmp_path / "store" / "catalog.json").read_bytes() == catalog
        reader.close()
        writer.close()


class TestSyncAndCatalogReopen:
    def test_catalog_round_trip_is_byte_identical(self, tmp_path):
        """sync -> close -> reopen -> sync rewrites the same catalog.json:
        the in-memory (size, rows, offset) records map back to the
        on-disk [offset, length, rows] exactly."""
        backend = MmapFileBackend(tmp_path / "store")
        store = make_store(backend)
        store.store_column("t", "v", DataType.INT64, np.arange(30))
        store.store_column("t", "s", DataType.STRING,
                           np.array(["a", "bb", "ccc"] * 10, dtype=object))
        store.store_column("u", "v", DataType.INT64, np.arange(3))
        store.set_table_schema("u", Schema.build(("v", DataType.INT64),
                                                 sort_key=("v",)))
        store.set_image_lsn("t", 5)
        store.sync()
        backend.close()
        path = tmp_path / "store" / "catalog.json"
        before = path.read_bytes()
        again = MmapFileBackend(tmp_path / "store")
        again.set_store_meta(again.get_store_meta())  # dirty, unchanged
        again.sync()
        again.close()
        assert path.read_bytes() == before
    def test_reopen_sees_published_state(self, backend_env):
        make, reopen = backend_env
        store = make_store(make(), block_rows=4, compressed=False)
        store.store_column("t", "v", DataType.INT64, np.arange(10))
        store.sync()
        store2 = BlockStore(backend=reopen(store.backend))
        # store config adopted from the persisted catalog
        assert store2.block_rows == 4
        assert store2.compressed is False
        assert store2.column_rows("t", "v") == 10
        assert list(store2.read_block(BlockKey("t", "v", 2))) == [8, 9]

    def test_unsynced_writes_invisible_after_mmap_reopen(self, tmp_path):
        backend = MmapFileBackend(tmp_path / "store")
        store = make_store(backend)
        store.store_column("t", "v", DataType.INT64, np.arange(10))
        store.sync()
        store.store_column("u", "v", DataType.INT64, np.arange(5))
        backend.close()  # no sync: "u" was never published
        again = BlockStore(backend=MmapFileBackend(tmp_path / "store"))
        assert again.has_column("t", "v")
        assert not again.has_column("u", "v")

    def test_table_meta_round_trips(self, backend_env):
        make, reopen = backend_env
        store = make_store(make())
        schema = Schema.build(("k", DataType.INT64), ("s", DataType.STRING),
                              sort_key=("k",))
        store.store_column("t", "k", DataType.INT64, np.arange(3))
        store.set_table_schema("t", schema)
        store.set_image_lsn("t", 17)
        store.sync()
        store2 = BlockStore(backend=reopen(store.backend))
        assert store2.table_schema("t") == schema
        assert store2.image_lsn("t") == 17

    def test_delete_survives_reopen(self, backend_env):
        make, reopen = backend_env
        store = make_store(make())
        store.store_column("t", "v", DataType.INT64, np.arange(10))
        store.sync()
        store.drop_table("t")
        store.sync()
        store2 = BlockStore(backend=reopen(store.backend))
        assert store2.tables() == []

    def test_second_open_of_live_root_does_not_sweep_inflight_epoch(
            self, tmp_path):
        """The orphan-segment sweep only runs under the root's writer
        lock: a second open of a *live* root (its writer mid-rewrite,
        new epoch appended but unpublished) must not delete the live
        writer's in-flight segment files."""
        writer = MmapFileBackend(tmp_path / "store")
        store = make_store(writer)
        store.store_column("t", "v", DataType.INT64, np.arange(10))
        store.sync()
        store.drop_table("t")  # epoch bump: rewrite in flight
        store.store_column("t", "v", DataType.INT64, np.arange(20))
        seg_dir = tmp_path / "store" / "segments"
        inflight = sorted(seg_dir.glob("*.seg"))
        assert len(inflight) == 2  # published epoch + unpublished epoch

        reader = MmapFileBackend(tmp_path / "store")  # lock held by writer
        assert sorted(seg_dir.glob("*.seg")) == inflight
        assert reader.column_rows("t", "v") == 10  # published catalog
        reader.close()

        store.sync()  # the live writer publishes and reclaims normally
        writer.close()
        assert len(list(seg_dir.glob("*.seg"))) == 1
        reopened = BlockStore(backend=MmapFileBackend(tmp_path / "store"))
        assert reopened.column_rows("t", "v") == 20

    def test_mmap_segment_files_are_per_table_and_reclaimed(self, tmp_path):
        backend = MmapFileBackend(tmp_path / "store")
        store = make_store(backend)
        store.store_column("a", "v", DataType.INT64, np.arange(10))
        store.store_column("b", "v", DataType.INT64, np.arange(10))
        store.sync()
        seg_dir = tmp_path / "store" / "segments"
        assert len(list(seg_dir.glob("*.seg"))) == 2
        store.drop_table("a")
        store.sync()  # publish, then reclaim a's file
        assert len(list(seg_dir.glob("*.seg"))) == 1


class TestStorageFactories:
    def test_scopes_are_isolated(self, tmp_path):
        for factory in (MemoryStorage(), MmapStorage(tmp_path / "db")):
            main = BlockStore(backend=factory.open(""))
            shard = BlockStore(backend=factory.open("t__s0"))
            main.store_column("t", "v", DataType.INT64, np.arange(4))
            assert not shard.has_column("t", "v")
            factory.discard("t__s0")

    def test_discard_deletes_real_files(self, tmp_path):
        factory = MmapStorage(tmp_path / "db")
        store = BlockStore(backend=factory.open("t__s0"))
        store.store_column("t__s0", "v", DataType.INT64, np.arange(4))
        store.sync()
        assert "t__s0" in factory.scopes()
        factory.discard("t__s0")
        assert "t__s0" not in factory.scopes()
        assert not (tmp_path / "db" / "shards" / "t__s0").exists()

    def test_byte_identical_blobs_across_backends(self, tmp_path):
        """The mmap backend stores exactly the bytes the memory backend
        does — compression-dependent I/O volumes stay comparable."""
        mem = make_store(MemoryBackend())
        mm = make_store(MmapFileBackend(tmp_path / "store"))
        data = np.arange(100) * 3
        mem.store_column("t", "v", DataType.INT64, data)
        mm.store_column("t", "v", DataType.INT64, data)
        for b in range(mem.column_blocks("t", "v")):
            assert mem.backend.get_block("t", "v", b) == \
                bytes(mm.backend.get_block("t", "v", b))
