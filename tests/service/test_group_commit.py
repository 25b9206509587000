"""Multi-writer group commit through the service: correctness under
concurrency, acknowledgement-implies-durable, and the PR's regression
fixes (lease double release, closed-service stats)."""

import threading
import time
from concurrent.futures import wait
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, DataType, Schema
from repro.service import ServiceClosed
from repro.txn import WriteAheadLog, group_commit

SCHEMA = Schema.build(
    ("k", DataType.INT64), ("v", DataType.INT64), sort_key=("k",),
)

N_ROWS = 200


def make_db(storage_backend, root=None, **kwargs):
    if storage_backend.startswith("mmap"):
        kwargs.setdefault("storage_path", root)
        db = Database(compressed=False, storage="mmap", **kwargs)
    else:
        db = Database(compressed=False, storage="memory", **kwargs)
    db.create_sharded_table(
        "t", SCHEMA, [(i, 0) for i in range(N_ROWS)], shards=4)
    return db


def image(db):
    rel = db.query("t")
    return list(zip(rel["k"].tolist(), rel["v"].tolist()))


def writer_ops(writer: int, n: int):
    """Disjoint keys per writer, one op per key: the final image is
    independent of execution order, so a concurrent run must equal the
    serial oracle exactly (n <= 20)."""
    base = (writer + 1) * 10_000
    ops = [("ins", (base + i, writer)) for i in range(n)]
    ops += [("mod", (writer * 20 + i,), "v", writer * 100 + i)
            for i in range(n)]
    return ops


class TestConcurrentWritersMatchSerialOracle:
    @pytest.mark.parametrize("writers", [2, 8])
    def test_final_state_matches_serial(self, storage_backend, tmp_path,
                                        writers):
        serial = make_db(storage_backend, tmp_path / "serial")
        for w in range(writers):
            for op in writer_ops(w, 12):
                serial.apply_batch("t", [op])
        oracle = image(serial)
        serial.close()

        db = make_db(storage_backend, tmp_path / "conc")
        with db.serve(workers=writers) as svc:
            futures = [
                svc.submit_update("t", op)
                for w in range(writers)
                for op in writer_ops(w, 12)
            ]
            done, not_done = wait(futures, timeout=120)
            assert not not_done
            for f in done:
                f.result()
        assert sorted(image(db)) == sorted(oracle)
        db.close()

    def test_concurrent_batches_coalesce(self, tmp_path):
        # Deterministic coalescing without a linger: the first flush holds
        # the flush lock at its pre-fsync boundary until all four records
        # are staged, so whatever it did not take flushes as one group.
        db = make_db("mmap", tmp_path / "db")
        group = db.manager.wal.group
        all_staged = threading.Event()
        stage = group.stage

        def counting_stage(line):
            ticket = stage(line)
            if group.stats.staged >= 4:
                all_staged.set()
            return ticket

        def hold_first_flush(name, size):
            if name == "group-pre-fsync" and group.stats.flushes == 0:
                assert all_staged.wait(timeout=60)

        group.stage = counting_stage
        group.crash_hook = hold_first_flush
        with db.serve(workers=4) as svc:
            futures = [
                svc.submit_batch("t", writer_ops(w, 6)) for w in range(4)
            ]
            for f in futures:
                f.result(timeout=120)
            stats = svc.stats
            assert stats.group_commits == 4
            assert stats.group_commits_coalesced >= 2
            assert group.stats.max_group >= 2
        db.close()


class TestAcknowledgementImpliesDurable:
    def test_acked_commits_survive_load(self, tmp_path):
        db = make_db("mmap", tmp_path / "db")
        with db.serve(workers=4) as svc:
            futures = [svc.submit_batch("t", writer_ops(w, 4))
                       for w in range(4)]
            for f in futures:
                f.result(timeout=120)
            # Every acknowledged commit must already be on disk, without
            # any close/flush help.
            loaded = WriteAheadLog.load(db.manager.wal.path)
            assert len(loaded.records) >= 4
            assert {r.lsn for r in loaded.records} \
                == {r.lsn for r in db.manager.wal.records}
        db.close()

    def test_reopen_after_concurrent_writes(self, tmp_path):
        # Kill-at-boundary coverage lives in scripts/crash_matrix.py; this
        # covers the plain close-and-recover path under grouped commits.
        root = tmp_path / "db"
        db = make_db("mmap", root)
        with db.serve(workers=4) as svc:
            futures = [
                svc.submit_update("t", op)
                for w in range(4) for op in writer_ops(w, 8)
            ]
            for f in futures:
                f.result(timeout=120)
        oracle = image(db)
        db.close()
        again = Database.recover(root)
        assert image(again) == oracle
        again.close()


class TestLeaseDoubleRelease:
    def test_cursor_closed_after_service_close_releases_pin_once(self):
        db = make_db("memory")
        svc = db.serve(workers=2)
        cursor = svc.submit_query("t")  # never drained
        manager = db.manager
        releases = []
        original = manager.release_pin

        def counting_release(pin):
            releases.append(pin.pin_id)
            original(pin)

        manager.release_pin = counting_release
        svc.close()          # force-releases the leftover lease's pin
        cursor.close()       # late cursor close must NOT release again
        assert len(releases) == 1
        assert manager.pin_count() == 0
        db.close()

    def test_normal_cursor_lifecycle_still_releases(self):
        db = make_db("memory")
        with db.serve(workers=2) as svc:
            cursor = svc.submit_query("t")
            cursor.to_relation()
            assert db.manager.pin_count() == 0
        db.close()


class TestClosedServiceStats:
    def test_rejected_submissions_do_not_count(self):
        db = make_db("memory")
        svc = db.serve(workers=1)
        svc.submit_batch("t", [("mod", (0,), "v", 1)]).result(timeout=60)
        svc.submit_update("t", ("mod", (1,), "v", 1)).result(timeout=60)
        svc.close()
        assert svc.stats.batches == 1
        assert svc.stats.updates == 1
        with pytest.raises(ServiceClosed):
            svc.submit_batch("t", [("mod", (0,), "v", 2)])
        with pytest.raises(ServiceClosed):
            svc.submit_update("t", ("mod", (1,), "v", 2))
        assert svc.stats.batches == 1  # rejections not counted
        assert svc.stats.updates == 1
        db.close()


class TestPinAgeSurfacing:
    def test_pin_deferral_counted_with_age(self):
        db = Database(compressed=False, checkpoint_policy="updates:1")
        db.create_table("t", SCHEMA, [(i, 0) for i in range(50)])
        pin = db.pin_snapshot()
        time.sleep(0.02)
        db.apply_batch("t", [("mod", (0,), "v", 1),
                             ("mod", (1,), "v", 2)])  # triggers a decision
        stats = db.scheduler.stats
        assert stats.deferrals >= 1
        assert stats.oldest_pin_age_s >= 0.02
        assert db.metrics()["sources"]["scheduler"]["oldest_pin_age_s"] >= 0.02
        pin.release()
        db.close()

    def test_pin_deferral_drains_after_release(self):
        db = Database(compressed=False, checkpoint_policy="updates:1")
        db.create_table("t", SCHEMA, [(i, 0) for i in range(50)])
        pin = db.pin_snapshot()
        db.apply_batch("t", [("mod", (0,), "v", 1),
                             ("mod", (1,), "v", 2)])
        assert db.scheduler.stats.deferrals >= 1
        assert db.scheduler.stats.oldest_pin_age_s >= 0.0
        assert db.scheduler.stats.checkpoints == 0
        pin.release()
        db.query("t", columns=["v"])  # a latest-state read drains it
        assert db.scheduler.stats.checkpoints == 1
        assert not db.scheduler.pending()
        db.close()


group_sizes = st.lists(st.integers(1, 4), min_size=1, max_size=5)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(sizes=group_sizes, checkpoint_after=st.integers(0, 4),
       max_group=st.integers(1, 8))
def test_group_sizes_with_midstream_checkpoints(tmp_path, sizes,
                                                checkpoint_after,
                                                max_group):
    """Any mix of concurrent group sizes and a mid-stream checkpoint
    (whose WAL rebase drains staged tickets) must leave the database
    equal to the serial application of the same ops and recoverable to
    exactly that state."""
    import shutil

    root = tmp_path / f"gdb-{abs(hash((tuple(sizes), checkpoint_after, max_group))) % (1 << 30)}"
    if root.exists():  # hypothesis reuses tmp_path across examples
        shutil.rmtree(root)
    db = Database(compressed=False, storage="mmap", storage_path=root)
    db.create_table("t", SCHEMA, [(i, 0) for i in range(40)])
    expected = {i: 0 for i in range(40)}
    with mock.patch.object(group_commit, "MAX_GROUP", max_group), \
            db.serve(workers=4) as svc:
        for round_no, size in enumerate(sizes):
            futures = []
            for w in range(size):
                key = 1000 + round_no * 10 + w
                expected[key] = w
                futures.append(
                    svc.submit_batch("t", [("ins", (key, w))]))
            for f in futures:
                f.result(timeout=120)
            if round_no == checkpoint_after:
                db.checkpoint("t")  # rebases the WAL mid-stream
    assert dict(zip(db.query("t")["k"].tolist(),
                    db.query("t")["v"].tolist())) == expected
    db.close()
    again = Database.recover(root)
    assert dict(zip(again.query("t")["k"].tolist(),
                    again.query("t")["v"].tolist())) == expected
    again.close()
