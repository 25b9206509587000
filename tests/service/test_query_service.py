"""QueryService behavior: cursors, batches, admission, writes, shutdown."""

import asyncio
import random
import threading
import time

import numpy as np
import pytest

from repro import Database, DataType, Schema
from repro.service import ServiceClosed, ServiceSaturated
from repro.service.jobs import ShardFeed


def make_schema():
    return Schema.build(
        ("k", DataType.INT64), ("a", DataType.INT64),
        ("b", DataType.INT64), sort_key=("k",),
    )


def seed_rows(n=1000):
    return [(i * 2, i, i % 7) for i in range(n)]


def rel_values(rel):
    return {
        c: rel[c].tolist() if rel[c].dtype == object else rel[c].tobytes()
        for c in rel.column_names
    }


@pytest.fixture
def db():
    database = Database(compressed=False)
    database.create_sharded_table("t", make_schema(), seed_rows(), shards=4)
    database.create_table("flat", make_schema(), seed_rows(200))
    yield database
    database.close()


@pytest.fixture
def svc(db):
    with db.serve(workers=2) as service:
        yield service


class TestCursorResults:
    def test_full_scan_matches_sync_query(self, db, svc):
        cur = svc.submit_query("t")
        assert rel_values(cur.to_relation()) == rel_values(db.query("t"))
        assert cur.profile.rows == 1000
        assert cur.profile.shards == 4

    def test_range_scan_matches_sync_query_range(self, db, svc):
        cur = svc.submit_range("t", low=(100,), high=(500,), columns=["k", "a"])
        oracle = db.query_range("t", low=(100,), high=(500,),
                                columns=["k", "a"])
        assert rel_values(cur.to_relation()) == rel_values(oracle)

    def test_service_reads_reach_db_io_as_the_cursor_drains(self):
        """Shard pools count straight into ``db.io``: nothing waits for
        the next inline query to fold per-shard counters in."""
        with Database(compressed=False, executor="thread") as db:
            db.create_sharded_table("t", make_schema(), seed_rows(),
                                    shards=4)
            db.make_cold()
            db.io.reset()
            with db.serve(workers=2) as svc:
                svc.submit_query("t").to_relation()
                served = db.io.bytes_read
                assert served > 0
                assert db.metrics()["sources"]["io"]["bytes_read"] == served
            # the same cold scan, inline, reads exactly those bytes
            db.make_cold()
            db.io.reset()
            db.query("t")
            assert db.io.bytes_read == served

    def test_unsharded_table_single_job(self, db, svc):
        cur = svc.submit_query("flat", columns=["k"])
        assert cur.profile.shards == 1
        assert rel_values(cur.to_relation()) \
            == rel_values(db.query("flat", columns=["k"]))

    def test_block_protocol_rids_are_contiguous(self, db, svc):
        cur = svc.submit_query("t", columns=["k"])
        expect_rid = 0
        total = 0
        for rid, arrays in cur:
            assert rid == expect_rid
            n = len(arrays["k"])
            assert n > 0
            expect_rid += n
            total += n
        assert total == 1000
        assert cur.next_block() is None  # exhausted cursors stay exhausted

    def test_range_pruning_skips_cold_shards(self, db, svc):
        # keys 0..1998; shard 3 owns the top quarter
        cur = svc.submit_range("t", low=(0,), high=(100,))
        assert cur.profile.shards == 1
        cur.to_relation()

    def test_streaming_before_later_shards_finish(self, db):
        # One worker: shard jobs run serially, but the first block must
        # arrive while later shards haven't even started.
        with db.serve(workers=1) as svc:
            cur = svc.submit_query("t", columns=["k"])
            first = cur.next_block()
            assert first is not None and first[0] == 0
            cur.close()

    def test_cursor_context_manager_and_close(self, db, svc):
        with svc.submit_query("t") as cur:
            cur.next_block()
        assert cur.next_block() is None
        assert svc.inflight() == 0

    def test_results_are_a_snapshot_not_live(self, db, svc):
        pin = svc.pin()
        cur = svc.submit_query("t", columns=["a"], pin=pin)
        svc.submit_batch("t", [("mod", (0,), "a", 12345)]).result()
        rel = cur.to_relation()
        assert rel["a"][0] == 0  # pinned before the write committed
        live = svc.submit_query("t", columns=["a"]).to_relation()
        assert live["a"][0] == 12345
        pin.release()


class TestSharedScans:
    """Batches of requests over one pin: each request gets its own job
    per shard, and every cursor is exact."""

    def test_submit_many_shares_jobs(self, db, svc):
        pin = svc.pin()
        cursors = svc.submit_many(
            [{"table": "t", "low": (0,), "high": (800,), "columns": ["k"]}
             for _ in range(4)],
            pin=pin,
        )
        oracle = rel_values(db.query_range("t", low=(0,), high=(800,),
                                           columns=["k"]))
        for cur in cursors:
            assert rel_values(cur.to_relation()) == oracle
        pin.release()

    def test_shared_jobs_serve_different_ranges(self, db, svc):
        """Overlapping-but-distinct ranges in one batch: each cursor
        returns exactly its own range."""
        pin = svc.pin()
        ranges = [(0, 400), (100, 500), (200, 600), (50, 450)]
        cursors = svc.submit_many(
            [{"table": "t", "low": (lo,), "high": (hi,)}
             for lo, hi in ranges],
            pin=pin,
        )
        for cur, (lo, hi) in zip(cursors, ranges):
            oracle = db.query_range("t", low=(lo,), high=(hi,))
            assert rel_values(cur.to_relation()) == rel_values(oracle)
        pin.release()

    def test_same_lsn_pins_coalesce_across_submissions(self, db, svc):
        """Separate requests under separate pins read the same version
        while no commit intervenes."""
        db.apply_batch("t", [("mod", (0,), "a", 5)])  # non-empty Write-PDT
        a = svc.submit_range("t", low=(0,), high=(300,), columns=["k"])
        b = svc.submit_range("t", low=(0,), high=(300,), columns=["k"])
        assert rel_values(a.to_relation()) == rel_values(b.to_relation())

    def test_identical_requests_get_one_job_per_request_and_shard(
            self, db, svc):
        cursors = svc.submit_many([{"table": "t"}] * 4)
        assert svc.stats.jobs_scheduled == 16
        oracle = rel_values(db.query_range("t"))
        for cur in cursors:
            assert rel_values(cur.to_relation()) == oracle

    def test_inverted_range_bounds_yield_empty_cursor(self, db, svc):
        cur = svc.submit_range("t", low=(500,), high=(100,))
        assert cur.to_relation().num_rows == 0
        pin = db.pin_snapshot()
        assert db.query_range("t", low=(500,), high=(100,),
                              pin=pin).num_rows == 0
        pin.release()

    def test_no_sharing_across_different_versions(self, db, svc):
        a = svc.submit_query("t", columns=["k"])
        svc.submit_batch("t", [("ins", (1, 0, 0))]).result()
        b = svc.submit_query("t", columns=["k"])
        assert a.to_relation().num_rows == 1000
        assert b.to_relation().num_rows == 1001


class TestAdmissionControl:
    def test_saturation_raises_with_timeout(self, db):
        with db.serve(workers=1, max_inflight=1,
                      admission_timeout=0.05) as svc:
            held = svc.submit_query("t")
            with pytest.raises(ServiceSaturated):
                svc.submit_query("t")
            held.close()
            svc.submit_query("t").close()  # slot freed
            assert svc.admission.rejected == 1

    def test_backpressure_blocks_then_admits(self, db):
        with db.serve(workers=2, max_inflight=1) as svc:
            held = svc.submit_query("t")
            admitted = []

            def second():
                admitted.append(svc.submit_query("t", columns=["k"]))

            thread = threading.Thread(target=second)
            thread.start()
            time.sleep(0.05)
            assert not admitted  # blocked on the single slot
            held.close()
            thread.join(timeout=5)
            assert admitted
            admitted[0].close()

    def test_batch_larger_than_limit_rejected(self, db):
        with db.serve(max_inflight=2) as svc:
            with pytest.raises(ValueError):
                svc.submit_many([{"table": "t"}] * 3)
            assert svc.inflight() == 0

    def test_failed_submission_releases_slots_pins_and_jobs(self, db):
        """A bad request must not leak admission slots, pin leases, or
        half-registered scan jobs."""
        with db.serve(max_inflight=2) as svc:
            for _ in range(4):  # > max_inflight: any leak would wedge this
                with pytest.raises(KeyError):
                    svc.submit_many([{"table": "t"},
                                     {"table": "missing"}])
            assert svc.inflight() == 0
            assert db.manager.pin_count() == 0
            assert not svc._leases  # no lease left holding a pin
            cur = svc.submit_query("t")  # service still fully usable
            assert cur.to_relation().num_rows == 1000

    def test_batch_admission_is_all_or_nothing(self, db):
        """A batch never holds partial slots while waiting (the
        hold-and-wait deadlock two concurrent batches could hit)."""
        with db.serve(max_inflight=4, admission_timeout=0.05) as svc:
            held = svc.submit_many([{"table": "t"}] * 3)
            with pytest.raises(ServiceSaturated):
                svc.submit_many([{"table": "t"}] * 3)
            assert svc.inflight() == 3  # the failed batch kept nothing
            for cur in held:
                cur.close()
            svc.submit_many([{"table": "t"}] * 3)  # admits once freed

    def test_peak_inflight_tracked(self, db, svc):
        cursors = svc.submit_many([{"table": "t"}] * 3)
        assert svc.admission.peak_inflight >= 3
        for cur in cursors:
            cur.close()
        assert svc.inflight() == 0


class TestWrites:
    def test_scalar_updates_and_batches(self, db, svc):
        assert svc.submit_update("t", ("ins", (1, -1, -1))).result() is None
        assert svc.submit_batch("t", [("mod", (0,), "a", 42),
                                      ("del", (2,))]).result() == 2
        rel = svc.submit_query("t").to_relation()
        assert rel.num_rows == 1000  # +1 insert, -1 delete
        assert rel["a"][0] == 42 and rel["a"][1] == -1
        assert svc.stats.updates == 1 and svc.stats.batches == 1

    def test_write_errors_propagate_through_future(self, db, svc):
        with pytest.raises(Exception):
            svc.submit_batch("t", [("del", (99999,))]).result()

    def test_bad_op_kind_rejected(self, db, svc):
        with pytest.raises(ValueError):
            svc.submit_update("t", ("upsert", (1, 2, 3)))

    def test_concurrent_writers_serialize(self, db, svc):
        futures = [
            svc.submit_batch("t", [("mod", (k * 2,), "b", i)])
            for i, k in enumerate(range(20))
        ]
        assert [f.result() for f in futures] == [1] * 20
        assert db.manager.stats.commits >= 20


class TestStreamedEqualsQueryRange:
    """Streamed cursors are byte-identical to ``Database.query_range``:
    under concurrent writers (each cursor against its own pin, re-read
    through the synchronous API at that pin) and at quiescence."""

    N_ROWS = 4000
    HOT_HI = N_ROWS // 2  # keys are 2i: the first quarter of key space

    def make_db(self):
        db = Database(compressed=False)
        db.create_sharded_table(
            "t", make_schema(),
            [(i * 2, i, i % 13) for i in range(self.N_ROWS)], shards=4)
        rng = random.Random(5)
        ops = {}
        while len(ops) < self.N_ROWS // 5:
            key = (rng.randrange(self.HOT_HI // 2) * 2,)
            ops[key] = ("mod", key, "a", rng.randrange(10**6))
        db.apply_batch("t", list(ops.values()))
        return db

    def skewed_scans(self, n):
        step = self.HOT_HI // 32
        return [((lo,), (lo + self.HOT_HI * 3 // 4,))
                for lo in range(0, n * step, step)]

    def test_cursors_match_query_range_under_writers(self):
        with self.make_db() as db, db.serve(workers=4) as svc:
            stop = threading.Event()
            write_errors = []

            def writer(seed):
                rng = random.Random(seed)
                while not stop.is_set():
                    key = (rng.randrange(self.HOT_HI // 2) * 2,)
                    try:
                        svc.submit_batch("t", [
                            ("mod", key, "b", rng.randrange(10**6)),
                        ]).result()
                    except Exception as exc:
                        write_errors.append(exc)
                        return

            writers = [threading.Thread(target=writer, args=(seed,))
                       for seed in (98, 99)]
            for thread in writers:
                thread.start()
            streamed = []
            try:
                for lo, hi in self.skewed_scans(6):
                    pin = svc.pin()
                    rel = svc.submit_range("t", low=lo, high=hi,
                                           pin=pin).to_relation()
                    streamed.append((pin, lo, hi, rel))
            finally:
                stop.set()
                for thread in writers:
                    thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in writers)
            assert not write_errors, write_errors
            for pin, lo, hi, rel in streamed:
                oracle = db.query_range("t", low=lo, high=hi, pin=pin)
                assert rel_values(rel) == rel_values(oracle)
                pin.release()
            lo, hi = (100,), (self.HOT_HI,)
            rel = svc.submit_range("t", low=lo, high=hi).to_relation()
            assert rel_values(rel) \
                == rel_values(db.query_range("t", low=lo, high=hi))


class TestMaintenanceHook:
    def test_deferred_folds_drain_between_requests(self, db):
        with Database(compressed=False,
                      checkpoint_policy="updates:16") as folding:
            folding.create_sharded_table("t", make_schema(), seed_rows(),
                                         shards=2)
            with folding.serve(workers=2) as svc:
                pin = svc.pin()
                cur = svc.submit_query("t", pin=pin)
                svc.submit_batch(
                    "t", [("mod", (k,), "a", 1) for k in range(0, 80, 2)]
                ).result()
                # policy fired mid-request; the pin deferred the fold
                assert folding.scheduler.pending()
                cur.to_relation()
                pin.release()
                deadline = time.time() + 5
                while folding.scheduler.pending() and time.time() < deadline:
                    time.sleep(0.01)
                assert not folding.scheduler.pending()
                assert svc.stats.maintenance_runs > 0


class TestAsyncFacade:
    def test_async_query_and_iteration(self, db, svc):
        async def main():
            cur = await svc.query("t", columns=["k"])
            total = 0
            async for _, arrays in cur:
                total += len(arrays["k"])
            return total

        assert asyncio.run(main()) == 1000

    def test_async_mixed_workload(self, db, svc):
        async def analytics():
            cur = await svc.query_range("t", low=(0,), high=(600,))
            rel = await asyncio.to_thread(cur.to_relation)
            return rel.num_rows

        async def refresh():
            return await svc.apply_batch(
                "t", [("mod", (10,), "a", -5), ("ins", (3, 0, 0))])

        async def main():
            return await asyncio.gather(analytics(), refresh(),
                                        analytics())

        n1, applied, n2 = asyncio.run(main())
        assert applied == 2
        assert n1 in (301, 302) and n2 in (301, 302)  # before/after insert

    def test_async_scalar_update(self, db, svc):
        asyncio.run(svc.update("t", ("mod", (0,), "a", 7)))
        assert db.query("t", sk=(0,)).rows()[0][1] == 7


class TestLifecycle:
    def test_closed_service_rejects_submissions(self, db):
        svc = db.serve()
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit_query("t")
        with pytest.raises(ServiceClosed):
            svc.submit_batch("t", [])
        svc.close()  # idempotent

    def test_database_close_joins_service_workers(self, db):
        svc = db.serve(workers=2)
        cur = svc.submit_query("t")
        db.close()
        assert svc.closed
        assert cur.to_relation().num_rows == 1000  # buffered blocks drain

    def test_early_cursor_close_keeps_pin_until_jobs_finish(self, db):
        """Closing a cursor must not release its pin while the shard jobs
        are still scanning the pinned objects: the job's lease hold keeps
        maintenance deferred until the scan actually stops."""
        from repro.service.jobs import ShardScanJob

        started = threading.Event()
        release = threading.Event()
        original_run = ShardScanJob.run

        def slow_run(self):
            started.set()
            release.wait(timeout=10)
            original_run(self)

        ShardScanJob.run = slow_run
        try:
            with db.serve(workers=1) as svc:
                cur = svc.submit_query("t")
                assert started.wait(timeout=10)  # first job is scanning
                cur.close()  # early close while jobs still run
                assert db.manager.pin_count() == 1, \
                    "pin released while shard jobs were still running"
                release.set()
        finally:
            ShardScanJob.run = original_run
            release.set()
        assert db.manager.pin_count() == 0  # drained once jobs finished

    def test_close_releases_unfinished_pin_leases(self, db):
        svc = db.serve()
        svc.submit_query("t")  # cursor never consumed
        svc.close()
        assert db.manager.pin_count() == 0

    def test_job_failure_propagates_to_consumer(self):
        feed = ShardFeed()
        feed.put((0, {"k": np.arange(3)}))
        feed.fail(RuntimeError("shard scan died"))
        blocks = feed.blocks()
        assert next(blocks)[0] == 0
        with pytest.raises(RuntimeError, match="shard scan died"):
            next(blocks)
