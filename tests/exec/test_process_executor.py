"""Process-pool execution: dispatch, crash isolation, lifecycle.

Every test builds its own mmap-backed database so the suite runs
identically under any ``REPRO_STORAGE_BACKEND`` / ``REPRO_EXECUTOR``
matrix cell. The oracle for byte-identity is always a thread-mode
database over the same rows — the contract is that the executor is
invisible in results, only in wall-clock.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import Database, DataType, Schema
from repro.exec import ExecutorRouter, StaleImage

from .test_process_property import block_signature

SCHEMA = Schema.build(
    ("k", DataType.INT64), ("v", DataType.INT64), ("s", DataType.STRING),
    sort_key=("k",),
)
N_ROWS = 40_000  # 4 shards x 10k rows, comfortably above MIN_REMOTE_ROWS


def seed_arrays(n=N_ROWS):
    return {
        "k": np.arange(n, dtype=np.int64),
        "v": np.arange(n, dtype=np.int64) * 3,
        "s": np.array([f"s{i % 97}" for i in range(n)], dtype=object),
    }


def make_db(tmp_path, executor, workers=2, n=N_ROWS, name="t", shards=4):
    db = Database(storage="mmap", storage_path=str(tmp_path / executor),
                  executor=executor, workers=workers)
    db.create_sharded_table_from_arrays(name, SCHEMA, seed_arrays(n),
                                        shards=shards)
    return db


def assert_identical(rel, oracle_rel):
    assert rel.num_rows == oracle_rel.num_rows
    for c in SCHEMA.column_names:
        a, b = rel[c], oracle_rel[c]
        if a.dtype == object:
            assert a.tolist() == b.tolist(), c
        else:
            assert a.tobytes() == b.tobytes(), c


def dirty_ops(block_rows):
    """Deltas that give merged blocks of every size: scattered deletes
    and modifies, delete+reinsert chains, a fully deleted stored block
    (shard 1's second), and insert runs longer than two stored blocks —
    leading shard 0 and trailing shard 3."""
    shard = N_ROWS // 4
    run = 2 * block_rows + 904
    gone = range(shard + block_rows, shard + 2 * block_rows)
    ops = [("ins", (-run + i, i, f"lead{i}")) for i in range(run)]
    ops += [("del", (k,)) for k in gone]
    for k in range(3, N_ROWS, 211):
        if k in gone:
            continue
        if k % 3 == 2:
            ops.append(("mod", (k,), "v", -k))
        else:
            ops.append(("del", (k,)))
            if k % 3 == 1:
                ops.append(("ins", (k, -k, f"re{k}")))
    ops += [("ins", (N_ROWS + i, i, f"tail{i}")) for i in range(run)]
    return ops


def dirty_if(db, table):
    """Leave ``t`` as it is ("clean") or apply :func:`dirty_ops`."""
    if table == "dirty":
        db.apply_batch("t", dirty_ops(db.store.block_rows))


@pytest.fixture
def oracle(tmp_path):
    db = make_db(tmp_path, "thread")
    yield db
    db.close()


class TestRemoteDispatch:
    def test_remote_scan_byte_identical(self, tmp_path, oracle):
        db = make_db(tmp_path, "process")
        try:
            rel = db.query("t")
            assert db.exec_router.remote_jobs >= 4  # one per shard
            assert_identical(rel, oracle.query("t"))
            # Workers exist and are live children.
            assert len(db.exec_router.worker_pids()) >= 1
        finally:
            db.close()

    def test_remote_scan_with_deltas_and_pin(self, tmp_path, oracle):
        db = make_db(tmp_path, "process")
        try:
            ops = [("mod", (i,), "v", -i) for i in range(0, N_ROWS, 997)]
            ops += [("del", (i,)) for i in range(1, N_ROWS, 1999)]
            db.apply_batch("t", ops)
            oracle.apply_batch("t", ops)
            pin = db.pin_snapshot()
            more = [("mod", (i,), "s", "later") for i in range(2, 2000, 7)]
            db.apply_batch("t", more)
            before = db.exec_router.remote_jobs
            pinned_rel = db.query("t", pin=pin)
            assert db.exec_router.remote_jobs > before
            assert_identical(pinned_rel, oracle.query("t"))
            pin.release()
            oracle.apply_batch("t", more)
            assert_identical(db.query("t"), oracle.query("t"))
        finally:
            db.close()

    def test_service_runs_jobs_remotely(self, tmp_path, oracle):
        db = make_db(tmp_path, "process")
        try:
            with db.serve(workers=2) as svc:
                before = db.exec_router.remote_jobs
                cur = svc.submit_query("t")
                rel = cur.to_relation()
                assert db.exec_router.remote_jobs > before
                assert_identical(rel, oracle.query("t"))
        finally:
            db.close()

    def test_env_var_selects_process_mode(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        db = Database(storage="mmap", storage_path=str(tmp_path / "env"))
        try:
            assert db.exec_router.mode == "process"
        finally:
            db.close()
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        db = Database(storage="mmap", storage_path=str(tmp_path / "env2"))
        try:
            assert db.exec_router.mode == "thread"
        finally:
            db.close()


class TestEligibility:
    def test_memory_storage_degrades_to_threads(self):
        # storage= explicit: under REPRO_STORAGE_BACKEND=mmap the default
        # is file-backed, which would NOT degrade.
        db = Database(storage="memory", executor="process")
        try:
            assert db.exec_router.mode == "thread"
            db.create_sharded_table_from_arrays("t", SCHEMA,
                                                seed_arrays(8000), shards=2)
            assert db.query("t").num_rows == 8000
            assert db.exec_router.remote_jobs == 0
        finally:
            db.close()

    def test_small_tables_stay_local(self, tmp_path):
        db = make_db(tmp_path, "process", n=1000, shards=2)
        try:
            rel = db.query("t")
            assert rel.num_rows == 1000
            assert db.exec_router.remote_jobs == 0
            assert db.exec_router.local_jobs >= 2
            assert db.exec_router.worker_pids() == []  # nothing spawned
        finally:
            db.close()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ExecutorRouter("fibers")

    def test_stale_image_falls_back_to_local(self, tmp_path, oracle):
        """A payload whose image LSN the published catalog does not carry
        must fail closed: the worker reports stale, the router reruns the
        job locally, and the result is still exact."""
        db = make_db(tmp_path, "process")
        try:
            pin = db.pin_snapshot()
            shard = db.sharded("t").shard_names[0]
            pt = pin.table(shard)
            router = db.exec_router
            payload = router.payload_for(
                pt.stable, pt.layers, tuple(SCHEMA.column_names),
                0, pt.stable.num_rows,
            )
            assert payload is not None
            payload["image_lsn"] += 1_000_000  # never published
            blocks = list(router.stream_blocks(payload, lambda: iter(())))
            assert blocks == []  # remote refused; empty local stand-in ran
            assert router.stale_fallbacks == 1
            assert router.remote_jobs == 0
            pin.release()
            # The database as a whole still answers correctly.
            assert_identical(db.query("t"), oracle.query("t"))
        finally:
            db.close()


class TestCrashIsolation:
    def _kill_one_worker(self, db, killed):
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            pids = db.exec_router.worker_pids()
            if pids:
                os.kill(pids[0], signal.SIGKILL)
                killed.append(pids[0])
                return
            time.sleep(0.002)

    @pytest.mark.parametrize("table", ["clean", "dirty"])
    def test_kill_worker_mid_scan_redispatches(self, tmp_path, oracle,
                                               table):
        db = make_db(tmp_path, "process")
        dirty_if(db, table)
        dirty_if(oracle, table)
        try:
            db.exec_router.block_delay_s = 0.01  # widen the kill window
            killed = []
            killer = threading.Thread(
                target=self._kill_one_worker, args=(db, killed))
            killer.start()
            rel = db.query("t")
            killer.join()
            db.exec_router.block_delay_s = 0.0
            assert killed, "no worker appeared to kill"
            assert db.exec_router.redispatches >= 1
            assert_identical(rel, oracle.query("t"))
            # The database keeps serving — still remotely.
            before = db.exec_router.remote_jobs
            assert_identical(db.query("t"), oracle.query("t"))
            assert db.exec_router.remote_jobs > before
            assert killed[0] not in db.exec_router.worker_pids()
        finally:
            db.close()

    @pytest.mark.parametrize("table", ["clean", "dirty"])
    def test_exhausted_redispatch_falls_back_local(self, tmp_path, oracle,
                                                   table):
        """With a redispatch budget of zero, a single death routes the
        in-flight job to the thread fallback, continuing exactly where
        the dead worker stopped."""
        db = make_db(tmp_path, "process")
        dirty_if(db, table)
        dirty_if(oracle, table)
        try:
            db.exec_router.max_redispatch = 0
            db.exec_router.block_delay_s = 0.01
            killed = []
            killer = threading.Thread(
                target=self._kill_one_worker, args=(db, killed))
            killer.start()
            rel = db.query("t")
            killer.join()
            db.exec_router.block_delay_s = 0.0
            assert killed
            assert db.exec_router.redispatches >= 1
            assert db.exec_router.local_jobs >= 1
            assert_identical(rel, oracle.query("t"))
        finally:
            db.close()

    def test_redispatch_resumes_block_for_block(self, tmp_path):
        """Kill the worker after each dirty shard job's first block: the
        replacement skips that block and the stream continues with the
        same cuts the local pipeline makes — merged blocks of every
        size, a fully deleted stored block, insert runs longer than two
        stored blocks. Key-bounded jobs (point, range, ``where=`` on the
        sort key) ship their bounds, and the replacement narrows its
        window as the local pipeline does; a job of at most one block
        loses its worker before it starts."""
        from repro.engine import expr as ex
        from repro.service.plan import plan_scan

        db = make_db(tmp_path, "process", workers=1)
        block_rows = db.store.block_rows
        db.apply_batch("t", dirty_ops(block_rows))
        shard = N_ROWS // 4
        jobs = [
            {},
            {"low": (214,), "high": (214,)},  # a deleted, reinserted key
            {"low": (shard + 100,), "high": (shard + 3 * block_rows,)},
            {"where": ex.between("k", 2 * shard - 500, 2 * shard + 5000)},
        ]
        router = db.exec_router
        try:
            router.block_delay_s = 0.05  # the worker sleeps between blocks
            sizes = []
            with db.pin_snapshot() as pin:
                for kwargs in jobs:
                    for spec in plan_scan(pin, "t", **kwargs).parts:
                        want = block_signature(spec.pushed_stream())
                        if not kwargs:
                            sizes += [size for _, size, _ in want]
                        payload = router.payload_for(
                            spec.pinned.stable, spec.pinned.layers,
                            spec.scan_cols, spec.sid_lo, spec.sid_hi,
                            low=spec.low, high=spec.high,
                            push=spec.push_payload())
                        assert payload is not None
                        stream = router.stream_blocks(payload,
                                                      spec.pushed_stream)
                        before = router.redispatches
                        head = [next(stream)] if len(want) > 1 else []
                        for pid in router.worker_pids():
                            os.kill(pid, signal.SIGKILL)
                        got = block_signature([*head, *stream])
                        assert router.redispatches > before, kwargs
                        assert got == want, kwargs
            assert block_rows in sizes
            assert max(sizes) < 2 * block_rows
            assert len(set(sizes)) > 4
        finally:
            db.close()


class TestLifecycle:
    def test_close_reaps_workers(self, tmp_path):
        db = make_db(tmp_path, "process")
        db.query("t")
        pids = db.exec_router.worker_pids()
        assert pids
        db.close()
        for pid in pids:
            # close() joins each worker; a joined child is fully reaped,
            # so signalling it must fail (no zombies, no orphans).
            with pytest.raises((ProcessLookupError, OSError)):
                os.kill(pid, 0)
        assert db.exec_router.worker_pids() == []

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_close_idempotent(self, tmp_path, executor):
        db = make_db(tmp_path, executor, n=4000, shards=2)
        db.query("t")
        db.close()
        db.close()
        db.close()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_context_manager_reaps(self, tmp_path, executor):
        with make_db(tmp_path, executor) as db:
            db.query("t")
            pids = db.exec_router.worker_pids()
        for pid in pids:
            with pytest.raises((ProcessLookupError, OSError)):
                os.kill(pid, 0)

    def test_queries_after_close_still_answer(self, tmp_path, oracle):
        """Parity with thread mode: a closed database still serves reads
        from in-memory state (pins over it included) — the router just
        stops offering remote execution."""
        db = make_db(tmp_path, "process")
        rel_before = db.query("t")
        db.close()
        assert db.exec_router.fanout_executor() is None
        rel_after = db.query("t")
        assert_identical(rel_after, oracle.query("t"))
        assert_identical(rel_before, rel_after)
