"""Cross-process trace stitching and worker IO merging.

The acceptance contract: a traced query on a process-executor database
produces ONE span tree that includes the worker-process scan spans
(different pid), and ``Database.metrics()`` reports worker-side IO
counters matching a thread-executor oracle — the executor is invisible
in the numbers, not just in the rows.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import Database, DataType, Schema
from repro.core import merge_scan_layers

SCHEMA = Schema.build(("k", DataType.INT64), ("v", DataType.INT64),
                      sort_key=("k",))
N_ROWS = 40_000  # 4 shards x 10k rows, above the remote-dispatch floor


def seed_arrays(n=N_ROWS):
    return {
        "k": np.arange(n, dtype=np.int64),
        "v": np.arange(n, dtype=np.int64) * 3,
    }


def make_db(tmp_path, executor, **kwargs):
    db = Database(storage="mmap", storage_path=str(tmp_path / executor),
                  executor=executor, workers=2, **kwargs)
    db.create_sharded_table_from_arrays("t", SCHEMA, seed_arrays(),
                                        shards=4)
    return db


class TestStitchedTraces:
    def test_single_tree_includes_worker_spans(self, tmp_path):
        db = make_db(tmp_path, "process", trace=True)
        try:
            rel = db.query("t")
            assert rel.num_rows == N_ROWS
            assert db.exec_router.remote_jobs == 4
            sink = db.obs.sink
            root = next(s for s in sink.spans() if s.name == "query")
            spans = sink.spans(root.trace_id)
            worker_spans = [s for s in spans if s.name == "worker.scan"]
            assert len(worker_spans) == 4
            for span in worker_spans:
                # Minted inside the worker process, stitched parent-side.
                assert span.pid != os.getpid()
                assert span.trace_id == root.trace_id
                assert span.duration_s is not None
                assert span.attrs["rows"] == 10_000
            tree = sink.render(root.trace_id)
            assert tree.count("worker.scan") == 4
        finally:
            db.close()

    def test_service_tree_spans_three_levels(self, tmp_path):
        db = make_db(tmp_path, "process", trace=True)
        try:
            # Deletes shrink stored blocks; a trailing-insert run longer
            # than two stored blocks lands past the last shard's image.
            db.apply_batch(
                "t", [("del", (k,)) for k in range(5, N_ROWS, 301)]
                + [("ins", (N_ROWS + i, i)) for i in range(9000)])
            with db.serve() as svc:
                cursor = svc.submit_query("t")
                cursor.to_relation()
                spans = db.obs.sink.spans(cursor.profile.trace_id)
                by_id = {s.span_id: s for s in spans}
                workers = [s for s in spans if s.name == "worker.scan"]
                assert workers, "no worker spans stitched"
                for w in workers:
                    scan = by_id[w.parent_id]
                    assert scan.name == "shard.scan"
                    root = by_id[scan.parent_id]
                    assert root.name == "query"
                # One block per merged stored block of each shard; one
                # of two stored blocks or more is cut into pieces of
                # one, the last taking the remainder.
                block_rows = db.store.block_rows
                merged = []
                for name in db.sharded("t").shard_names:
                    state = db.manager.state_of(name)
                    merged += [len(arrays["k"]) for _, arrays in
                               merge_scan_layers(
                                   state.stable,
                                   [state.read_pdt, *state.write_pdt.layers],
                                   ["k"])]
                assert max(merged) >= 2 * block_rows
                assert cursor.profile.remote_blocks == sum(
                    max(1, rows // block_rows) for rows in merged)
                assert cursor.profile.local_blocks == 0
        finally:
            db.close()

    def test_worker_io_matches_thread_oracle(self, tmp_path):
        proc = make_db(tmp_path, "process")
        oracle = make_db(tmp_path, "thread")
        try:
            proc.query("t")
            oracle.query("t")
            proc_io = proc.metrics()["sources"]["io"]
            oracle_io = oracle.metrics()["sources"]["io"]
            assert proc.exec_router.worker_io_merges == 4
            # The worker processes' reads merged into the parent's
            # db.io: process runs no longer under-report.
            assert proc_io["bytes_read"] == oracle_io["bytes_read"]
            assert proc_io["blocks_read"] == oracle_io["blocks_read"]
            assert proc_io["bytes_by_column"] == oracle_io["bytes_by_column"]
        finally:
            proc.close()
            oracle.close()

    def test_repeat_queries_do_not_double_merge(self, tmp_path):
        """Each completed attempt merges exactly once. A shard job CAN
        migrate to the other worker on a later query and cold-read its
        blocks there (private per-process buffer pools), so the honest
        upper bound over repeats is ``workers x cold_bytes`` — but a
        double-merge would breach it."""
        proc = make_db(tmp_path, "process")
        try:
            proc.query("t")
            cold = proc.metrics()["sources"]["io"]["bytes_read"]
            assert cold > 0
            for _ in range(4):
                proc.query("t")
            total = proc.metrics()["sources"]["io"]["bytes_read"]
            assert proc.exec_router.worker_io_merges == 20  # 5 x 4 jobs
            assert total <= 2 * cold  # workers=2; merges track real reads
        finally:
            proc.close()


class TestCrashStitching:
    def _kill_one_worker(self, db, killed):
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            pids = db.exec_router.worker_pids()
            if pids:
                os.kill(pids[0], signal.SIGKILL)
                killed.append(pids[0])
                return
            time.sleep(0.002)

    def test_sigkilled_worker_leaves_orphan_span(self, tmp_path):
        """A SIGKILLed worker cannot ship its spans; the router records
        an orphan span in the tree — visible, not silently lost — and
        the redispatched attempt's spans still stitch in."""
        db = make_db(tmp_path, "process", trace=True)
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
            assert rel.num_rows == N_ROWS
            assert db.exec_router.redispatches >= 1
            sink = db.obs.sink
            root = next(s for s in sink.spans() if s.name == "query")
            spans = sink.spans(root.trace_id)
            orphans = [s for s in spans if s.status == "orphan"]
            assert orphans, "dead worker left no orphan span"
            for orphan in orphans:
                assert orphan.name == "worker.scan"
                assert orphan.duration_s is None
            # Completed attempts still shipped their spans.
            completed = [s for s in spans
                         if s.name == "worker.scan" and s.status == "ok"]
            assert completed
        finally:
            db.close()

    def test_crashed_attempt_io_not_double_counted(self, tmp_path):
        """IO ships only with a completed attempt's final frame: a killed
        worker contributes nothing, the redispatched scan contributes
        once — totals still match the oracle exactly."""
        proc = make_db(tmp_path, "process")
        oracle = make_db(tmp_path, "thread")
        try:
            proc.exec_router.block_delay_s = 0.01
            killed = []
            killer = threading.Thread(
                target=self._kill_one_worker, args=(proc, killed))
            killer.start()
            proc.query("t")
            killer.join()
            proc.exec_router.block_delay_s = 0.0
            assert killed and proc.exec_router.redispatches >= 1
            oracle.query("t")
            proc_io = proc.metrics()["sources"]["io"]
            oracle_io = oracle.metrics()["sources"]["io"]
            assert proc_io["bytes_read"] == oracle_io["bytes_read"]
        finally:
            proc.close()
            oracle.close()


class TestMetricsParityWithOracle:
    def test_latency_histograms_present_both_modes(self, tmp_path):
        for mode in ("thread", "process"):
            db = make_db(tmp_path, mode, trace=True)
            try:
                for _ in range(3):
                    db.query("t")
                hist = db.metrics()["histograms"]["query_seconds"]
                assert hist["count"] == 3, mode
                assert hist["p50"] is not None and hist["p99"] is not None
            finally:
                db.close()
