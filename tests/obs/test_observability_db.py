"""Database-level observability: metrics(), spans, profiles, slow log."""

import json
import logging

import pytest

from repro import Database, DataType, Schema

SCHEMA = Schema.build(("k", DataType.INT64), ("v", DataType.INT64),
                      sort_key=("k",))


def make_db(**kwargs):
    db = Database(**kwargs)
    db.create_sharded_table("t", SCHEMA,
                            [(i, i * 2) for i in range(8_000)], shards=4)
    return db


class TestMetricsSnapshot:
    def test_one_coherent_snapshot(self):
        with make_db() as db:
            db.insert("t", (8_001, 1))
            db.query("t")
            snap = db.metrics()
            json.dumps(snap)  # JSON-able end to end
            for source in ("io", "txn", "scheduler", "group_commit",
                           "exec", "service"):
                assert source in snap["sources"], source
            assert snap["histograms"]["query_seconds"]["count"] == 1
            assert snap["histograms"]["commit_seconds"]["count"] >= 1
            assert snap["sources"]["io"]["bytes_read"] > 0
            assert snap["sources"]["txn"]["commits"] >= 1

    def test_query_latency_percentiles(self):
        with make_db() as db:
            for _ in range(20):
                db.query("t", columns=["k"])
            hist = db.metrics()["histograms"]["query_seconds"]
            assert hist["count"] == 20
            assert hist["p50"] is not None
            assert hist["p99"] is not None
            assert hist["p50"] <= hist["p99"]

    def test_delegating_entry_points_observe_once(self):
        with make_db() as db:
            # query(sk=...) delegates to query_point (which can delegate
            # to query_range): exactly one observation per user call.
            db.query("t", sk=(42,))
            db.query_range("t", low=(10,), high=(20,))
            db.query_point("t", (7,))
            hist = db.metrics()["histograms"]["query_seconds"]
            assert hist["count"] == 3

    def test_commit_stage_histograms(self):
        with make_db() as db:
            for i in range(5):
                db.insert("t", (9_000 + i, i))
            snap = db.metrics()
            for stage in ("serialize", "propagate", "wal_append",
                          "durability_wait"):
                hist = snap["histograms"][f"commit_{stage}_seconds"]
                assert hist["count"] == 5, stage
            # Stages nest inside the end-to-end commit time.
            total = snap["histograms"]["commit_seconds"]["sum"]
            stages = sum(
                snap["histograms"][f"commit_{s}_seconds"]["sum"]
                for s in ("serialize", "propagate", "wal_append",
                          "durability_wait"))
            assert stages <= total


class TestStatsDictConsistency:
    """Satellite: every stats surface answers a JSON-able as_dict()
    whose keys match its repr, with no leaked private fields."""

    def test_all_six_surfaces(self):
        with make_db() as db:
            with db.serve() as svc:
                svc.submit_query("t").to_relation()
                surfaces = {
                    "txn": db.manager.stats,
                    "scheduler": db.scheduler.stats,
                    "service": svc.stats,
                }
                group = db.manager.wal.group
                if group is not None:
                    surfaces["group_commit"] = group.stats
                for name, stats in surfaces.items():
                    d = stats.as_dict()
                    json.dumps(d)
                    assert not any(k.startswith("_") for k in d), name
                    text = repr(stats)
                    for key in d:
                        assert key in text, (name, key)
                io_dict = db.io.as_dict()
                json.dumps(io_dict)
                assert set(io_dict) == {"bytes_read", "blocks_read",
                                        "bytes_by_column"}

    def test_request_stats_derived_fields(self):
        with make_db() as db, db.serve() as svc:
            cursor = svc.submit_query("t")
            cursor.to_relation()
            d = cursor.profile.as_dict()
            assert 0 < d["time_to_first_block_s"] <= d["total_s"]
            assert d["rows"] == 8_000
            assert d["blocks"] > 0


class TestTracing:
    def test_inline_query_trace_tree(self):
        with make_db(trace=True) as db:
            db.query("t")
            sink = db.obs.sink
            tids = sink.trace_ids()
            roots = [s for s in sink.spans() if s.name == "query"]
            assert len(roots) == 1
            assert roots[0].attrs["rows"] == 8_000
            assert roots[0].trace_id in tids

    def test_write_path_trace(self, tmp_path):
        with Database(storage="mmap", storage_path=str(tmp_path / "d"),
                      trace=True) as db:
            db.create_table("t", SCHEMA, [(i, i) for i in range(100)])
            db.insert("t", (101, 1))
            names = {s.name for s in db.obs.sink.spans()}
            assert "txn.commit" in names
            assert "wal.group_flush" in names
            commit = next(s for s in db.obs.sink.spans()
                          if s.name == "txn.commit")
            assert "serialize_ms" in commit.attrs
            assert "wal_append_ms" in commit.attrs

    def test_service_query_spans(self):
        with make_db(trace=True) as db, db.serve() as svc:
            cursor = svc.submit_query("t")
            cursor.to_relation()
            tid = cursor.profile.trace_id
            assert tid is not None
            spans = db.obs.sink.spans(tid)
            names = [s.name for s in spans]
            assert "query" in names
            assert names.count("shard.scan") == 4
            root = next(s for s in spans if s.name == "query")
            for scan in (s for s in spans if s.name == "shard.scan"):
                assert scan.parent_id == root.span_id

    def test_trace_capacity_int(self):
        with make_db(trace=8) as db:
            assert db.obs.sink.capacity == 8

    def test_trace_bad_value(self):
        with pytest.raises(TypeError):
            Database(trace="yes")

    def test_tracing_off_records_nothing(self):
        with make_db() as db:
            db.query("t")
            assert db.obs.sink is None


class TestProfilesAndSlowLog:
    def test_cursor_profile_per_shard(self):
        with make_db() as db, db.serve() as svc:
            cursor = svc.submit_query("t")
            cursor.to_relation()
            prof = cursor.profile
            assert prof.table == "t"
            assert prof.shards == 4
            assert prof.rows == 8_000
            assert sum(sp.rows for sp in prof.per_shard) == 8_000
            assert all(sp.blocks > 0 for sp in prof.per_shard)
            assert prof.total_s is not None
            assert prof.plan_s > 0

    def test_slow_query_log_threshold(self, caplog):
        with make_db(trace=True, slow_query_ms=0.0) as db:
            with caplog.at_level(logging.WARNING, logger="repro.obs.slow"):
                db.query("t")
            entries = db.obs.slow_log.entries()
            assert len(entries) == 1
            assert entries[0]["profile"]["table"] == "t"
            assert entries[0]["span_tree"]  # rendered tree rides along
            assert any("slow query" in r.message for r in caplog.records)

    def test_fast_queries_not_logged(self):
        with make_db(slow_query_ms=10_000.0) as db:
            db.query("t")
            assert db.obs.slow_log.entries() == []

    def test_slow_log_disabled_by_default(self):
        with make_db() as db:
            assert not db.obs.slow_log.enabled
