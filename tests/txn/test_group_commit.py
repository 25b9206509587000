"""Group-commit coordinator and WAL file-format unit tests."""

import threading

import numpy as np
import pytest

from repro import Database, DataType, PDT, Schema, merge_rows
from repro.txn import WriteAheadLog, replay_into


def make_schema():
    return Schema.build(
        ("k", DataType.INT64), ("a", DataType.INT64),
        ("b", DataType.STRING), sort_key=("k",),
    )


def commit_pdt(schema, key, tag):
    pdt = PDT(schema)
    pdt.add_insert(0, 0, (key, key, tag))
    return pdt


# The exact bytes a fixed commit sequence must log: the format recovery
# reads back and the WAL byte count that write amplification is
# measured from. A change here is an on-disk format change.
GOLDEN_LINES = [
    '{"lsn": 1, "tables": {"t": [[0, -1, [5, 1.5, "f\\u00fcnf"]]]}}\n',
    '{"lsn": 2, "tables": {"t": [[3, 1, 2.25], [3, 2, "x \\"y\\""]]}}\n',
    '{"lsn": 3, "tables": {"t": [[7, -2, [70]]]}}\n',
    '{"lsn": 4, "tables": {"t": [[2, -1, [12, -0.5, ""]]], '
    '"u": [[0, 1, 3.0]]}}\n',
    '{"lsn": 5, "tables": {"t": [[1, -1, [9, 0.125, "s"]]]}, '
    '"kind": "snapshot", "meta": {"table": "t", "for_image_lsn": 4}}\n',
]


@pytest.fixture
def open_wal(tmp_path):
    """``open_wal(fsync)``: a file-backed log at ``tmp_path/wal.jsonl``,
    closed at teardown."""
    logs = []

    def make(fsync):
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync=fsync)
        logs.append(wal)
        return wal

    yield make
    for wal in logs:
        wal.close()


class TestGroupModeFileFormat:
    def test_bytes_match_golden_lines(self, tmp_path, open_wal):
        schema = Schema.build(
            ("k", DataType.INT64), ("a", DataType.FLOAT64),
            ("b", DataType.STRING), sort_key=("k",),
        )

        def pdt_with(*steps):
            pdt = PDT(schema)
            for step in steps:
                step(pdt)
            return pdt

        commits = [
            {"t": pdt_with(lambda p: p.add_insert(
                0, 0, (np.int64(5), np.float64(1.5), "fünf")))},
            {"t": pdt_with(lambda p: p.add_modify(3, 1, np.float64(2.25)),
                           lambda p: p.add_modify(3, 2, 'x "y"'))},
            {"t": pdt_with(lambda p: p.add_delete(7, (np.int64(70),)))},
            {"t": pdt_with(lambda p: p.add_insert(2, 2, (12, -0.5, ""))),
             "u": pdt_with(lambda p: p.add_modify(0, 1, np.float64(3.0)))},
        ]
        wal = open_wal(False)
        for lsn, tables in enumerate(commits, start=1):
            wal.wait_durable(wal.append_commit(lsn, tables))
        wal.append_snapshot("t", pdt_with(lambda p: p.add_insert(
            1, 1, (np.int64(9), np.float64(0.125), "s"))),
            lsn=5, for_image_lsn=4)
        assert (tmp_path / "wal.jsonl").read_bytes() \
            == "".join(GOLDEN_LINES).encode("utf-8")
        loaded = WriteAheadLog.load(tmp_path / "wal.jsonl")
        assert [r.lsn for r in loaded.records] == [1, 2, 3, 4, 5]
        assert loaded.records[-1].kind == "snapshot"

    def test_ticket_resolution_and_stats(self, open_wal):
        wal = open_wal(True)
        schema = make_schema()
        ticket = wal.append_commit(1, {"t": commit_pdt(schema, 1, "x")})
        assert not ticket.resolved  # staged, not yet flushed
        wal.wait_durable(ticket)
        assert ticket.durable and ticket.led and ticket.group_size == 1
        assert wal.group.stats.flushes == 1
        assert wal.group.stats.fsyncs == 1
        assert wal.group.pending() == 0

    def test_leader_flushes_whole_group(self, open_wal):
        wal = open_wal(True)
        schema = make_schema()
        tickets = [
            wal.append_commit(i + 1, {"t": commit_pdt(schema, i, "x")})
            for i in range(4)
        ]
        wal.wait_durable(tickets[-1])  # one wait resolves the group
        assert all(t.durable for t in tickets)
        assert wal.group.stats.flushes == 1
        assert wal.group.stats.coalesced == 4
        assert wal.group.stats.max_group == 4
        loaded = WriteAheadLog.load(wal.path)
        assert [r.lsn for r in loaded.records] == [1, 2, 3, 4]

    def test_rewrite_resolves_staged_tickets(self, open_wal):
        wal = open_wal(False)
        schema = make_schema()
        ticket = wal.append_commit(1, {"t": commit_pdt(schema, 1, "x")})
        assert not ticket.resolved
        wal.truncate()  # whole-file rewrite persists the (empty) state
        assert ticket.resolved
        assert wal.group.stats.rewrite_drains == 1
        wal.wait_durable(ticket)  # returns immediately, no error

    def test_snapshot_record_is_durable_inline(self, open_wal):
        wal = open_wal(False)
        schema = make_schema()
        wal.append_snapshot("t", commit_pdt(schema, 1, "x"), lsn=3,
                            for_image_lsn=3)
        # No staged work may remain: the caller publishes a catalog that
        # depends on this record right after.
        assert wal.group.pending() == 0
        loaded = WriteAheadLog.load(wal.path)
        assert loaded.records[0].kind == "snapshot"

    def test_concurrent_stage_and_wait(self, open_wal):
        wal = open_wal(True)
        schema = make_schema()
        errors = []

        def writer(base):
            try:
                for i in range(10):
                    lsn = base * 100 + i
                    ticket = wal.append_commit(
                        lsn, {"t": commit_pdt(schema, lsn, "x")})
                    wal.wait_durable(ticket)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(b,))
                   for b in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(WriteAheadLog.load(wal.path).records) == 40
        assert wal.group.stats.staged == 40


# A log striped over two stream files by an older version: the main file
# holds only the layout line, the commit lives in the stream files.
STRIPED_MAIN = ('{"lsn": 0, "tables": {}, "kind": "wal-meta", '
                '"meta": {"streams": 2, "epoch": 0}}\n')
STRIPED_STREAM = '{"lsn": 1, "tables": {"t": [[0, -1, [999, 1]]]}}\n'


class TestStripedLogRefused:
    def _striped_files(self, wal_path):
        files = {
            wal_path: STRIPED_MAIN.encode() + b'{"lsn": 2, "tab',  # torn
            wal_path.parent / f"{wal_path.name}.s0.e0":
                STRIPED_STREAM.encode(),
        }
        for path, data in files.items():
            path.write_bytes(data)
        return files

    def test_load_raises_and_touches_nothing(self, tmp_path):
        files = self._striped_files(tmp_path / "wal.jsonl")
        with pytest.raises(ValueError, match="striped WAL layout"):
            WriteAheadLog.load(tmp_path / "wal.jsonl")
        for path, data in files.items():
            assert path.read_bytes() == data
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == sorted(p.name for p in files)

    def test_database_recover_raises_and_touches_nothing(self, tmp_path):
        root = tmp_path / "db"
        schema = Schema.build(("k", DataType.INT64), ("v", DataType.INT64),
                              sort_key=("k",))
        db = Database(storage="mmap", storage_path=root)
        db.create_table("t", schema, [(i, i) for i in range(20)])
        db.close()
        files = self._striped_files(root / "wal.jsonl")
        with pytest.raises(ValueError, match="striped WAL layout"):
            Database.recover(root)
        for path, data in files.items():
            assert path.read_bytes() == data

    @pytest.mark.parametrize("option", [{"group_commit": False},
                                        {"wal_streams": 2}])
    def test_removed_options_raise_type_error(self, option):
        with pytest.raises(TypeError):
            Database(**option)


class TestStripedDatabase:
    def test_replay_unchanged_under_grouping(self, tmp_path):
        schema = make_schema()
        db = Database(compressed=False, wal_path=tmp_path / "wal.jsonl")
        db.create_table("t", schema, [(i * 10, i, f"s{i}") for i in range(8)])
        stable_rows = db.table("t").rows()
        db.insert("t", (5, 1, "x"))
        db.delete("t", (30,))
        fresh = {"t": PDT(schema)}
        last = replay_into(WriteAheadLog.load(tmp_path / "wal.jsonl"), fresh)
        assert last == 2
        assert merge_rows(stable_rows, fresh["t"]) == db.image_rows("t")
        db.close()
