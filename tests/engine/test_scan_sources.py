"""Scan operators and the TPC-H scan sources."""

import numpy as np
import pytest

from repro.core import PDT
from repro.engine import scan_clean, scan_pdt, scan_vdt
from repro.storage import DataType, Schema, StableTable
from repro.vdt import VDT


def make_table(n=50):
    schema = Schema.build(
        ("k", DataType.INT64), ("v", DataType.INT64),
        sort_key=("k",),
    )
    rows = [(i * 2, i) for i in range(n)]
    return StableTable.bulk_load("t", schema, rows), schema


class TestScanOperators:
    def test_scan_clean(self):
        table, _ = make_table()
        rel = scan_clean(table, columns=["v"])
        assert rel.num_rows == 50
        assert rel["v"].tolist() == list(range(50))

    def test_scan_pdt_applies_layers(self):
        table, schema = make_table()
        pdt = PDT(schema)
        pdt.add_delete(0, (0,))
        rel = scan_pdt(table, [pdt], columns=["k"])
        assert rel.num_rows == 49
        assert rel["k"][0] == 2

    def test_scan_vdt_applies_deltas(self):
        table, schema = make_table()
        vdt = VDT(schema)
        vdt.add_insert((1, 99))
        rel = scan_vdt(table, vdt, columns=["k", "v"])
        assert rel.num_rows == 51
        assert rel["k"][1] == 1

    def test_default_columns_are_all(self):
        table, _ = make_table()
        rel = scan_clean(table)
        assert rel.column_names == ["k", "v"]

    def test_empty_table_scan(self):
        schema = Schema.build(("k", DataType.INT64), sort_key=("k",))
        table = StableTable.empty("e", schema)
        rel = scan_clean(table)
        assert rel.num_rows == 0


class TestSourceScanSeconds:
    """Each TPC-H source adds up the seconds of its own scans."""

    def make_db(self):
        from repro import Database

        schema = make_table()[1]
        db = Database()
        db.create_table("t", schema, [(i * 2, i) for i in range(50)])
        return db, schema

    def test_accumulates_per_source(self):
        from repro.tpch import CleanSource, PdtSource

        db, _ = self.make_db()
        clean, pdt = CleanSource(db), PdtSource(db)
        assert clean.scan_seconds == 0.0
        clean.scan("t", columns=["v"])
        once = clean.scan_seconds
        assert once > 0
        clean.scan("t", columns=["v"])
        assert clean.scan_seconds > once
        assert pdt.scan_seconds == 0.0  # not shared between sources

    def test_reset_by_assignment(self):
        from repro.tpch import CleanSource

        db, _ = self.make_db()
        src = CleanSource(db)
        src.scan("t")
        src.scan_seconds = 0.0
        src.scan("t")
        assert src.scan_seconds > 0

    def test_all_scan_modes_record(self):
        from repro.tpch import PdtSource, VdtSource

        db, schema = self.make_db()
        db.delete("t", (0,))
        vdt = VDT(schema)
        vdt.add_insert((1, 99))
        pdt_src, vdt_src = PdtSource(db), VdtSource(db, {"t": vdt})
        assert pdt_src.scan("t").num_rows == 49
        assert vdt_src.scan("t").num_rows == 51
        assert pdt_src.scan_seconds > 0 and vdt_src.scan_seconds > 0


class TestBenchHarness:
    def test_report_render_and_save(self, tmp_path, monkeypatch):
        from repro.bench import Report

        report = Report("demo", ["a", "b"])
        report.add(1, 2.5)
        report.add("x", 0.125)
        text = report.render()
        assert "demo" in text and "2.5000" in text
        with pytest.raises(ValueError):
            report.add(1)

    def test_scaled_and_consume(self, monkeypatch):
        from repro.bench import consume, scaled

        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert scaled(100) == 50
        assert scaled(1, minimum=10) == 10
        batches = [(0, {"v": np.arange(5)}), (5, {"v": np.arange(3)})]
        assert consume(iter(batches)) == 8


class TestTpchRunnerCli:
    def test_runner_main_small(self, capsys):
        from repro.tpch.runner import main

        code = main(["--sf", "0.002", "--queries", "6",
                     "--temperature", "hot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Q    6" in out
        assert out.count("Q    6") == 3  # three modes

    def test_runner_rejects_bad_query(self):
        from repro.tpch.runner import main

        with pytest.raises(SystemExit):
            main(["--queries", "99"])

    def test_select_queries_all(self):
        from repro.tpch.runner import select_queries

        assert select_queries("all") == list(range(1, 23))
        assert select_queries("3,1") == [3, 1]
