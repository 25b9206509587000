"""Structural white-box tests for the counted tree itself."""

import random

import pytest

from repro.core import PDT
from repro.core.propagate import propagated
from repro.core.types import KIND_DEL, KIND_INS, PDTError

from .helpers import TableDriver, apply_random_ops, int_schema


def grown_tree(n_ops=400, fanout=4, seed=9):
    schema = int_schema()
    rows = [(k * 10, k, f"s{k}") for k in range(30)]
    pdt = PDT(schema, fanout=fanout)
    driver = TableDriver(schema, rows, [pdt])
    apply_random_ops(driver, random.Random(seed), n_ops, key_range=2000)
    return pdt, driver


class TestTreeShape:
    def test_depth_grows_logarithmically(self):
        pdt, _ = grown_tree(n_ops=500, fanout=4)
        # ~300+ live entries at fanout 4 (leaves hold >= 2): depth must be
        # well below entry count and above 2.
        assert 3 <= pdt.depth() <= 12

    def test_fanout_bounds_respected(self):
        pdt, _ = grown_tree(n_ops=400, fanout=5)
        pdt.check_invariants()  # includes leaf/inner overflow checks

    def test_memory_usage_models(self):
        pdt, _ = grown_tree(n_ops=100)
        assert pdt.memory_usage() >= 16 * pdt.count()

    def test_repr(self):
        pdt, _ = grown_tree(n_ops=50)
        text = repr(pdt)
        assert "entries=" in text and "depth=" in text

    def test_minimum_fanout_rejected(self):
        with pytest.raises(ValueError):
            PDT(int_schema(), fanout=2)

    def test_clear_resets_everything(self):
        pdt, _ = grown_tree(n_ops=200)
        pdt.clear()
        assert pdt.count() == 0
        assert pdt.total_delta() == 0
        assert pdt.depth() == 1
        assert list(pdt.iter_entries()) == []
        pdt.check_invariants()


class TestIterationSeek:
    def test_iter_from_start_sid(self):
        pdt, driver = grown_tree()
        full = list(pdt.iter_entries())
        for start_sid in (0, 1, 5, 13, 29, 30, 1000):
            expected = [e for e in full if e.sid >= start_sid]
            got = list(pdt.iter_entries(start_sid=start_sid))
            assert [(e.sid, e.rid, e.kind) for e in got] == [
                (e.sid, e.rid, e.kind) for e in expected
            ], start_sid

    def test_delta_before_sid_matches_linear(self):
        pdt, _ = grown_tree()
        full = list(pdt.iter_entries())
        from repro.core.types import delta_of

        for sid in range(0, 32):
            expected = sum(delta_of(e.kind) for e in full if e.sid < sid)
            assert pdt.delta_before_sid(sid) == expected, sid


class TestAppendEntry:
    def test_append_out_of_order_rejected(self):
        pdt = PDT(int_schema(), fanout=4)
        with pytest.raises(PDTError, match="out of order"):
            pdt.bulk_append_entries([(5, KIND_DEL, (50,)),
                                     (3, KIND_DEL, (30,))])
        assert pdt.is_empty()
        pdt.check_invariants()

    def test_bulk_append_builds_valid_tree(self):
        """200 bulk-built inserts equal the tree Algorithm 3 grows from
        them one at a time (insert number ``s`` lands at RID ``2s``)."""
        run = [(sid, KIND_INS, [sid, 0, "x"]) for sid in range(200)]
        pdt, scalar = PDT(int_schema(), fanout=4), PDT(int_schema(), fanout=4)
        pdt.bulk_append_entries(run)
        for sid, _, row in run:
            scalar.add_insert(sid, 2 * sid, row)
        pdt.check_invariants()
        assert pdt.count() == 200
        assert pdt.total_delta() == 200
        assert [(e.sid, e.rid, e.kind) for e in pdt.iter_entries()] == \
            [(e.sid, e.rid, e.kind) for e in scalar.iter_entries()]
        assert pdt.entries() == scalar.entries() == run

    def test_fresh_fold_of_deep_tree(self):
        pdt, _ = grown_tree(n_ops=300, fanout=4)
        run = pdt.entries()
        fresh = propagated(pdt, PDT(pdt.schema))
        fresh.check_invariants()
        assert fresh.entries() == pdt.entries() == run
        assert fresh.fanout == pdt.fanout


class TestErrorPaths:
    def test_modify_ghost_raises(self):
        pdt = PDT(int_schema(), fanout=4)
        pdt.add_delete(3, (30,))
        # rid 3 now addresses the next live tuple; modifying it is legal
        # and must NOT hit the ghost:
        pdt.add_modify(3, 1, 42)
        entries = list(pdt.iter_entries())
        assert [e.kind for e in entries] == [KIND_DEL, 1]

    def test_inconsistent_insert_detected(self):
        pdt = PDT(int_schema(), fanout=4)
        with pytest.raises(PDTError):
            pdt.add_insert(sid=5, rid=9, row=[1, 2, "x"])  # delta mismatch

    def test_value_space_arity_enforced(self):
        pdt = PDT(int_schema(), fanout=4)
        with pytest.raises(PDTError):
            pdt.add_insert(0, 0, [1, 2])  # missing column
