"""Directed Serialize edge cases: insert interleavings and chains."""

import pytest

from repro.core import (
    FlatPDT,
    PDT,
    TransactionConflict,
    merge_rows,
    serialize,
)

from .helpers import TableDriver, int_schema


def pair(pdt_cls):
    schema = int_schema()
    rows = [(k * 100, k, f"s{k}") for k in range(6)]

    def make():
        return pdt_cls(schema, fanout=4) if pdt_cls is PDT \
            else pdt_cls(schema)

    ty, tx = make(), make()
    return rows, TableDriver(schema, rows, [ty]), \
        TableDriver(schema, rows, [tx]), ty, tx


@pytest.mark.parametrize("pdt_cls", [FlatPDT, PDT])
class TestInsertInterleaving:
    def test_alternating_keys_at_one_boundary(self, pdt_cls):
        rows, y, x, ty, tx = pair(pdt_cls)
        for k in (110, 130, 150):
            y.insert((k, 0, f"y{k}"))
        for k in (120, 140, 160):
            x.insert((k, 0, f"x{k}"))
        tx_prime = serialize(tx, ty)
        tx_prime.check_invariants()
        final = merge_rows(merge_rows(rows, ty), tx_prime)
        keys = [r[0] for r in final]
        assert keys == sorted(keys)
        assert set(range(110, 170, 10)) <= set(keys)

    def test_x_inserts_before_all_y_inserts(self, pdt_cls):
        rows, y, x, ty, tx = pair(pdt_cls)
        y.insert((150, 0, "y"))
        x.insert((101, 0, "x1"))
        x.insert((102, 0, "x2"))
        tx_prime = serialize(tx, ty)
        final = merge_rows(merge_rows(rows, ty), tx_prime)
        keys = [r[0] for r in final]
        assert keys == sorted(keys)

    def test_inserts_at_distinct_boundaries_with_deletes_between(
        self, pdt_cls
    ):
        rows, y, x, ty, tx = pair(pdt_cls)
        y.delete((200,))
        y.delete((400,))
        x.insert((250, 0, "x"))
        x.insert((450, 0, "x"))
        tx_prime = serialize(tx, ty)
        final = merge_rows(merge_rows(rows, ty), tx_prime)
        keys = [r[0] for r in final]
        assert keys == sorted(keys)
        assert 200 not in keys and 400 not in keys
        assert 250 in keys and 450 in keys

    def test_ghost_reinsert_interleaving(self, pdt_cls):
        """y deletes a key; x re-inserts it plus neighbours."""
        rows, y, x, ty, tx = pair(pdt_cls)
        y.delete((300,))
        x.insert((299, 0, "before"))
        x.insert((301, 0, "after"))
        tx_prime = serialize(tx, ty)
        final = merge_rows(merge_rows(rows, ty), tx_prime)
        keys = [r[0] for r in final]
        assert keys == sorted(keys)
        assert 300 not in keys

    def test_mixed_chain_insert_plus_modify_same_sid(self, pdt_cls):
        """x inserts before a stable tuple AND modifies that tuple, while
        y inserts at the same boundary."""
        rows, y, x, ty, tx = pair(pdt_cls)
        y.insert((150, 0, "y"))
        x.insert((160, 0, "x"))
        x.modify((200,), "a", 777)
        tx_prime = serialize(tx, ty)
        final = merge_rows(merge_rows(rows, ty), tx_prime)
        target = [r for r in final if r[0] == 200][0]
        assert target[1] == 777
        keys = [r[0] for r in final]
        assert keys == sorted(keys)

    def test_y_modify_does_not_block_x_insert_same_sid(self, pdt_cls):
        rows, y, x, ty, tx = pair(pdt_cls)
        y.modify((200,), "a", 1)
        x.insert((150, 0, "x"))
        tx_prime = serialize(tx, ty)
        final = merge_rows(merge_rows(rows, ty), tx_prime)
        assert (150, 0, "x") in final
        assert [r for r in final if r[0] == 200][0][1] == 1

    def test_conflicting_key_reported_among_interleaves(self, pdt_cls):
        rows, y, x, ty, tx = pair(pdt_cls)
        y.insert((110, 0, "y1"))
        y.insert((130, 0, "y2"))
        x.insert((120, 0, "x1"))
        x.insert((130, 1, "dup"))
        with pytest.raises(TransactionConflict, match="identical key"):
            serialize(tx, ty)
