"""Workload generator: op validity and PDT/VDT image equality."""

import pytest

from repro.core import merge_rows
from repro.vdt import vdt_merge_rows
from repro.workloads import (
    apply_ops_pdt,
    apply_ops_vdt,
    build_table,
    build_workload,
    generate_ops,
    micro_schema,
)


class TestTableBuilder:
    def test_int_keys_sorted_with_gaps(self):
        table = build_table(100, key_type="int")
        keys = table.column("k0")
        assert (keys % 2 == 0).all()
        assert list(keys) == sorted(keys)

    def test_str_keys_sorted(self):
        table = build_table(50, key_type="str")
        keys = list(table.column("k0"))
        assert keys == sorted(keys)
        assert keys[0].startswith("key-")

    def test_multi_key_lexicographic(self):
        table = build_table(2000, n_key_cols=3)
        sks = [table.sk_at(i) for i in range(0, 2000, 97)]
        assert sks == sorted(sks)
        # The deeper key columns carry the distinguishing values (so
        # value-based comparisons must examine several columns).
        assert len({k[1] for k in sks}) > 1
        assert len({k[-1] for k in sks}) > 1

    def test_column_counts(self):
        schema = micro_schema(2, "int", 4)
        assert len(schema) == 6
        assert schema.sort_key == ("k0", "k1")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            micro_schema(5, "int", 4)
        with pytest.raises(ValueError):
            micro_schema(1, "float", 4)


class TestOpsGeneration:
    def test_rate_controls_volume(self):
        table = build_table(1000)
        assert len(generate_ops(table, 1.0)) == 10
        assert len(generate_ops(table, 2.5)) == 25
        assert len(generate_ops(table, 0.0)) == 0

    def test_ops_are_deterministic(self):
        table = build_table(500)
        assert generate_ops(table, 2.0, seed=5) == \
            generate_ops(table, 2.0, seed=5)

    def test_targets_are_distinct(self):
        table = build_table(2000)
        ops = generate_ops(table, 2.5)
        targets = [op[1] for op in ops]
        assert len(set(map(str, targets))) == len(targets)


@pytest.mark.parametrize("key_type", ["int", "str"])
@pytest.mark.parametrize("n_key_cols", [1, 2, 4])
def test_pdt_and_vdt_images_agree(key_type, n_key_cols):
    """Applying the same generated stream through positional and
    value-based machinery must yield the same table image."""
    wl = build_workload(
        800, updates_per_100=2.5, n_key_cols=n_key_cols, key_type=key_type
    )
    pdt = apply_ops_pdt(wl.table, wl.ops, wl.sparse_index)
    vdt = apply_ops_vdt(wl.table, wl.ops)
    rows = wl.table.rows()
    assert merge_rows(rows, pdt) == vdt_merge_rows(rows, vdt)
    assert pdt.count() > 0


def test_update_counts_match_structures():
    wl = build_workload(1000, updates_per_100=2.0)
    pdt = apply_ops_pdt(wl.table, wl.ops, wl.sparse_index)
    vdt = apply_ops_vdt(wl.table, wl.ops)
    n_ins = sum(1 for op in wl.ops if op[0] == "ins")
    n_del = sum(1 for op in wl.ops if op[0] == "del")
    n_mod = sum(1 for op in wl.ops if op[0] == "mod")
    assert pdt.count() == n_ins + n_del + n_mod
    assert vdt.insert_count() == n_ins + n_mod
    assert vdt.delete_count() == n_del + n_mod
