"""Block-oriented MergeScan vs tuple-at-a-time merge vs oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockMerger,
    FlatPDT,
    PDT,
    merge_rows,
    merge_scan_layers,
)
from repro.storage import StableTable

from .helpers import TableDriver, apply_random_ops, int_schema


def build_case(seed, n_stable=40, n_ops=60, fanout=4):
    schema = int_schema()
    rows = [(k * 10, k, f"s{k}") for k in range(n_stable)]
    table = StableTable.bulk_load("t", schema, rows)
    pdt = PDT(schema, fanout=fanout)
    driver = TableDriver(schema, rows, [pdt])
    apply_random_ops(driver, random.Random(seed), n_ops, key_range=600)
    return table, pdt, driver, rows


def collect(batches, columns):
    """Flatten merge batches back into row tuples, checking RID continuity."""
    out = []
    expected_next = None
    for first_rid, arrays in batches:
        n = len(arrays[columns[0]])
        if expected_next is not None:
            assert first_rid == expected_next, "RID gap between batches"
        expected_next = first_rid + n
        for i in range(n):
            out.append(tuple(arrays[c][i] for c in columns))
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    batch_rows=st.sampled_from([1, 3, 7, 16, 1000]),
)
def test_block_merge_equals_row_merge(seed, batch_rows):
    table, pdt, driver, rows = build_case(seed)
    cols = ["k", "a", "b"]
    got = collect(
        merge_scan_layers(table, [pdt], columns=cols, batch_rows=batch_rows),
        cols,
    )
    assert got == driver.expected_rows()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_block_merge_projection_without_sort_key(seed):
    """The PDT merge must work reading only non-key columns."""
    table, pdt, driver, rows = build_case(seed)
    cols = ["a", "b"]
    got = collect(
        merge_scan_layers(table, [pdt], columns=cols, batch_rows=8), cols
    )
    assert got == [(r[1], r[2]) for r in driver.expected_rows()]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    start=st.integers(0, 45),
    stop=st.integers(0, 45),
)
def test_range_scan_matches_full_scan_slice(seed, start, stop):
    """A SID-range MergeScan returns exactly the corresponding positional
    slice of the full current image."""
    table, pdt, driver, rows = build_case(seed)
    start, stop = min(start, stop), max(start, stop)
    stop = min(stop, table.num_rows)
    start = min(start, stop)
    cols = ["k", "a"]
    got = collect(
        merge_scan_layers(table, [pdt], columns=cols, start=start,
                          stop=stop, batch_rows=5),
        cols,
    )
    full = [(r[0], r[1]) for r in driver.expected_rows()]
    lo = start + pdt.delta_before_sid(start)
    if stop >= table.num_rows:
        hi = len(full)
    else:
        hi = stop + pdt.delta_before_sid(stop)
    assert got == full[lo:hi]


def test_merge_empty_pdt_passes_through():
    schema = int_schema()
    rows = [(k, k, f"s{k}") for k in range(10)]
    table = StableTable.bulk_load("t", schema, rows)
    pdt = PDT(schema)
    got = collect(merge_scan_layers(table, [pdt], batch_rows=4),
                  list(schema.column_names))
    assert got == rows


def test_merge_empty_table_only_inserts():
    schema = int_schema()
    table = StableTable.bulk_load("t", schema, [])
    pdt = PDT(schema)
    driver = TableDriver(schema, [], [pdt])
    for k in (3, 1, 2):
        driver.insert((k, k, f"s{k}"))
    got = collect(merge_scan_layers(table, [pdt]), list(schema.column_names))
    assert got == driver.expected_rows()


def test_merge_requires_columns():
    schema = int_schema()
    table = StableTable.bulk_load("t", schema, [])
    pdt = PDT(schema)
    merger = BlockMerger(pdt, [])
    with pytest.raises(ValueError):
        list(merger.merge_batches(table.scan(columns=[]),
                                  pdt.entry_lists(), 0))


def test_rid_values_are_positions():
    table, pdt, driver, rows = build_case(seed=7)
    cols = ["k"]
    rid = 0
    for first_rid, arrays in merge_scan_layers(table, [pdt], columns=cols,
                                               batch_rows=6):
        assert first_rid == rid
        rid += len(arrays["k"])
    assert rid == len(driver.expected_rows())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), layers=st.integers(1, 3))
def test_layered_merge_matches_sequential_images(seed, layers):
    """A stack of PDT layers, each built against the image produced by the
    layers below it, must merge to the final sequential image."""
    schema = int_schema()
    rows = [(k * 10, k, f"s{k}") for k in range(30)]
    table = StableTable.bulk_load("t", schema, rows)
    rng = random.Random(seed)

    stack = []
    image = rows
    for _ in range(layers):
        pdt = PDT(schema, fanout=4)
        layer_driver = TableDriver(schema, image, [pdt])
        apply_random_ops(layer_driver, rng, rng.randrange(5, 25),
                         key_range=500)
        image = layer_driver.expected_rows()
        stack.append(pdt)

    cols = ["k", "a", "b"]
    got = collect(
        merge_scan_layers(table, stack, columns=cols, batch_rows=7), cols
    )
    assert got == image
