"""Property tests: block-pipelined vectorized MergeScan vs the tuple oracle.

The vectorized :class:`~repro.core.merge.BlockMerger` builds one splice
plan per block and replays it with ndarray slice copies; the oracle is the
faithful Algorithm-2 next() loop (:func:`merge_row_stream`). Under any
valid random op sequence, over any block size and scan range, both must
produce identical output — including the zero-copy pass-through, plan
splicing, range-scan, and fixed-size :func:`reblock` paths.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PDT, merge_rows, merge_scan_layers, reblock
from repro.core.merge import BlockMerger
from repro.storage import StableTable

from .helpers import TableDriver, apply_random_ops, int_schema


def _build(seed: int, n_ops: int, n_stable: int = 40, fanout: int = 4):
    schema = int_schema()
    rows = [(k * 10, k, f"s{k}") for k in range(n_stable)]
    pdt = PDT(schema, fanout=fanout)
    driver = TableDriver(schema, rows, [pdt])
    apply_random_ops(driver, random.Random(seed), n_ops, key_range=900)
    stable = StableTable.bulk_load("t", schema, rows)
    return stable, pdt, rows, driver.expected_rows()


def _materialize(stream, columns):
    out = []
    for _, arrays in stream:
        n = len(arrays[columns[0]])
        for i in range(n):
            out.append(tuple(arrays[c][i] for c in columns))
    return out


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    n_ops=st.integers(0, 150),
    batch_rows=st.sampled_from([1, 3, 7, 16, 64]),
)
def test_block_merge_equals_tuple_oracle(seed, n_ops, batch_rows):
    stable, pdt, rows, expected = _build(seed, n_ops)
    assert merge_rows(rows, pdt) == expected  # oracle vs shadow table
    cols = list(stable.schema.column_names)
    got = _materialize(
        merge_scan_layers(stable, [pdt], columns=cols,
                          batch_rows=batch_rows),
        cols,
    )
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    n_ops=st.integers(0, 120),
    start=st.integers(0, 45),
    length=st.integers(0, 45),
    batch_rows=st.sampled_from([2, 5, 32]),
)
def test_block_merge_range_scan_equals_oracle_slice(
    seed, n_ops, start, length, batch_rows
):
    """Range scans must agree with the oracle on the SID-sliced image.

    The oracle for a SID range is the merge of the stable slice with the
    PDT entries inside it — exactly what a sparse-index-restricted scan
    produces, with trailing inserts suppressed unless the range reaches
    the table end.
    """
    stable, pdt, rows, _ = _build(seed, n_ops)
    stop = start + length
    cols = list(stable.schema.column_names)
    got = _materialize(
        merge_scan_layers(stable, [pdt], columns=cols, start=start,
                          stop=stop, batch_rows=batch_rows),
        cols,
    )
    # Range oracle: slice the full tuple-merged image at the RID images of
    # the SID bounds, start clamped to the stable domain end. With one
    # layer the window (key[start-1], key[stop-1]] is exactly that slice:
    # the layer's SID domain is the stable image, where Algorithm 6 puts an
    # insert at SID == stop only when its key sorts above key[stop-1], and
    # delta_before_sid's strict bound leaves it to the next range. The
    # multi-layer form of the definition is tests/core/test_window.py.
    full = merge_rows(rows, pdt)
    to_end = stop >= stable.num_rows
    start_eff = min(start, stable.num_rows)
    lo = start_eff + pdt.delta_before_sid(start_eff)
    if to_end:
        expected = full[lo:]
    else:
        expected = full[lo:stop + pdt.delta_before_sid(stop)]
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    n_ops=st.integers(0, 100),
    block_rows=st.sampled_from([1, 4, 13, 50]),
)
def test_reblock_preserves_stream(seed, n_ops, block_rows):
    stable, pdt, rows, expected = _build(seed, n_ops)
    cols = list(stable.schema.column_names)
    stream = merge_scan_layers(stable, [pdt], columns=cols, batch_rows=7)
    blocks = list(reblock(stream, block_rows=block_rows))
    # All blocks are exactly block_rows long except possibly the last.
    sizes = [len(arrays[cols[0]]) for _, arrays in blocks]
    assert all(s == block_rows for s in sizes[:-1])
    if sizes:
        assert 0 < sizes[-1] <= block_rows
    # First positions are consecutive.
    positions = [pos for pos, _ in blocks]
    assert positions == [
        positions[0] + i * block_rows for i in range(len(positions))
    ] if positions else True
    assert _materialize(iter(blocks), cols) == expected


def test_merger_rejects_stray_entry_beyond_end():
    """A non-insert entry past the stable domain is data corruption."""
    schema = int_schema()
    rows = [(k * 10, k, f"s{k}") for k in range(5)]
    pdt = PDT(schema)
    pdt.add_delete(4, (40,))
    stable = StableTable.bulk_load("t", schema, rows[:4])  # domain too short
    merger = BlockMerger(pdt, list(schema.column_names))
    with pytest.raises(Exception):
        list(merger.merge_batches(stable.scan(), pdt.entry_lists(), 0))


def test_passthrough_blocks_are_not_copied():
    """Blocks without PDT entries must flow through by reference."""
    schema = int_schema()
    rows = [(k * 10, k, f"s{k}") for k in range(64)]
    stable = StableTable.bulk_load("t", schema, rows)
    pdt = PDT(schema)
    pdt.add_modify(40, 1, 999)  # lands in the third 16-row block
    src = {c: stable.column(c).values for c in schema.column_names}
    for first_rid, arrays in merge_scan_layers(stable, [pdt], batch_rows=16):
        block = first_rid // 16
        if block in (0, 1):
            assert arrays["a"].base is src["a"] or \
                np.shares_memory(arrays["a"], src["a"])
        if block == 2:
            assert not np.shares_memory(arrays["a"], src["a"])
