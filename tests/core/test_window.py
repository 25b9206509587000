"""What a stable SID window means, through any stack of layers.

A window ``[start, stop)`` of stable SIDs is the set of image tuples whose
sort key lies in ``(key[start-1], key[stop-1]]``: open below at SID 0,
open above — trailing inserts included — from ``num_rows`` on.
``merge_scan_layers`` is the one place that turns a window into per-layer
bounds; these properties pin it against the materialized tuple image for
random 1-3 layer histories (``tests/oracles/histories.py``) whose deletes
and inserts crowd the granule bounds. Above the first layer a lower
layer's ghost is invisible, so inserts on both sides of the ghost's key
share one position — exactly at the bound — and only their keys decide
which window they belong to.
"""

import random
from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stack import image_rows, merge_scan_layers
from repro.storage import SparseIndex

from ..oracles.histories import make_schema, make_stable, random_history

N_ROWS = 24  # stable key numbers 0, 2, ..., 46
GRANULE = 4  # granule closers: the deletes' and inserts' favourite rows

HISTORIES = dict(
    seed=st.integers(0, 100_000),
    n_key_cols=st.integers(1, 2),
    n_layers=st.integers(1, 3),
    ops_per_layer=st.integers(0, 20),
    batch_rows=st.sampled_from([1, 3, 64]),
)


def build(seed, n_key_cols, n_layers, ops_per_layer):
    rng = random.Random(seed)
    stable = make_stable(make_schema(n_key_cols), range(0, 2 * N_ROWS, 2))
    index = SparseIndex(stable, granularity=GRANULE)
    layers, _ = random_history(rng, stable, index, n_layers, ops_per_layer)
    return stable, layers, image_rows(stable, layers)


def window(stable, layers, start, stop, batch_rows, first_rid):
    """The window's rows, asserting its blocks' RIDs run on from
    ``first_rid`` and its return value is the RID just past them."""
    cols = stable.schema.column_names
    stream = merge_scan_layers(stable, layers, start=start, stop=stop,
                               batch_rows=batch_rows)
    rows = []
    while True:
        try:
            rid, arrays = next(stream)
        except StopIteration as end:
            assert end.value == first_rid + len(rows)
            return rows
        assert rid == first_rid + len(rows)
        rows.extend(zip(*(arrays[c].tolist() for c in cols)))


@settings(max_examples=30, deadline=None)
@given(**HISTORIES)
def test_every_window_holds_exactly_its_keys(seed, n_key_cols, n_layers,
                                             ops_per_layer, batch_rows):
    stable, layers, image = build(seed, n_key_cols, n_layers, ops_per_layer)
    keys = [r[:n_key_cols] for r in stable.rows()]
    image_keys = [r[:n_key_cols] for r in image]

    def rank(sid):
        """Image tuples keyed at or below key[sid-1]."""
        if sid == 0:
            return 0
        if sid >= N_ROWS + 1:
            return len(image)
        return bisect_right(image_keys, keys[sid - 1])

    for start in range(N_ROWS + 1):
        first = rank(start)
        for stop in range(start, N_ROWS + 2):
            # stop == N_ROWS and beyond: the open upper end.
            end = rank(stop if stop < N_ROWS else N_ROWS + 1)
            got = window(stable, layers, start,
                         None if stop > N_ROWS else stop, batch_rows, first)
            assert got == image[first:end], (start, stop)


@settings(max_examples=40, deadline=None)
@given(cuts=st.lists(st.integers(0, N_ROWS - 1), max_size=6), **HISTORIES)
def test_adjacent_windows_partition_the_image(cuts, seed, n_key_cols,
                                              n_layers, ops_per_layer,
                                              batch_rows):
    """Cut anywhere below the table end — twice at one SID included —
    and the windows between the cuts concatenate to the image: no tuple
    twice, none lost, RIDs contiguous. (A window reaching ``num_rows`` is
    open above, so the table end is no cut point.)"""
    stable, layers, image = build(seed, n_key_cols, n_layers, ops_per_layer)
    bounds = [0, *sorted(cuts), None]
    rows = []
    for start, stop in zip(bounds, bounds[1:]):
        rows += window(stable, layers, start, stop, batch_rows, len(rows))
    assert rows == image
