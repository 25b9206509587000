"""The fold's shift rule at depth: 3-5 consecutive layers, no manager.

A stable window merged through every layer (``merge_scan_layers`` with
``cuts=``) and spliced between the untouched stable prefix and suffix,
plus each layer's survivors (``_survivors``, moved by the window's change
in that layer and every layer above it) propagated into one PDT, must
describe the image ``merge_rows_layers`` gives for the whole stack — for
full and range windows alike. They must also equal the older two-step
fold (``tests/oracles/propagate_fold.py``): Propagate every layer into
one, then merge the window through it and split its entries by SID.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PDT
from repro.core.propagate import propagate_batch, propagated
from repro.core.stack import merge_rows_layers, merge_scan_layers
from repro.txn.checkpoint import _survivors

from ..oracles.propagate_fold import fold_one_layer
from .test_entry_run import N_ROWS, build


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000), n_key_cols=st.integers(1, 2),
       n_layers=st.integers(3, 5), ops_per_layer=st.integers(0, 15),
       lo=st.integers(0, N_ROWS + 2), width=st.integers(0, N_ROWS + 4))
def test_window_and_survivors_rebuild_the_image(seed, n_key_cols, n_layers,
                                                ops_per_layer, lo, width):
    stable, layers = build(seed, n_key_cols, n_layers, ops_per_layer)
    schema = stable.schema
    columns = list(schema.column_names)
    rows = stable.rows()
    n = len(rows)
    lo = min(lo, n)
    hi = lo + width
    cuts: list = []
    window = merge_scan_layers(stable, layers, start=lo, stop=hi, cuts=cuts)
    nonempty = [pdt for pdt in layers if not pdt.is_empty()]
    assert len(cuts) == len(nonempty)  # known before any block is read
    merged = [row for _, arrays in window
              for row in zip(*(arrays[c] for c in columns))]
    new_stable = rows[:lo] + merged + (rows[hi:] if hi < n else [])

    shift = sum(cut.delta for cut in cuts)
    survivor = PDT(schema)
    for pdt, cut in zip(nonempty, cuts):
        run = _survivors(pdt, cut, shift)
        shift -= cut.delta
        if survivor.is_empty():
            survivor.bulk_append_entries(run)
        elif run:
            upper = PDT(schema)
            upper.bulk_append_entries(run)
            propagate_batch(survivor, upper)
    survivor.check_invariants()
    assert merge_rows_layers(new_stable, [survivor]) == \
        merge_rows_layers(rows, layers)
    if lo == 0 and hi >= n:
        assert survivor.is_empty()

    collapsed = layers[0]
    for pdt in layers[1:]:
        collapsed = propagated(collapsed, pdt)
    window, run, folded = fold_one_layer(stable, collapsed, lo, hi)
    if folded:
        assert merged == [row for i in range(len(window[columns[0]]))
                          for row in zip(*(window[c][i] for c in columns))]
    else:
        assert merged == rows[lo:hi]
    assert survivor.entries() == run
