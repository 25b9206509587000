"""The production key resolver against the tuple-at-a-time oracle.

``find_rid_by_key`` / ``find_insert_position`` are fronts over the
vectorized, sparse-index-bounded ``resolve_batch_positions`` sweep; the
oracle (``tests/oracles/scalar_resolve.py``) walks the merged keys one
tuple at a time and never bounds its scan. For random op histories over
1- and 2-column sort keys and 1-3 layer stacks both must agree on every
key of the key space — the RID when the key is live, the insert-before
position (and the exception type) when it is not.

The hostile shapes are positional: a window bounded by a sparse-index
granule ends at a stable tuple, and when a lower layer turned that tuple
into a ghost a higher layer's inserts around the probed key sit exactly
*at* the bound (their SID domain has no ghost to hide behind). The
directed cases pin those; the randomized histories find the rest.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataType, PDT, Schema
from repro.core.stack import image_rows
from repro.db import (
    DuplicateKey,
    KeyNotFound,
    find_insert_position,
    find_rid_by_key,
    resolve_batch_positions,
)
from repro.storage import SparseIndex, StableTable

from ..oracles import scalar_resolve
from ..oracles.histories import key_of, make_schema, make_stable, \
    random_history
from ..oracles.scalar_resolve import ScalarUpdater

KEY_SPACE = 96  # key numbers 0..95; stable rows hold the even ones
GRANULE = 8     # 48 stable rows -> 6 sparse granules


def oracle_resolve(stable, layers, index, key):
    try:
        return True, scalar_resolve.find_rid_by_key(
            stable, layers, index, key)
    except KeyNotFound:
        return False, scalar_resolve.find_insert_position(
            stable, layers, index, key)


def assert_agrees(stable, layers, index, keys):
    """Both fronts and the batch sweep against the oracle, on ``keys``
    (sorted, distinct)."""
    expected = [oracle_resolve(stable, layers, index, k) for k in keys]
    for key, (found, pos) in zip(keys, expected):
        if found:
            assert find_rid_by_key(stable, layers, index, key) == pos
            with pytest.raises(DuplicateKey):
                find_insert_position(stable, layers, index, key)
        else:
            assert find_insert_position(stable, layers, index, key) == pos
            with pytest.raises(KeyNotFound):
                find_rid_by_key(stable, layers, index, key)
    assert resolve_batch_positions(stable, layers, index, keys) == expected


def whole_key_space(n_key_cols):
    """Every key number, two below the first row and two above the last;
    with two key columns also a key between two leading values."""
    keys = [key_of(k, n_key_cols) for k in range(-2, KEY_SPACE + 3)]
    if n_key_cols == 2:
        keys += [(3, 7), (KEY_SPACE, -1)]
    return sorted(set(keys))


class TestAgainstScalarOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 2), st.integers(1, 3),
           st.integers(0, 25), st.booleans())
    def test_random_histories(self, seed, n_key_cols, n_layers,
                              ops_per_layer, use_index):
        rng = random.Random(seed)
        schema = make_schema(n_key_cols)
        stable = make_stable(schema, range(0, KEY_SPACE, 2))
        index = SparseIndex(stable, granularity=GRANULE)
        layers, live = random_history(rng, stable, index, n_layers,
                                      ops_per_layer)
        keys = whole_key_space(n_key_cols)
        assert_agrees(stable, layers, index if use_index else None, keys)
        # The oracle itself, against the materialized image.
        image_keys = [r[:n_key_cols] for r in image_rows(stable, layers)]
        assert image_keys == sorted(key_of(k, n_key_cols) for k in live)
        for rid, key in enumerate(image_keys):
            assert find_rid_by_key(stable, layers, index, key) == rid

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 2), st.integers(1, 3),
           st.integers(1, 12))
    def test_random_sub_batches(self, seed, n_key_cols, n_layers, n_keys):
        """A batch anywhere in the key space: the window spans from the
        granule of its first key to the granule of its last."""
        rng = random.Random(seed)
        schema = make_schema(n_key_cols)
        stable = make_stable(schema, range(0, KEY_SPACE, 2))
        index = SparseIndex(stable, granularity=GRANULE)
        layers, _ = random_history(rng, stable, index, n_layers, 15)
        keys = sorted(rng.sample(whole_key_space(n_key_cols), n_keys))
        assert_agrees(stable, layers, index, keys)


class TestDirectedShapes:
    @pytest.mark.parametrize("n_key_cols", [1, 2])
    def test_empty_table(self, n_key_cols):
        schema = make_schema(n_key_cols)
        stable = make_stable(schema, [])
        index = SparseIndex(stable, granularity=GRANULE)
        layers = [PDT(schema)]
        keys = [key_of(k, n_key_cols) for k in (0, 5, 9)]
        assert_agrees(stable, layers, index, keys)
        ScalarUpdater(stable, layers, index).insert(keys[1] + (1,))
        assert_agrees(stable, layers, index, keys)
        assert_agrees(stable, layers, None, keys)

    @pytest.mark.parametrize("n_key_cols", [1, 2])
    @pytest.mark.parametrize("use_index", [True, False])
    def test_ghost_closes_the_window_under_a_higher_layer(
            self, n_key_cols, use_index):
        """Granule 0 ends at key 14. The lower layer deletes it; the
        higher layer then inserts 13 (before the ghost it cannot see) and
        re-inserts 14. Both sit at the higher layer's image of the
        granule bound, where a bounded range scan stops short."""
        schema = make_schema(n_key_cols)
        stable = make_stable(schema, range(0, KEY_SPACE, 2))
        index = SparseIndex(stable, granularity=GRANULE)
        lower, higher = PDT(schema), PDT(schema)
        ScalarUpdater(stable, [lower], index).delete_by_key(
            key_of(14, n_key_cols))
        top = ScalarUpdater(stable, [lower, higher], index)
        top.insert(key_of(13, n_key_cols) + (0,))
        top.insert(key_of(14, n_key_cols) + (0,))
        keys = [key_of(k, n_key_cols) for k in range(10, 20)]
        layers = [lower, higher]
        assert_agrees(stable, layers, index if use_index else None, keys)
        assert find_rid_by_key(stable, layers, index,
                               key_of(13, n_key_cols)) == 7
        assert find_rid_by_key(stable, layers, index,
                               key_of(14, n_key_cols)) == 8

    def test_whole_granule_deleted_then_key_between_granules(self):
        """Every row of granule 1 is a ghost; keys inside it resolve to
        the first live row of granule 2, inserts land between."""
        schema = make_schema(1)
        stable = make_stable(schema, range(0, KEY_SPACE, 2))
        index = SparseIndex(stable, granularity=GRANULE)
        lower, higher = PDT(schema), PDT(schema)
        updater = ScalarUpdater(stable, [lower], index)
        for k in range(16, 32, 2):
            updater.delete_by_key((k,))
        ScalarUpdater(stable, [lower, higher], index).insert((21, 0))
        keys = [(k,) for k in range(12, 36)]
        assert_agrees(stable, [lower, higher], index, keys)
        assert_agrees(stable, [lower], index, keys)

    def test_delete_then_reinsert_same_layer(self):
        schema = make_schema(1)
        stable = make_stable(schema, range(0, KEY_SPACE, 2))
        index = SparseIndex(stable, granularity=GRANULE)
        layers = [PDT(schema)]
        updater = ScalarUpdater(stable, layers, index)
        for k in (14, 16, 94):
            updater.delete_by_key((k,))
            updater.insert((k, 1))
        updater.delete_by_key((0,))
        assert_agrees(stable, layers, index, whole_key_space(1))

    def test_stale_index_after_trailing_and_leading_inserts(self):
        """The index still describes TABLE0: keys appended past its last
        granule and before its first are found through it."""
        schema = make_schema(1)
        stable = make_stable(schema, range(10, 60, 2))
        index = SparseIndex(stable, granularity=GRANULE)
        layers = [PDT(schema), PDT(schema)]
        for at, keys in ((1, (61, 70, 3)), (2, (65, 99, 1))):
            updater = ScalarUpdater(stable, layers[:at], index)
            for k in keys:
                updater.insert((k, 0))
        assert_agrees(stable, layers, index,
                      [(k,) for k in range(0, 102)])

    def test_string_sort_key(self):
        schema = Schema.build(("k", DataType.STRING), ("a", DataType.INT64),
                              sort_key=("k",))
        stable = StableTable.bulk_load(
            "t", schema, [(f"k{i:03d}", i) for i in range(0, 40, 2)])
        index = SparseIndex(stable, granularity=4)
        layers = [PDT(schema)]
        updater = ScalarUpdater(stable, layers, index)
        updater.delete_by_key(("k006",))
        updater.insert(("k007", 1))
        updater.insert(("zzz", 1))
        keys = sorted([f"k{i:03d}" for i in range(0, 42)] + ["", "zzz", "zzzz"])
        assert_agrees(stable, layers, index, [(k,) for k in keys])
