"""Key-bounded reads and resolves over narrowed windows, against oracles.

A key-bounded read or key resolve merges only the key's own rows: the
merge reads the sparse-index window's first stored block and narrows the
window inside it (``merge_scan_layers(low=, high=)``). The narrowed
window must still hold every tuple keyed in the bounds, whatever the PDT
layers did at its two ends. The histories here put the hostile shapes
there, on a ``Database(block_rows=16)`` store whose stored blocks are the
sparse-index granules:

* the stable row closing each stored block is deleted in the Read-PDT
  (a ghost), and the Write-PDT inserts the key just below it — at the
  window bound in its SID domain — re-inserts it, or deletes its
  neighbours; random ops around the closers follow;
* optionally every row of the first stored block is deleted;
* keys of one or two columns, two-column keys sharing their leading
  value four at a time, so prefix bounds cover runs of equal prefixes.

Every key of the key space (one below and above every stable key) is
queried with ``query_point``, and random bound pairs — full keys and
prefixes, inverted, below and above every key — with ``query_range``,
plain and as a ``count(*)`` with a ``where=`` on the leading column;
all must equal a dict model of the history. ``resolve_batch_positions``
must equal the tuple image and the tuple-at-a-time oracle
(``tests/oracles/scalar_resolve.py``) on one-key and random batches.
The backend and executor come from the environment
(``REPRO_STORAGE_BACKEND`` / ``REPRO_EXECUTOR``).
"""

import random
from bisect import bisect_left

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core import image_rows
from repro.db import KeyNotFound, resolve_batch_positions
from repro.engine import expr as ex

from ..oracles import scalar_resolve
from ..oracles.histories import key_of, make_schema, random_ops, \
    random_row, replay, stable_row

BLOCK_ROWS = 16
N_ROWS = 4 * BLOCK_ROWS                 # stable key numbers 0, 2, ..., 126
KEY_SPACE = 2 * N_ROWS
CLOSERS = list(range(2 * BLOCK_ROWS - 2, KEY_SPACE, 2 * BLOCK_ROWS))
NUMBERS = range(-3, KEY_SPACE + 3)      # beyond either end of the keys
COUNT = ex.AggSpec((), {"n": ("*", "count")})


def history(rng, schema, wipe_first):
    """A Read-PDT batch and a Write-PDT batch (see the module docstring)
    over the stable key numbers."""
    n_key_cols = len(schema.sort_key)
    live = set(range(0, KEY_SPACE, 2))
    lower = []
    if wipe_first:
        lower += [("del", key_of(k, n_key_cols))
                  for k in range(0, 2 * BLOCK_ROWS, 2)]
        live -= set(range(0, 2 * BLOCK_ROWS, 2))
    for c in CLOSERS:
        if c in live and rng.random() < 0.7:
            lower.append(("del", key_of(c, n_key_cols)))
            live.discard(c)
    lower += random_ops(rng, schema, live, CLOSERS, KEY_SPACE, 10)
    upper = []
    for c in CLOSERS:
        for k in (c - 1, c, c + 1):
            if k not in live and rng.random() < 0.6:
                upper.append(("ins", random_row(rng, schema, k)))
                live.add(k)
            elif k in live and rng.random() < 0.3:
                upper.append(("del", key_of(k, n_key_cols)))
                live.discard(k)
    upper += random_ops(rng, schema, live, CLOSERS, KEY_SPACE, 10)
    return lower, upper


def in_bounds(key, low, high) -> bool:
    return key[:len(low)] >= low and key[:len(high)] <= high


def rows_of(rel) -> list:
    return [tuple(int(v) for v in row) for row in rel.rows()]


def scalar_positions(stable, layers, index, keys) -> list:
    out = []
    for key in keys:
        try:
            out.append((True, scalar_resolve.find_rid_by_key(
                stable, layers, index, key)))
        except KeyNotFound:
            out.append((False, scalar_resolve.find_insert_position(
                stable, layers, index, key)))
    return out


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n_key_cols=st.integers(1, 2),
       wipe_first=st.booleans())
def test_narrowed_reads_and_resolves_equal_the_oracles(seed, n_key_cols,
                                                       wipe_first):
    rng = random.Random(seed)
    n = n_key_cols
    schema = make_schema(n)
    rows = [stable_row(k, n) for k in range(0, KEY_SPACE, 2)]
    db = Database(compressed=False, block_rows=BLOCK_ROWS)
    try:
        db.create_table("t", schema, rows)
        lower, upper = history(rng, schema, wipe_first)
        db.apply_batch("t", lower)
        db.manager.propagate_write_to_read("t")
        db.apply_batch("t", upper)
        model = {r[:n]: r for r in rows}
        model = dict(sorted(replay(replay(model, lower, schema), upper,
                                   schema).items()))
        state = db.manager.state_of("t")
        stable, index = state.stable, state.sparse_index
        layers = [state.read_pdt, state.write_pdt]
        assert stable.block_rows == BLOCK_ROWS
        assert not state.read_pdt.is_empty()

        keys = sorted({key_of(k, n) for k in NUMBERS})
        bounds = list(keys)
        if n == 2:  # leading-value prefixes, one beyond either end
            bounds += [(p,) for p in range(-2, KEY_SPACE // 4 + 2)]
        for key in bounds:
            want = [r for k, r in model.items() if in_bounds(k, key, key)]
            assert rows_of(db.query_point("t", key)) == want, key
        for _ in range(60):
            low, high = rng.choice(bounds), rng.choice(bounds)
            want = [r for k, r in model.items() if in_bounds(k, low, high)]
            assert rows_of(db.query_range("t", low, high)) == want, \
                (low, high)
            # A predicate on the leading column adds its own, looser key
            # bounds; the aggregate job's trim must keep the explicit ones.
            lead = ex.between("k0", low[0], high[0])
            assert rows_of(db.query_range(
                "t", low, high, where=lead, aggregate=COUNT)) \
                == [(len(want),)], (low, high)

        image_keys = [r[:n] for r in image_rows(stable, layers)]
        assert image_keys == list(model)
        batches = [[key] for key in keys]
        batches += [sorted(rng.sample(keys, rng.randrange(2, 8)))
                    for _ in range(20)]
        for batch in batches:
            want = [(image_keys[pos] == key if pos < len(image_keys)
                     else False, pos)
                    for key in batch
                    for pos in [bisect_left(image_keys, key)]]
            got = resolve_batch_positions(stable, layers, index, batch)
            assert got == want, batch
            assert got == scalar_positions(stable, layers, index, batch)
    finally:
        db.close()
