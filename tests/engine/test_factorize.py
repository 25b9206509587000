"""``factorize``: one set of dense, order-preserving key codes.

Grouping, distinct, sorting, joins and the pushed aggregator all key on
``repro.engine.relation.factorize``. The property tests compare it with
``np.unique`` (one object column) and with a pure-Python sort of the
row tuples (composite keys). The wide-key tests build composite keys
whose mixed-radix code passes 2**63: four columns of 2**17 distinct
values each. Without re-densifying, the code of ``(a + 8192, b, c, d)``
wraps onto that of ``(a, b, c, d)``, so distinct tuples merge, groups
come back out of key order and a join matches unequal keys.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.relation import Relation, factorize

WIDE = 2 ** 17
WRAP = 2 ** 64 // WIDE ** 3  # a shift of the lead key that wraps the code

# Up to three characters, so ``""`` is drawn too.
text = st.text(alphabet=st.sampled_from(["a", "b", "Z", "é", "ß", "日",
                                         "\u0000", "😀"]),
               max_size=3)


def obj(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = list(values)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(text, max_size=40))
def test_object_codes_equal_np_unique(values):
    column = obj(values)
    codes, (keys,) = factorize([column])
    want_keys, want_codes = np.unique(column, return_inverse=True)
    assert codes.dtype == np.int64
    assert codes.tolist() == want_codes.reshape(-1).tolist()
    assert keys.dtype == object
    assert keys.tolist() == want_keys.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), text, st.booleans()),
                max_size=40))
def test_composite_codes_follow_tuple_order(rows):
    columns = [np.array([r[0] for r in rows], dtype=np.int64),
               obj([r[1] for r in rows]),
               np.array([r[2] for r in rows], dtype=bool)]
    codes, keys = factorize(columns)
    groups = sorted(set(rows))
    assert codes.tolist() == [groups.index(r) for r in rows]
    assert [k.dtype for k in keys] == [c.dtype for c in columns]
    assert list(zip(*(k.tolist() for k in keys))) == groups


def wide_columns(extra) -> dict:
    """Four int64 columns of exactly WIDE distinct values each: the
    diagonal ``(i, i, i, i)`` plus the ``extra`` rows."""
    diagonal = np.arange(WIDE, dtype=np.int64)
    return {c: np.concatenate([diagonal, np.array([row[i] for row in extra],
                                                  dtype=np.int64)])
            for i, c in enumerate("abcd")}


def test_group_by_orders_wide_composite_keys():
    rng = np.random.default_rng(7)
    n = 200_000
    arrays = {c: rng.permutation(n).astype(np.int64) for c in "abcd"}
    out = Relation(arrays).group_by("a", "b", "c", "d").agg(
        n=("*", "count"))
    keys = np.stack([out[c] for c in "abcd"])
    assert out.num_rows == n
    assert (np.lexsort(keys[::-1]) == np.arange(n)).all()
    assert out["n"].tolist() == [1] * n


def test_distinct_keeps_tuples_whose_codes_would_wrap():
    colliding = [(0, 1, 1, 1), (WRAP, 1, 1, 1)]
    rel = Relation(wide_columns(colliding))
    out = rel.distinct("a", "b", "c", "d")
    assert out.num_rows == WIDE + 2
    tail = [tuple(int(out[c][i]) for c in "abcd") for i in (-2, -1)]
    assert tail == colliding
    grouped = rel.group_by("a", "b", "c", "d").agg(n=("*", "count"))
    assert grouped.num_rows == WIDE + 2
    assert grouped["n"].tolist() == [1] * (WIDE + 2)


def test_four_column_join_matches_equal_keys_only():
    left = Relation({**wide_columns([(0, 1, 1, 1)]),
                     "lv": np.arange(WIDE + 1)})
    right = Relation({"a": np.array([WRAP, 5], dtype=np.int64),
                      "b": np.array([1, 5], dtype=np.int64),
                      "c": np.array([1, 5], dtype=np.int64),
                      "d": np.array([1, 5], dtype=np.int64),
                      "rv": np.array([10, 20])})
    joined = left.join(right, ["a", "b", "c", "d"])
    assert joined.num_rows == 1
    assert (int(joined["a"][0]), int(joined["rv"][0])) == (5, 20)
    assert left.join(right, ["a", "b", "c", "d"], how="semi").num_rows == 1
