"""The synthetic table three of the four workloads share, its update ops
and the numpy / dict oracles that say what the table must look like.

Keys are multiples of 4 so an insert can always take a free key
(``4*i + 1..3``) next to an existing one: deltas scatter over the whole
table instead of appending, which is the hostile case for a column store
and the one the paper measures.
"""

from __future__ import annotations

import numpy as np

from repro import DataType, Schema

SCHEMA = Schema.build(
    ("k", DataType.INT64), ("a", DataType.INT64), ("b", DataType.FLOAT64),
    ("c", DataType.INT64), ("s", DataType.STRING), sort_key=["k"],
)
COLUMNS = ("k", "a", "b", "c", "s")
WORDS = np.array([f"w{i:02d}" for i in range(16)], dtype=object)
KEY_STRIDE = 4
A_RANGE = 1000


def rng_for(seed: int, stream: int):
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([seed, stream])


def base_arrays(rng, n: int) -> dict:
    """``n`` rows sorted by ``k``. ``b`` holds multiples of 1/256 so float
    sums are exact in any order: a pushed partial aggregate merged across
    shards must equal numpy's single pass bit for bit."""
    return {
        "k": np.arange(n, dtype=np.int64) * KEY_STRIDE,
        "a": rng.integers(0, A_RANGE, n).astype(np.int64),
        "b": rng.integers(0, 4096, n) / 256.0,
        "c": rng.integers(0, 1 << 40, n).astype(np.int64),
        "s": WORDS[rng.integers(0, len(WORDS), n)],
    }


def random_value(rng, column: str):
    if column == "a":
        return int(rng.integers(0, A_RANGE))
    if column == "b":
        return float(rng.integers(0, 4096)) / 256.0
    if column == "c":
        return int(rng.integers(0, 1 << 40))
    return str(WORDS[int(rng.integers(0, len(WORDS)))])


def new_row(rng, key: int) -> tuple:
    return (key, random_value(rng, "a"), random_value(rng, "b"),
            random_value(rng, "c"), random_value(rng, "s"))


def scattered_deltas(rng, n_rows: int, n_ops: int) -> list:
    """``n_ops`` ops on distinct rows of a fresh ``n_rows`` table:
    40 % inserts, 40 % modifies, 20 % deletes, uniformly scattered."""
    n_ins = int(n_ops * 0.4)
    n_mod = int(n_ops * 0.4)
    n_del = n_ops - n_ins - n_mod
    picks = rng.choice(n_rows, size=n_ins + n_mod + n_del, replace=False)
    ops = []
    for i in picks[:n_ins]:
        key = int(i) * KEY_STRIDE + int(rng.integers(1, KEY_STRIDE))
        ops.append(("ins", new_row(rng, key)))
    for i in picks[n_ins:n_ins + n_mod]:
        column = COLUMNS[1 + int(rng.integers(0, 4))]
        ops.append(("mod", (int(i) * KEY_STRIDE,), column,
                    random_value(rng, column)))
    for i in picks[n_ins + n_mod:]:
        ops.append(("del", (int(i) * KEY_STRIDE,)))
    return ops


def user_bytes(op) -> int:
    """Bytes of user data an op carries (the denominator of write_amp_x):
    8 per numeric value or key column, the string's length for ``s``."""
    kind = op[0]
    if kind == "ins":
        return 32 + len(op[1][4])
    if kind == "del":
        return 8
    value = op[3]
    return 8 + (len(value) if isinstance(value, str) else 8)


def rows_of(arrays: dict) -> dict:
    """Dict oracle ``{k: [a, b, c, s]}`` of a table image."""
    cols = [arrays[c].tolist() for c in COLUMNS]
    return {k: [a, b, c, s] for k, a, b, c, s in zip(*cols)}


def apply_to_rows(rows: dict, op) -> None:
    """Apply one acknowledged op to a dict oracle."""
    kind = op[0]
    if kind == "ins":
        row = op[1]
        rows[row[0]] = list(row[1:])
    elif kind == "del":
        del rows[op[1][0]]
    else:
        rows[op[1][0]][COLUMNS.index(op[2]) - 1] = op[3]


def arrays_of(rows: dict) -> dict:
    """The sorted columnar image of a dict oracle."""
    keys = sorted(rows)
    out = {"k": np.asarray(keys, dtype=np.int64)}
    body = [rows[k] for k in keys]
    for i, (name, dtype) in enumerate(
            (("a", np.int64), ("b", np.float64), ("c", np.int64))):
        out[name] = np.asarray([r[i] for r in body], dtype=dtype)
    strings = np.empty(len(keys), dtype=object)
    strings[:] = [r[3] for r in body]
    out["s"] = strings
    return out


def merged_image(base: dict, ops) -> dict:
    """numpy oracle: ``base`` with ``ops`` applied, sorted by key. Built
    without going through the database, so a dirty scan that equals it
    proves the MergeScan, not the oracle's agreement with itself."""
    rows = rows_of(base)
    for op in ops:
        apply_to_rows(rows, op)
    return arrays_of(rows)


def same_columns(rel, expected: dict, columns=COLUMNS) -> bool:
    """Is the relation byte-identical to the oracle on ``columns``?"""
    if rel.num_rows != len(expected[columns[0]]):
        return False
    return all(np.array_equal(rel[c], expected[c]) for c in columns)
