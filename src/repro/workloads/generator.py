"""Microbenchmark workload generator (paper section 4, Figures 16-18).

Builds SK-ordered tables with a configurable number of key columns (1-4),
key type (int or string), and data columns, and generates *scattered*
update workloads (insert/delete/modify mixes at a given rate per 100
tuples) applied identically to a PDT and a VDT. This is the controlled
environment for the MergeScan comparisons.

Keys are generated with gaps (even values) so inserts (odd values) land
uniformly across the table, which is what makes ordered-table updates the
worst case the paper targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..core.pdt import PDT
from ..db.update_processor import BatchUpdater, PositionalUpdater
from ..storage.schema import DataType, Schema
from ..storage.sparse_index import SparseIndex
from ..storage.table import StableTable
from ..vdt.vdt import VDT

_KEY_SPLIT_BASE = 1000  # per-column radix for multi-column keys


def _key_parts(value: int, n_cols: int) -> tuple[int, ...]:
    """Split an ordered scalar into ``n_cols`` lexicographic components."""
    parts = []
    for _ in range(n_cols - 1):
        parts.append(value % _KEY_SPLIT_BASE)
        value //= _KEY_SPLIT_BASE
    parts.append(value)
    return tuple(reversed(parts))


def _key_tuple(value: int, n_cols: int, key_type: str) -> tuple:
    parts = _key_parts(value, n_cols)
    if key_type == "str":
        return tuple(f"key-{p:012d}" for p in parts)
    return parts


@dataclass
class MicroWorkload:
    """A generated table plus a scattered update stream."""

    table: StableTable
    sparse_index: SparseIndex
    ops: list[tuple] = field(default_factory=list)
    key_columns: tuple[str, ...] = ()
    data_columns: tuple[str, ...] = ()


def micro_schema(n_key_cols: int, key_type: str, n_data_cols: int) -> Schema:
    if key_type not in ("int", "str"):
        raise ValueError("key_type must be 'int' or 'str'")
    if not 1 <= n_key_cols <= 4:
        raise ValueError("n_key_cols must be in 1..4")
    kt = DataType.INT64 if key_type == "int" else DataType.STRING
    cols = [(f"k{i}", kt) for i in range(n_key_cols)]
    cols += [(f"v{i}", DataType.INT64) for i in range(n_data_cols)]
    return Schema.build(*cols, sort_key=tuple(f"k{i}" for i in
                                              range(n_key_cols)))


def build_table(
    n_rows: int,
    n_key_cols: int = 1,
    key_type: str = "int",
    n_data_cols: int = 4,
    name: str = "micro",
    seed: int = 0,
) -> StableTable:
    """SK-ordered table with even keys 0, 2, 4, ... and random payloads."""
    schema = micro_schema(n_key_cols, key_type, n_data_cols)
    rng = np.random.RandomState(seed)
    arrays: dict[str, np.ndarray] = {}
    key_values = np.arange(n_rows, dtype=np.int64) * 2
    parts = [
        np.asarray([_key_parts(int(v), n_key_cols)[c] for v in key_values],
                   dtype=np.int64)
        for c in range(n_key_cols)
    ]
    for c in range(n_key_cols):
        if key_type == "str":
            col = np.empty(n_rows, dtype=object)
            col[:] = [f"key-{p:012d}" for p in parts[c]]
            arrays[f"k{c}"] = col
        else:
            arrays[f"k{c}"] = parts[c]
    for d in range(n_data_cols):
        arrays[f"v{d}"] = rng.randint(0, 1_000_000, size=n_rows).astype(
            np.int64
        )
    return StableTable.from_arrays(name, schema, arrays)


def generate_ops(
    table: StableTable,
    updates_per_100: float,
    seed: int = 1,
    mix: tuple[float, float, float] = (0.4, 0.3, 0.3),
) -> list[tuple]:
    """A scattered stream of ``("ins", row) | ("del", sk) | ("mod", sk,
    col, value)`` ops at the given rate.

    Each op targets a distinct key (inserts use odd key values; deletes and
    modifies hit distinct stable tuples), which keeps VDT application
    simple without changing the merge-cost profile the benchmarks measure.
    """
    schema = table.schema
    n_key_cols = len(schema.sort_key)
    key_type = "str" if schema.dtype_of(schema.sort_key[0]) is \
        DataType.STRING else "int"
    data_cols = [c for c in schema.column_names if c not in schema.sort_key]
    n_rows = table.num_rows
    n_ops = int(round(n_rows * updates_per_100 / 100.0))
    rng = random.Random(seed)
    p_ins, p_del, p_mod = mix
    ops: list[tuple] = []
    used_stable: set[int] = set()
    used_odd: set[int] = set()
    cols = {c: table.column(c) for c in schema.column_names}

    def fresh_stable_row() -> int | None:
        for _ in range(64):
            i = rng.randrange(n_rows)
            if i not in used_stable:
                used_stable.add(i)
                return i
        return None

    while len(ops) < n_ops:
        roll = rng.random()
        if roll < p_ins or n_rows == 0:
            value = rng.randrange(max(n_rows, 1)) * 2 + 1
            if value in used_odd:
                continue
            used_odd.add(value)
            key = _key_tuple(value, n_key_cols, key_type)
            row = key + tuple(
                rng.randrange(1_000_000) for _ in data_cols
            )
            ops.append(("ins", row))
        elif roll < p_ins + p_del:
            i = fresh_stable_row()
            if i is None:
                continue
            ops.append(("del", tuple(
                cols[c][i] for c in schema.sort_key
            )))
        else:
            i = fresh_stable_row()
            if i is None:
                continue
            sk = tuple(cols[c][i] for c in schema.sort_key)
            col = data_cols[rng.randrange(len(data_cols))]
            current = tuple(
                cols[c][i] for c in schema.column_names
            )
            ops.append(
                ("mod", sk, col, rng.randrange(1_000_000), current)
            )
    return ops


def canonical_ops(ops) -> list[tuple]:
    """Strip the VDT-only trailing fields off a generated op stream,
    yielding the ``("ins", row) | ("del", sk) | ("mod", sk, col, value)``
    form the batch update path consumes."""
    return [op if op[0] != "mod" else op[:4] for op in ops]


def apply_ops_pdt(table: StableTable, ops, sparse_index=None,
                  fanout: int = 32, bulk: bool = False) -> PDT:
    """Apply a generated op stream through the positional machinery.

    ``bulk=True`` routes the whole stream through
    :class:`~repro.db.update_processor.BatchUpdater` in one batch; the
    default per-op scalar path is the differential-testing oracle (and
    what the maintenance-cost benchmarks deliberately measure).
    """
    pdt = PDT(table.schema, fanout=fanout)
    if bulk:
        BatchUpdater(table, [pdt], sparse_index).apply(canonical_ops(ops))
        return pdt
    updater = PositionalUpdater(table, [pdt], sparse_index)
    for op in ops:
        if op[0] == "ins":
            updater.insert(op[1])
        elif op[0] == "del":
            updater.delete_by_key(op[1])
        else:
            updater.modify_by_key(op[1], op[2], op[3])
    return pdt


def apply_ops_vdt(table: StableTable, ops) -> VDT:
    """Apply the same op stream to the value-based baseline."""
    vdt = VDT(table.schema)
    for op in ops:
        if op[0] == "ins":
            vdt.add_insert(op[1])
        elif op[0] == "del":
            vdt.add_delete(op[1])
        else:
            vdt.add_modify(op[4], table.schema.column_index(op[2]), op[3])
    return vdt


def build_workload(
    n_rows: int,
    updates_per_100: float,
    n_key_cols: int = 1,
    key_type: str = "int",
    n_data_cols: int = 4,
    seed: int = 0,
    granularity: int = 4096,
) -> MicroWorkload:
    """Table + sparse index + op stream in one call."""
    table = build_table(
        n_rows, n_key_cols=n_key_cols, key_type=key_type,
        n_data_cols=n_data_cols, seed=seed,
    )
    index = SparseIndex(table, granularity=granularity)
    ops = generate_ops(table, updates_per_100, seed=seed + 1)
    schema = table.schema
    return MicroWorkload(
        table=table,
        sparse_index=index,
        ops=ops,
        key_columns=tuple(schema.sort_key),
        data_columns=tuple(
            c for c in schema.column_names if c not in schema.sort_key
        ),
    )
