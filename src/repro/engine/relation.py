"""A small vectorized relational dataflow engine over numpy columns.

This is the reproduction's stand-in for the VectorWise execution engine:
queries are expressed as chains of materialized, column-vector operators —
filter, project, equi-join (inner/left/semi/anti), grouped aggregation,
sort, limit — enough to run all 22 TPC-H queries (:mod:`repro.tpch.queries`).

Keys of any type (including strings and multi-column composites) are
*factorized* (:func:`factorize`) into dense, order-preserving integer
codes, after which joins, grouping, sorting, and distinct are uniform
vectorized integer operations.
"""

from __future__ import annotations

import numpy as np


class EngineError(RuntimeError):
    """Malformed query construction (unknown column, arity mismatch...)."""


def _as_object_array(values) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    arr[:] = list(values)
    return arr


def _factorize_one(column) -> tuple:
    """``(codes, uniques)`` of one column: dense int64 codes in the
    order of the sorted distinct values. Object (string) columns go
    through a sorted set and a dict, never an object ``np.unique``."""
    column = np.asarray(column)
    if column.dtype == object:
        values = column.tolist()
        uniques = sorted(set(values))
        lookup = {value: code for code, value in enumerate(uniques)}
        codes = np.fromiter(map(lookup.__getitem__, values), np.int64,
                            count=len(values))
        return codes, _as_object_array(uniques)
    uniques, inverse = np.unique(column, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False), uniques


#: Composite codes are re-densified before a multiply could pass this.
_CODE_LIMIT = 2 ** 62


def factorize(columns) -> tuple:
    """Factorize the row-wise tuples of ``columns`` (one or more equal-
    length arrays): ``(codes, keys)`` where ``codes`` numbers each row's
    tuple densely from 0 in lexicographic tuple order and ``keys`` holds
    one array per column with each group's key values in code order.
    Composite codes are re-densified whenever the next multiply could
    pass 2**62, so they never overflow int64 (for fewer than 2**31
    rows). Grouping, distinct, sorting, joins and the pushed aggregator
    all key on these codes."""
    columns = list(columns)
    if not columns:
        raise EngineError("composite key needs at least one column")
    codes, uniques = _factorize_one(columns[0])
    if len(columns) == 1:
        return codes, [uniques]
    bound = len(uniques)
    for column in columns[1:]:
        inverse, uniques = _factorize_one(column)
        k = max(len(uniques), 1)
        if bound * k > _CODE_LIMIT:
            _, codes = np.unique(codes, return_inverse=True)
            bound = int(codes.max()) + 1
        codes = codes * k + inverse
        bound *= k
    _, first, codes = np.unique(codes, return_index=True,
                                return_inverse=True)
    return (codes.reshape(-1).astype(np.int64, copy=False),
            [np.asarray(column)[first] for column in columns])


def group_partials(arrays, inv, n_groups, kind, src):
    """Per-group ``count``/``sum``/``min``/``max`` of column ``src`` of
    ``arrays`` (any name -> array mapping), rows assigned to groups by
    ``inv``. The one aggregation kernel: :class:`GroupBy` and the pushed
    :class:`~repro.engine.expr.PartialAggregator` both call it, so both
    are exact on integers (int64 sums of integers and bools, min/max in
    the source dtype — never through float64). Object-column min/max
    takes the per-group min/max of the column's order-preserving codes
    and returns an object array."""
    if kind == "count":
        return np.bincount(inv, minlength=n_groups)
    values = np.asarray(arrays[src])
    if kind == "sum":
        if values.dtype == object:
            raise EngineError("sum over non-numeric column")
        if np.issubdtype(values.dtype, np.integer) \
                or values.dtype == bool:
            acc = np.zeros(n_groups, dtype=np.int64)
            np.add.at(acc, inv, values.astype(np.int64))
            return acc
        return np.bincount(inv, weights=values.astype(np.float64),
                           minlength=n_groups)
    # min / max
    ufunc = np.minimum if kind == "min" else np.maximum
    if values.dtype == object:
        codes, uniques = _factorize_one(values)
        acc = np.full(n_groups, len(uniques) if kind == "min" else -1)
        ufunc.at(acc, inv, codes)
        return uniques[acc]
    if values.dtype == bool:
        acc = np.full(n_groups, kind == "min")
    elif np.issubdtype(values.dtype, np.integer):
        info = np.iinfo(values.dtype)
        fill = info.max if kind == "min" else info.min
        acc = np.full(n_groups, fill, dtype=values.dtype)
    else:
        fill = np.inf if kind == "min" else -np.inf
        acc = np.full(n_groups, fill, dtype=np.float64)
        values = values.astype(np.float64)
    ufunc.at(acc, inv, values)
    return acc


class Relation:
    """An immutable bag of equal-length named numpy columns."""

    def __init__(self, columns: dict):
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise EngineError(f"ragged columns: { {k: len(v) for k, v in columns.items()} }")
        self._cols = {k: np.asarray(v) if not isinstance(v, np.ndarray) else v
                      for k, v in columns.items()}
        self.num_rows = lengths.pop() if lengths else 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_batches(cls, columns, stream) -> "Relation":
        """Materialize a ``(first_rid, {col: array})`` batch stream."""
        pieces: dict[str, list] = {c: [] for c in columns}
        for _, arrays in stream:
            for c in columns:
                pieces[c].append(arrays[c])
        out = {}
        for c in columns:
            if len(pieces[c]) == 1:
                out[c] = pieces[c][0]  # single block: no concat copy
            elif pieces[c]:
                out[c] = np.concatenate(pieces[c])
            else:
                out[c] = np.empty(0, dtype=object)
        return cls(out)

    @classmethod
    def from_rows(cls, names, rows) -> "Relation":
        cols = {}
        for i, name in enumerate(names):
            values = [r[i] for r in rows]
            if values and isinstance(values[0], str):
                cols[name] = _as_object_array(values)
            else:
                cols[name] = np.asarray(values)
        if not rows:
            cols = {name: np.empty(0, dtype=object) for name in names}
        return cls(cols)

    # -- basic access ----------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return list(self._cols)

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._cols[name]
        except KeyError:
            raise EngineError(
                f"unknown column {name!r}; have {list(self._cols)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._cols

    def __len__(self) -> int:
        return self.num_rows

    def rows(self) -> list[tuple]:
        names = self.column_names
        return [
            tuple(self._cols[n][i] for n in names) for i in range(self.num_rows)
        ]

    def to_dict(self) -> dict:
        return dict(self._cols)

    def __repr__(self) -> str:
        return f"Relation(rows={self.num_rows}, cols={self.column_names})"

    # -- row-preserving operators ------------------------------------------------

    def filter(self, mask: np.ndarray) -> "Relation":
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self.num_rows:
            raise EngineError("filter mask length mismatch")
        return Relation({k: v[mask] for k, v in self._cols.items()})

    def select(self, *names: str) -> "Relation":
        return Relation({n: self[n] for n in names})

    def rename(self, **mapping: str) -> "Relation":
        """``rename(old=new)``: relabel columns."""
        cols = {}
        for name, arr in self._cols.items():
            cols[mapping.get(name, name)] = arr
        return Relation(cols)

    def with_columns(self, **arrays) -> "Relation":
        cols = dict(self._cols)
        for name, arr in arrays.items():
            arr = np.asarray(arr) if not isinstance(arr, np.ndarray) else arr
            if arr.ndim == 0:
                arr = np.full(self.num_rows, arr[()])
            if len(arr) != self.num_rows:
                raise EngineError(f"column {name!r} length mismatch")
            cols[name] = arr
        return Relation(cols)

    def take(self, positions) -> "Relation":
        idx = np.asarray(positions)
        return Relation({k: v[idx] for k, v in self._cols.items()})

    def concat(self, other: "Relation") -> "Relation":
        if set(self._cols) != set(other._cols):
            raise EngineError("concat requires identical column sets")
        return Relation(
            {k: np.concatenate([v, other[k]]) for k, v in self._cols.items()}
        )

    def distinct(self, *names: str) -> "Relation":
        """Unique rows over ``names`` (all columns if empty)."""
        names = names or tuple(self.column_names)
        if self.num_rows == 0:
            return self.select(*names)
        codes, _keys = factorize([self[n] for n in names])
        _, first = np.unique(codes, return_index=True)
        return Relation({n: self[n][np.sort(first)] for n in names})

    # -- joins ----------------------------------------------------------------

    def join(
        self,
        other: "Relation",
        left_on,
        right_on=None,
        how: str = "inner",
        suffix: str = "_r",
    ) -> "Relation":
        """Equi-join. ``how`` is inner | left | semi | anti.

        semi/anti return (filtered) left rows only. left joins add a
        boolean ``_matched`` column; unmatched right columns hold zeros /
        empty strings.
        """
        left_on = [left_on] if isinstance(left_on, str) else list(left_on)
        right_on = (
            left_on if right_on is None
            else [right_on] if isinstance(right_on, str) else list(right_on)
        )
        if len(left_on) != len(right_on):
            raise EngineError("join key arity mismatch")
        if how not in ("inner", "left", "semi", "anti"):
            raise EngineError(f"unsupported join type {how!r}")

        lcodes, rcodes = self._join_codes(other, left_on, right_on)
        order = np.argsort(rcodes, kind="stable")
        sorted_codes = rcodes[order]
        lo = np.searchsorted(sorted_codes, lcodes, side="left")
        hi = np.searchsorted(sorted_codes, lcodes, side="right")
        counts = hi - lo

        if how == "semi":
            return self.filter(counts > 0)
        if how == "anti":
            return self.filter(counts == 0)

        if how == "left":
            out_counts = np.maximum(counts, 1)
        else:
            out_counts = counts
        total = int(out_counts.sum())
        left_idx = np.repeat(np.arange(self.num_rows), out_counts)
        starts = np.zeros(self.num_rows, dtype=np.int64)
        np.cumsum(out_counts[:-1], out=starts[1:])
        offsets = np.arange(total) - np.repeat(starts, out_counts)
        matched = np.repeat(counts > 0, out_counts)
        right_pos = np.repeat(lo, out_counts) + offsets
        right_pos = np.where(matched, right_pos, 0)
        right_idx = order[np.clip(right_pos, 0, max(len(order) - 1, 0))] \
            if len(order) else np.zeros(total, dtype=np.int64)

        cols = {k: v[left_idx] for k, v in self._cols.items()}
        for name, arr in other._cols.items():
            out_name = name if name not in cols else name + suffix
            if len(order):
                taken = arr[right_idx]
            else:
                taken = self._null_column(arr, total)
            if how == "left":
                taken = self._mask_unmatched(taken, matched)
            cols[out_name] = taken
        if how == "left":
            cols["_matched"] = matched
        return Relation(cols)

    def _join_codes(self, other, left_on, right_on):
        codes, _keys = factorize(
            np.concatenate([self[lname], other[rname]])
            for lname, rname in zip(left_on, right_on))
        return codes[: self.num_rows], codes[self.num_rows:]

    @staticmethod
    def _null_column(template: np.ndarray, n: int) -> np.ndarray:
        if template.dtype == object:
            out = np.empty(n, dtype=object)
            out[:] = ""
            return out
        return np.zeros(n, dtype=template.dtype)

    @staticmethod
    def _mask_unmatched(arr: np.ndarray, matched: np.ndarray) -> np.ndarray:
        out = arr.copy()
        if out.dtype == object:
            out[~matched] = ""
        else:
            out[~matched] = 0
        return out

    # -- aggregation -------------------------------------------------------------

    def group_by(self, *keys: str) -> "GroupBy":
        return GroupBy(self, list(keys))

    # -- ordering ---------------------------------------------------------------

    def order_by(self, *spec) -> "Relation":
        """``order_by(("col", "asc"|"desc"), ...)`` or plain column names
        (ascending). Stable across equal keys."""
        if self.num_rows == 0 or not spec:
            return self
        norm = [
            (s, "asc") if isinstance(s, str) else (s[0], s[1]) for s in spec
        ]
        # lexsort sorts by the LAST key first; feed keys reversed.
        code_arrays = []
        for name, direction in reversed(norm):
            arr = self[name]
            if arr.dtype == object:
                codes = factorize([arr])[0]
            else:
                codes = arr
            if direction == "desc":
                codes = -codes.astype(np.float64) if codes.dtype != object \
                    else codes
            elif direction != "asc":
                raise EngineError(f"bad sort direction {direction!r}")
            code_arrays.append(codes)
        order = np.lexsort(code_arrays)
        return self.take(order)

    def limit(self, n: int) -> "Relation":
        return Relation({k: v[:n] for k, v in self._cols.items()})


class GroupBy:
    """Grouped aggregation: ``rel.group_by("a").agg(x=("v", "sum"))``.

    Supported functions: sum, count, avg, min, max, count_distinct.
    ``("*", "count")`` counts rows. With no keys, aggregates globally
    (always returning exactly one row).
    """

    _FUNCS = ("sum", "count", "avg", "min", "max", "count_distinct")

    def __init__(self, relation: Relation, keys: list[str]):
        self.relation = relation
        self.keys = keys

    def agg(self, **specs) -> Relation:
        rel = self.relation
        for name, (col, func) in specs.items():
            if func not in self._FUNCS:
                raise EngineError(f"unknown aggregate {func!r}")
            if col != "*" and col not in rel:
                raise EngineError(f"unknown aggregate column {col!r}")

        if not self.keys:
            group_ids = np.zeros(rel.num_rows, dtype=np.int64)
            n_groups = 1
            key_values = []
        else:
            group_ids, key_values = factorize([rel[k] for k in self.keys])
            n_groups = len(key_values[0])

        out: dict[str, np.ndarray] = dict(zip(self.keys, key_values))
        for name, (col, func) in specs.items():
            out[name] = self._compute(rel, group_ids, n_groups, col, func)
        return Relation(out)

    def _compute(self, rel, group_ids, n_groups, col, func) -> np.ndarray:
        if rel.num_rows == 0:
            if not self.keys and func in ("count", "count_distinct"):
                return np.zeros(1, dtype=np.int64)
            if not self.keys:
                return np.zeros(1, dtype=np.float64)
            return np.empty(0, dtype=np.float64)
        if func == "count_distinct":
            _codes, (pair_groups, _values) = factorize([group_ids, rel[col]])
            return np.bincount(pair_groups, minlength=n_groups)
        if func == "avg":
            sums = group_partials(rel, group_ids, n_groups, "sum", col)
            counts = np.bincount(group_ids, minlength=n_groups)
            return sums / np.maximum(counts, 1)
        return group_partials(rel, group_ids, n_groups, func, col)
