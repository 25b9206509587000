"""A small vectorized relational dataflow engine over numpy columns.

This is the reproduction's stand-in for the VectorWise execution engine:
queries are expressed as chains of materialized, column-vector operators —
filter, project, equi-join (inner/left/semi/anti), grouped aggregation,
sort, limit — enough to run all 22 TPC-H queries (:mod:`repro.tpch.queries`).

Keys of any type (including strings and multi-column composites) are
*factorized* into dense integer codes with :func:`numpy.unique`, after
which joins, grouping, sorting, and distinct are uniform vectorized
integer operations.
"""

from __future__ import annotations

import numpy as np


class EngineError(RuntimeError):
    """Malformed query construction (unknown column, arity mismatch...)."""


def _as_object_array(values) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    arr[:] = list(values)
    return arr


def _codes_of(column: np.ndarray) -> np.ndarray:
    """Dense order-preserving integer codes for one column."""
    _, inverse = np.unique(column, return_inverse=True)
    return inverse.astype(np.int64)


def _combined_codes(columns) -> np.ndarray:
    """Order-preserving codes for a composite key (row-wise tuples)."""
    codes = None
    for column in columns:
        inv = _codes_of(column)
        k = int(inv.max()) + 1 if len(inv) else 1
        codes = inv if codes is None else codes * k + inv
    if codes is None:
        raise EngineError("composite key needs at least one column")
    return codes


def group_partials(arrays, inv, n_groups, kind, src):
    """Per-group ``count``/``sum``/``min``/``max`` of column ``src`` of
    ``arrays`` (any name -> array mapping), rows assigned to groups by
    ``inv``. The one aggregation kernel: :class:`GroupBy` and the pushed
    :class:`~repro.engine.expr.PartialAggregator` both call it, so both
    are exact on integers (int64 sums of integers and bools, min/max in
    the source dtype — never through float64). Object-column min/max
    returns a list."""
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
    if values.dtype == object:
        out = [None] * n_groups
        better = (lambda a, b: a < b) if kind == "min" \
            else (lambda a, b: a > b)
        for gid, val in zip(inv, values):
            if out[gid] is None or better(val, out[gid]):
                out[gid] = val
        return out
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
    if kind == "min":
        np.minimum.at(acc, inv, values)
    else:
        np.maximum.at(acc, inv, values)
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
        codes = _combined_codes([self[n] for n in names])
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
        lcodes = rcodes = None
        for lname, rname in zip(left_on, right_on):
            both = np.concatenate([self[lname], other[rname]])
            inv = _codes_of(both)
            k = int(inv.max()) + 1 if len(inv) else 1
            linv, rinv = inv[: self.num_rows], inv[self.num_rows:]
            if lcodes is None:
                lcodes, rcodes = linv, rinv
            else:
                lcodes = lcodes * k + linv
                rcodes = rcodes * k + rinv
        return lcodes, rcodes

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
                codes = _codes_of(arr)
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
            rep_positions = np.zeros(0, dtype=np.int64)
        else:
            codes = _combined_codes([rel[k] for k in self.keys])
            uniq, rep_positions, group_ids = np.unique(
                codes, return_index=True, return_inverse=True
            )
            n_groups = len(uniq)

        out: dict[str, np.ndarray] = {}
        for key in self.keys:
            out[key] = rel[key][rep_positions]
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
            value_codes = _codes_of(rel[col])
            k = int(value_codes.max()) + 1
            uniq_pairs = np.unique(group_ids * k + value_codes)
            return np.bincount(
                (uniq_pairs // k).astype(np.int64), minlength=n_groups
            )
        if func == "avg":
            sums = group_partials(rel, group_ids, n_groups, "sum", col)
            counts = np.bincount(group_ids, minlength=n_groups)
            return sums / np.maximum(counts, 1)
        out = group_partials(rel, group_ids, n_groups, func, col)
        return _as_object_array(out) if isinstance(out, list) else out
