"""The dict-keyed partial aggregator: one Python accumulator list per group.

This is the engine's earlier ``PartialAggregator``, kept verbatim (with
the helpers it called, including the per-row object min/max loop of the
aggregation kernel) as the differential oracle for the array-partial
aggregator in :mod:`repro.engine.expr`. Every group is keyed by a tuple
of plain Python scalars and every partial is combined with Python
arithmetic, in arrival order: float sums start from ``0`` and add each
block's partial in turn.
"""

from __future__ import annotations

import numpy as np

from repro.engine.relation import EngineError


def _pyval(value):
    """Plain-Python scalar (numpy scalars don't belong in payloads)."""
    if isinstance(value, np.generic):
        return value.item()
    return value


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
    """Per-group ``count``/``sum``/``min``/``max`` of column ``src``,
    rows assigned to groups by ``inv``: int64 sums of integers and bools,
    min/max in the source dtype. Object-column min/max is a per-row
    Python loop and returns a list."""
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


def _py_key(cols, position) -> tuple:
    return tuple(_pyval(col[position]) for col in cols)


class PartialAggregator:
    """Streaming accumulator for one :class:`AggSpec`.

    ``add_block`` folds raw (already filtered) blocks; ``merge`` folds
    another aggregator's partial block; ``partial_arrays`` emits this
    side's deterministic partial block (groups sorted by key);
    ``finalize`` produces the final output arrays with
    ``GroupBy.agg``-identical dtypes, ordering, and empty-input shape.
    """

    def __init__(self, spec: AggSpec):
        self.spec = spec
        self._parts = spec.partials()
        # group key tuple -> accumulator list aligned with self._parts
        self._groups: dict[tuple, list] = {}

    # -- accumulation ------------------------------------------------------

    def _fresh(self) -> list:
        return [0 if kind in ("sum", "count") else None
                for _p, kind, _s in self._parts]

    def _combine(self, state: list, index: int, kind: str, value) -> None:
        if kind in ("sum", "count"):
            state[index] += value
        elif state[index] is None:
            state[index] = value
        elif kind == "min":
            if value < state[index]:
                state[index] = value
        elif value > state[index]:
            state[index] = value

    def add_block(self, arrays: dict) -> None:
        """Fold one raw block (post-filter) into the running groups."""
        if not arrays:
            return
        n = len(next(iter(arrays.values())))
        if n == 0:
            return
        group_cols = [np.asarray(arrays[k]) for k in self.spec.group_by]
        if group_cols:
            codes = _combined_codes(group_cols)
            _uniq, rep, inv = np.unique(
                codes, return_index=True, return_inverse=True)
            n_groups = len(rep)
        else:
            inv = np.zeros(n, dtype=np.int64)
            rep = np.zeros(1, dtype=np.int64)
            n_groups = 1
        keys = [_py_key(group_cols, r) for r in rep]
        for index, (_pname, kind, src) in enumerate(self._parts):
            per_group = group_partials(arrays, inv, n_groups, kind, src)
            for g, key in enumerate(keys):
                state = self._groups.get(key)
                if state is None:
                    state = self._groups[key] = self._fresh()
                self._combine(state, index, kind, _pyval(per_group[g]))

    def merge(self, arrays: dict) -> None:
        """Fold one *partial* block (another aggregator's
        ``partial_arrays`` output) into the running groups."""
        if not arrays:
            return
        group_cols = [arrays[k] for k in self.spec.group_by]
        part_cols = [arrays[p] for p, _k, _s in self._parts]
        n = len(part_cols[0]) if part_cols else 0
        for i in range(n):
            key = _py_key(group_cols, i)
            state = self._groups.get(key)
            if state is None:
                state = self._groups[key] = self._fresh()
            for index, (_p, kind, _s) in enumerate(self._parts):
                self._combine(state, index, kind,
                              _pyval(part_cols[index][i]))

    # -- output ------------------------------------------------------------

    def _src_dtype(self, col: str):
        dt = self.spec.dtypes.get(col)
        return None if dt is None else np.dtype(dt)

    def _keyed_column(self, values, dtype) -> np.ndarray:
        if dtype is None:
            dtype = np.asarray(values).dtype if values else np.float64
        if np.dtype(dtype) == object:
            out = np.empty(len(values), dtype=object)
            out[:] = values
            return out
        return np.array(values, dtype=dtype)

    def _partial_dtype(self, kind: str, src: str):
        if kind == "count":
            return np.dtype(np.int64)
        dt = self._src_dtype(src)
        if kind == "sum":
            if dt is not None and (np.issubdtype(dt, np.integer)
                                   or dt == bool):
                return np.dtype(np.int64)
            return np.dtype(np.float64)
        if dt is not None and np.issubdtype(dt, np.floating):
            return np.dtype(np.float64)
        return dt  # min/max keep the source dtype (None -> infer)

    def partial_arrays(self) -> dict:
        """This side's partial block: group columns + partial columns,
        groups sorted ascending by key — deterministic for any input
        block order, which the crash-redispatch skip contract needs."""
        keys = sorted(self._groups)
        out: dict = {}
        for i, col in enumerate(self.spec.group_by):
            out[col] = self._keyed_column(
                [key[i] for key in keys], self._src_dtype(col))
        for index, (pname, kind, src) in enumerate(self._parts):
            vals = [self._groups[key][index] for key in keys]
            out[pname] = self._keyed_column(
                vals, self._partial_dtype(kind, src))
        return out

    def finalize(self) -> dict:
        """Final output arrays, exactly as ``GroupBy.agg`` would produce
        them from the concatenated input — including its empty-input
        quirks (a single zero row for global aggregates, empty float64
        columns for grouped ones) and int-preserving min/max dtypes."""
        spec = self.spec
        keys = sorted(self._groups)
        out: dict = {}
        if not keys:
            if spec.group_by:
                for col in spec.group_by:
                    dt = self._src_dtype(col)
                    out[col] = self._keyed_column([], dt)
                for name, _col, _func in spec.aggs:
                    out[name] = np.empty(0, dtype=np.float64)
            else:
                for name, _col, func in spec.aggs:
                    out[name] = (np.zeros(1, dtype=np.int64)
                                 if func == "count"
                                 else np.zeros(1, dtype=np.float64))
            return out
        for i, col in enumerate(spec.group_by):
            out[col] = self._keyed_column(
                [key[i] for key in keys], self._src_dtype(col))
        part_index = {p: j for j, (p, _k, _s) in enumerate(self._parts)}

        def column_of(pname, kind, src):
            vals = [self._groups[key][part_index[pname]] for key in keys]
            return self._keyed_column(vals, self._partial_dtype(kind, src))

        for name, col, func in spec.aggs:
            if func == "avg":
                sums = column_of(f"{name}::sum", "sum", col)
                counts = column_of(f"{name}::count", "count", col)
                out[name] = sums / np.maximum(counts, 1)
            else:
                out[name] = column_of(name, func, col)
        return out

