"""Serializable scan predicates and partial aggregates for push-down.

The service's shard scan jobs (and the process-executor workers behind
them) cannot run arbitrary Python filters: whatever is pushed below the
scan boundary must travel over a pipe to a spawned worker and produce the
*same bytes* wherever it runs. This module is that closed vocabulary:

* :class:`Expr` — a small predicate tree (column-vs-constant comparisons,
  ``between`` / ``isin`` / the LIKE family from
  :mod:`repro.engine.functions`, combined with and/or/not) that evaluates
  to a boolean mask over one result block and round-trips through a
  JSON-able payload (:meth:`Expr.to_payload` / :func:`expr_from_payload`).
* :class:`AggSpec` — a decomposable aggregate (sum/count/min/max, avg as
  sum+count) with optional group-by keys. Each scan job folds its blocks
  into one deterministic *partial* block (:class:`PartialAggregator`);
  the cursor merges partials from all shards and finalizes with the
  exact dtype and group-ordering semantics of
  :meth:`repro.engine.relation.GroupBy.agg`, so a pushed aggregate is
  indistinguishable from central evaluation.
* :func:`pushdown_stream` — the single evaluation wrapper both the
  in-thread job runner and the worker process apply to a raw
  ``scan_pdt_blocks`` stream. One definition, so the thread leg, the
  process leg, and every crash-redispatch replay produce identical block
  sequences (the skip-based re-dispatch contract depends on this).

Correctness of the partial merge: every supported aggregate is a
commutative monoid over per-group accumulators (sum/count add, min/max
compare, avg carries its sum and count separately), group keys partition
rows disjointly across shard jobs under one pin, and the final merge
sorts groups by key exactly like ``np.unique`` orders composite codes —
so merge(partials(blocks)) == agg(concat(blocks)) row for row.
"""

from __future__ import annotations

import numpy as np

from . import functions as fn
from .relation import EngineError, _combined_codes, group_partials

#: Leaf predicate ops a worker may be asked to evaluate. A payload
#: naming anything else is rejected with :class:`PushdownUnsupported`
#: (the router then falls back to a byte-identical local pass).
LEAF_OPS = frozenset({
    "eq", "ne", "lt", "le", "gt", "ge", "between", "isin",
    "like", "starts_with", "ends_with", "contains",
})
COMBINATOR_OPS = frozenset({"and", "or", "not"})
SUPPORTED_OPS = LEAF_OPS | COMBINATOR_OPS

AGG_FUNCS = ("sum", "count", "avg", "min", "max")


class PushdownUnsupported(ValueError):
    """A payload names an op/aggregate outside the supported vocabulary."""


def _pyval(value):
    """Plain-Python scalar (numpy scalars don't belong in payloads)."""
    if isinstance(value, np.generic):
        return value.item()
    return value


class Expr:
    """One node of a pushed-down predicate tree. Immutable; build with
    the module-level constructors (``eq``, ``between``, ``and_``, ...)."""

    __slots__ = ("op", "column", "value", "children")

    def __init__(self, op, column=None, value=None, children=()):
        if op in COMBINATOR_OPS:
            if not children or (op == "not" and len(children) != 1):
                raise EngineError(f"{op!r} needs child expressions")
        elif op in LEAF_OPS:
            if not isinstance(column, str):
                raise EngineError(f"{op!r} needs a column name")
        else:
            raise PushdownUnsupported(f"unsupported predicate op {op!r}")
        self.op = op
        self.column = column
        self.value = value
        self.children = tuple(children)

    # -- evaluation --------------------------------------------------------

    def mask(self, arrays: dict) -> np.ndarray:
        """Boolean qualifying mask over one block's column arrays."""
        op = self.op
        if op == "and":
            out = self.children[0].mask(arrays)
            for child in self.children[1:]:
                out = out & child.mask(arrays)
            return out
        if op == "or":
            out = self.children[0].mask(arrays)
            for child in self.children[1:]:
                out = out | child.mask(arrays)
            return out
        if op == "not":
            return ~self.children[0].mask(arrays)
        arr = arrays[self.column]
        value = self.value
        if op == "eq":
            result = arr == value
        elif op == "ne":
            result = arr != value
        elif op == "lt":
            result = arr < value
        elif op == "le":
            result = arr <= value
        elif op == "gt":
            result = arr > value
        elif op == "ge":
            result = arr >= value
        elif op == "between":
            result = fn.between(arr, value[0], value[1])
        elif op == "isin":
            result = fn.isin(arr, value)
        elif op == "like":
            result = fn.like(arr, value)
        elif op == "starts_with":
            result = fn.starts_with(arr, value)
        elif op == "ends_with":
            result = fn.ends_with(arr, value)
        else:  # contains
            result = fn.contains(arr, value)
        return np.asarray(result, dtype=bool)

    # -- introspection -----------------------------------------------------

    def columns(self) -> set:
        """Every column the predicate reads (must be in the scan set)."""
        if self.op in COMBINATOR_OPS:
            out: set = set()
            for child in self.children:
                out |= child.columns()
            return out
        return {self.column}

    def key(self) -> tuple:
        """Hashable canonical form — two predicates with equal keys
        evaluate identically (job share-key component)."""
        if self.op in COMBINATOR_OPS:
            return (self.op, tuple(c.key() for c in self.children))
        return (self.op, self.column, self.value)

    def sk_bounds(self, sort_key) -> tuple:
        """Conservative inclusive ``(low, high)`` prefix bounds on the
        leading sort-key column implied by this predicate, for router and
        sparse-index pruning. A *superset* of the qualifying range is
        always safe: the full predicate is re-applied in the job (so a
        strict ``gt`` may return the inclusive bound). ``(None, None)``
        means no pruning information."""
        lead = sort_key[0] if sort_key else None
        if lead is None:
            return None, None
        return self._bounds(lead)

    def _bounds(self, lead: str) -> tuple:
        if self.op == "and":
            low = high = None
            for child in self.children:
                clow, chigh = child._bounds(lead)
                if clow is not None:
                    low = clow if low is None else max(low, clow)
                if chigh is not None:
                    high = chigh if high is None else min(high, chigh)
            return low, high
        if self.op == "or":
            # The union's hull — usable only when *every* branch is
            # bounded on that side (an unbounded branch admits anything).
            lows, highs = zip(*(c._bounds(lead) for c in self.children))
            low = (min(lows) if all(v is not None for v in lows)
                   else None)
            high = (max(highs) if all(v is not None for v in highs)
                    else None)
            return low, high
        if self.op in COMBINATOR_OPS or self.column != lead:
            return None, None
        if self.op == "eq":
            return (self.value,), (self.value,)
        if self.op in ("ge", "gt"):
            return (self.value,), None
        if self.op in ("le", "lt"):
            return None, (self.value,)
        if self.op == "between":
            return (self.value[0],), (self.value[1],)
        if self.op == "isin" and self.value:
            return (min(self.value),), (max(self.value),)
        return None, None

    # -- serialization -----------------------------------------------------

    def to_payload(self):
        """JSON-able nested-list form for the worker pipe."""
        if self.op == "not":
            return [self.op, self.children[0].to_payload()]
        if self.op in COMBINATOR_OPS:
            return [self.op, [c.to_payload() for c in self.children]]
        value = self.value
        if isinstance(value, tuple):
            value = list(value)
        return [self.op, self.column, value]

    def __repr__(self) -> str:
        if self.op in COMBINATOR_OPS:
            inner = ", ".join(repr(c) for c in self.children)
            return f"{self.op}({inner})"
        return f"{self.op}({self.column!r}, {self.value!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


def expr_from_payload(payload) -> Expr:
    """Inverse of :meth:`Expr.to_payload`; raises
    :class:`PushdownUnsupported` on any op outside the vocabulary (the
    worker's version-skew guard)."""
    if not isinstance(payload, (list, tuple)) or not payload:
        raise PushdownUnsupported(f"malformed predicate payload {payload!r}")
    op = payload[0]
    if op == "not":
        return Expr(op, children=(expr_from_payload(payload[1]),))
    if op in COMBINATOR_OPS:
        return Expr(op, children=tuple(
            expr_from_payload(p) for p in payload[1]))
    if op not in LEAF_OPS:
        raise PushdownUnsupported(f"unsupported predicate op {op!r}")
    _op, column, value = payload
    if op in ("between", "isin") and isinstance(value, list):
        value = tuple(value)
    return Expr(op, column, value)


# -- predicate constructors ------------------------------------------------

def eq(column: str, value) -> Expr:
    return Expr("eq", column, _pyval(value))


def ne(column: str, value) -> Expr:
    return Expr("ne", column, _pyval(value))


def lt(column: str, value) -> Expr:
    return Expr("lt", column, _pyval(value))


def le(column: str, value) -> Expr:
    return Expr("le", column, _pyval(value))


def gt(column: str, value) -> Expr:
    return Expr("gt", column, _pyval(value))


def ge(column: str, value) -> Expr:
    return Expr("ge", column, _pyval(value))


def between(column: str, low, high) -> Expr:
    """Inclusive range, like :func:`repro.engine.functions.between`."""
    return Expr("between", column, (_pyval(low), _pyval(high)))


def isin(column: str, values) -> Expr:
    return Expr("isin", column, tuple(sorted(_pyval(v) for v in values)))


def like(column: str, pattern: str) -> Expr:
    return Expr("like", column, str(pattern))


def starts_with(column: str, prefix: str) -> Expr:
    return Expr("starts_with", column, str(prefix))


def ends_with(column: str, suffix: str) -> Expr:
    return Expr("ends_with", column, str(suffix))


def contains(column: str, needle: str) -> Expr:
    return Expr("contains", column, str(needle))


def and_(*exprs: Expr) -> Expr:
    return exprs[0] if len(exprs) == 1 else Expr("and", children=exprs)


def or_(*exprs: Expr) -> Expr:
    return exprs[0] if len(exprs) == 1 else Expr("or", children=exprs)


def not_(expr: Expr) -> Expr:
    return Expr("not", children=(expr,))


# -- partial aggregates ----------------------------------------------------

class AggSpec:
    """A decomposable aggregate: ``AggSpec(("cat",), {"total": ("v",
    "sum"), "n": ("*", "count")})`` — same spec shape as
    :meth:`repro.engine.relation.GroupBy.agg`. ``avg`` decomposes into
    sum+count partials; ``count_distinct`` is *not* decomposable and is
    rejected. ``dtypes`` (column -> numpy dtype str) pins the partial and
    final array dtypes so even empty shards produce deterministic blocks
    — :meth:`bind` fills it from a schema at plan time."""

    __slots__ = ("group_by", "aggs", "dtypes")

    def __init__(self, group_by=(), aggs=None, dtypes=None):
        self.group_by = tuple(group_by)
        items = []
        for name, (col, func) in dict(aggs or {}).items():
            if func not in AGG_FUNCS:
                raise PushdownUnsupported(
                    f"aggregate {func!r} cannot be pushed down")
            if col == "*" and func != "count":
                raise EngineError(f"'*' only aggregates with count, "
                                  f"not {func!r}")
            items.append((str(name), str(col), func))
        if not items:
            raise EngineError("AggSpec needs at least one aggregate")
        self.aggs = tuple(items)
        self.dtypes = dict(dtypes or {})

    def inputs(self) -> list:
        """Columns the aggregation reads (scan-set requirement)."""
        cols = list(self.group_by)
        cols += [col for _n, col, _f in self.aggs if col != "*"]
        return list(dict.fromkeys(cols))

    def output_columns(self) -> tuple:
        """The result relation's columns: keys, then aggregate names."""
        return self.group_by + tuple(name for name, _c, _f in self.aggs)

    def partials(self) -> list:
        """Partial-column descriptors ``(pname, kind, src_col)``; avg
        expands into its sum and count carriers."""
        out = []
        for name, col, func in self.aggs:
            if func == "avg":
                out.append((f"{name}::sum", "sum", col))
                out.append((f"{name}::count", "count", col))
            else:
                out.append((name, func, col))
        return out

    def key(self) -> tuple:
        """Share-key component: equal keys aggregate identically."""
        return ("agg", self.group_by, self.aggs)

    def bind(self, schema) -> "AggSpec":
        """Copy with dtypes pinned from ``schema`` (and columns
        validated)."""
        dtypes = {}
        for col in set(self.inputs()) | set(self.group_by):
            dtypes[col] = np.dtype(
                schema.dtype_of(col).numpy_dtype).str
        return AggSpec(self.group_by,
                       {n: (c, f) for n, c, f in self.aggs}, dtypes)

    def aggregator(self) -> "PartialAggregator":
        return PartialAggregator(self)

    def to_payload(self) -> dict:
        return {"group_by": list(self.group_by),
                "aggs": [[n, c, f] for n, c, f in self.aggs],
                "dtypes": dict(self.dtypes)}

    def __eq__(self, other) -> bool:
        return isinstance(other, AggSpec) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        aggs = ", ".join(f"{n}={f}({c})" for n, c, f in self.aggs)
        return f"AggSpec(group_by={self.group_by}, {aggs})"


def agg_from_payload(payload: dict) -> AggSpec:
    """Inverse of :meth:`AggSpec.to_payload`, with the same vocabulary
    guard as :func:`expr_from_payload`."""
    try:
        aggs = {n: (c, f) for n, c, f in payload["aggs"]}
        return AggSpec(tuple(payload["group_by"]), aggs,
                       payload.get("dtypes"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, PushdownUnsupported):
            raise
        raise PushdownUnsupported(
            f"malformed aggregate payload: {exc}") from None


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


# -- the shared evaluation wrapper -----------------------------------------

def pushdown_stream(stream, where: Expr | None = None,
                    agg: AggSpec | None = None, key_cols=(),
                    low=None, high=None, counter: dict | None = None):
    """Wrap a raw block stream with pushed-down evaluation.

    Filters each ``(rid, arrays)`` block with ``where`` (and, for
    aggregate jobs, with the inclusive ``[low, high]`` sort-key bounds
    over ``key_cols`` — aggregation consumes rows before the cursor's
    key trim could run, so the job applies the full predicate itself).
    Filtered blocks are re-numbered densely; with ``agg`` the stream
    reduces to exactly one partial block (possibly zero rows).

    ``counter`` (mutable dict) accumulates ``rows_in`` (scanned) and
    ``rows_out`` (streamed) — the push-down metrics surface.
    """
    aggregator = agg.aggregator() if agg is not None else None
    trim = agg is not None and (low is not None or high is not None)
    out_rid = 0
    for _rid, arrays in stream:
        n = len(next(iter(arrays.values()))) if arrays else 0
        if counter is not None:
            counter["rows_in"] += n
        mask = None
        if trim:
            key_arrays = [arrays[c] for c in key_cols]
            if low is not None:
                mask = fn.lex_ge(key_arrays, low)
            if high is not None:
                hi_mask = fn.lex_le(key_arrays, high)
                mask = hi_mask if mask is None else mask & hi_mask
        if where is not None:
            where_mask = where.mask(arrays)
            mask = where_mask if mask is None else mask & where_mask
        if mask is not None and not mask.all():
            arrays = {c: a[mask] for c, a in arrays.items()}
            n = int(mask.sum())
        if aggregator is not None:
            if n:
                aggregator.add_block(arrays)
            continue
        if n:
            if counter is not None:
                counter["rows_out"] += n
            yield out_rid, arrays
            out_rid += n
    if aggregator is not None:
        block = aggregator.partial_arrays()
        if counter is not None and block:
            counter["rows_out"] += len(next(iter(block.values())))
        yield 0, block
