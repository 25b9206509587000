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
* :func:`pushdown_stream` — the single evaluation wrapper the shard-scan
  pipeline (:func:`repro.engine.scan.shard_scan_stream`) applies to the
  merge's blocks, in the calling thread or a worker process. One
  definition, so the thread leg, the process leg, and every
  crash-redispatch replay produce identical block sequences (the
  skip-based re-dispatch contract depends on this).

Correctness of the partial merge: every supported aggregate is a
commutative monoid over per-group accumulators (sum/count add, min/max
compare, avg carries its sum and count separately), group keys partition
rows disjointly across shard jobs under one pin, and partials are keyed
by the same order-preserving factorized codes
(:func:`~repro.engine.relation.factorize`) ``GroupBy.agg`` groups by —
so merge(partials(blocks)) == agg(concat(blocks)) row for row. Partials
are arrays combined by the one aggregation kernel; a float sum adds each
group's block partials in arrival order, starting from 0.
"""

from __future__ import annotations

import numpy as np

from . import functions as fn
from .relation import EngineError, factorize, group_partials

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
        evaluate identically (equality and hashing use it)."""
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
        """Hashable canonical form: equal keys aggregate identically."""
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


class PartialAggregator:
    """Streaming accumulator for one :class:`AggSpec`, holding *partial
    blocks*: arrays of group key columns and partial columns, groups
    sorted by key.

    ``add_block`` reduces one raw (already filtered) block to a partial
    block with :func:`~repro.engine.relation.group_partials`; ``merge``
    takes another aggregator's partial block as is. Buffered blocks are
    combined by the same kernel over the factorized group keys (count
    partials add up as sums; sum/min/max keep their kind): when
    ``partial_arrays`` or ``finalize`` is asked, and whenever the buffer
    grows past twice the rows of the last combined result, which bounds
    memory for high-cardinality keys. Each group's float sum adds its
    partials in arrival order starting from 0, however the buffer was
    cut. ``finalize`` produces the final output arrays with
    ``GroupBy.agg``-identical dtypes, ordering, and empty-input shape.
    """

    def __init__(self, spec: AggSpec):
        self.spec = spec
        self._parts = spec.partials()
        self._lead = self._parts[0][0]  # a column every partial block has
        # The combine step: each partial column re-aggregated by itself.
        self._merge_parts = [(p, "sum" if kind == "count" else kind, p)
                             for p, kind, _s in self._parts]
        self._blocks: list[dict] = []  # partial blocks, arrival order
        self._rows = 0       # rows held in self._blocks
        self._combined = 0   # rows of the last combined result

    # -- accumulation ------------------------------------------------------

    def add_block(self, arrays: dict, rows: int | None = None) -> None:
        """Fold one raw block (post-filter) of ``rows`` rows — by default
        the length of its columns — into the running groups."""
        if rows is None:
            rows = len(next(iter(arrays.values()))) if arrays else 0
        if rows:
            self._push(self._reduce(arrays, rows, self._parts))

    def merge(self, arrays: dict) -> None:
        """Fold one *partial* block (another aggregator's
        ``partial_arrays`` output) into the running groups."""
        if arrays and len(arrays[self._lead]):
            self._push(arrays)

    def _reduce(self, arrays: dict, rows: int, parts) -> dict:
        """One partial block of ``arrays``: a row per group, in key order."""
        group_by = self.spec.group_by
        if group_by:
            inv, keys = factorize([arrays[k] for k in group_by])
            n_groups = len(keys[0])
        else:
            inv, keys, n_groups = np.zeros(rows, dtype=np.int64), [], 1
        out = dict(zip(group_by, keys))
        for pname, kind, src in parts:
            out[pname] = group_partials(arrays, inv, n_groups, kind, src)
        return out

    def _push(self, block: dict) -> None:
        self._blocks.append(block)
        self._rows += len(block[self._lead])
        if self._rows > 2 * self._combined:
            self._combine()

    def _combine(self) -> dict | None:
        """Combine the buffered partial blocks into one (``None`` if
        nothing was added)."""
        if len(self._blocks) > 1:
            cat = {c: np.concatenate([b[c] for b in self._blocks])
                   for c in self._blocks[0]}
            block = self._reduce(cat, self._rows, self._merge_parts)
            self._blocks = [block]
            self._rows = len(block[self._lead])
        self._combined = self._rows
        return self._blocks[0] if self._blocks else None

    # -- output ------------------------------------------------------------

    def _src_dtype(self, col: str):
        dt = self.spec.dtypes.get(col)
        return None if dt is None else np.dtype(dt)

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
        return dt  # min/max keep the source dtype (None -> as computed)

    def _dtypes(self) -> dict:
        """Partial-block column -> pinned dtype (``None``: unpinned)."""
        out = {col: self._src_dtype(col) for col in self.spec.group_by}
        for pname, kind, src in self._parts:
            out[pname] = self._partial_dtype(kind, src)
        return out

    def partial_arrays(self) -> dict:
        """This side's partial block: group columns + partial columns,
        groups sorted ascending by key — deterministic for any input
        block order, which the crash-redispatch skip contract needs."""
        block = self._combine()
        if block is None:
            return {c: np.empty(0, dtype=np.float64 if dt is None else dt)
                    for c, dt in self._dtypes().items()}
        return {c: block[c] if dt is None else block[c].astype(dt, copy=False)
                for c, dt in self._dtypes().items()}

    def finalize(self) -> dict:
        """Final output arrays, exactly as ``GroupBy.agg`` would produce
        them from the concatenated input — including its empty-input
        quirks (a single zero row for global aggregates, empty float64
        columns for grouped ones) and int-preserving min/max dtypes."""
        spec = self.spec
        empty = not self._blocks
        if empty and not spec.group_by:
            return {name: np.zeros(1, dtype=np.int64 if func == "count"
                                   else np.float64)
                    for name, _col, func in spec.aggs}
        block = self.partial_arrays()
        out = {col: block[col] for col in spec.group_by}
        for name, _col, func in spec.aggs:
            if empty:
                out[name] = np.empty(0, dtype=np.float64)
            elif func == "avg":
                out[name] = (block[f"{name}::sum"]
                             / np.maximum(block[f"{name}::count"], 1))
            else:
                out[name] = block[name]
        return out


# -- the shared evaluation wrapper -----------------------------------------

def pushdown_stream(stream, where: Expr | None = None,
                    agg: AggSpec | None = None, trim=None,
                    counter: dict | None = None):
    """Wrap a raw block stream with pushed-down evaluation.

    Filters each ``(rid, arrays)`` block with ``where`` and with ``trim``
    (a block's row mask, or None for all rows): the shard-scan stream
    passes its sort-key bounds as ``trim`` for aggregate jobs, which
    consume rows before the cursor's key trim could see them.
    Filtered blocks are re-numbered densely; with ``agg`` the stream
    reduces to exactly one partial block (possibly zero rows).

    ``counter`` (mutable dict) accumulates ``rows_in`` (scanned) and
    ``rows_out`` (streamed) — the push-down metrics surface.
    """
    aggregator = agg.aggregator() if agg is not None else None
    out_rid = 0
    for _rid, arrays in stream:
        n = len(next(iter(arrays.values()))) if arrays else 0
        if counter is not None:
            counter["rows_in"] += n
        mask = trim(arrays) if trim is not None else None
        if where is not None:
            where_mask = where.mask(arrays)
            mask = where_mask if mask is None else mask & where_mask
        if mask is not None and not mask.all():
            # An aggregate job copies only the columns it aggregates.
            kept = agg.inputs() if aggregator is not None else arrays
            arrays = {c: arrays[c][mask] for c in kept}
            n = int(mask.sum())
        if aggregator is not None:
            aggregator.add_block(arrays, n)
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
