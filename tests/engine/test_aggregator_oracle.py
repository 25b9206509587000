"""The array-partial ``PartialAggregator`` against the dict-keyed oracle.

``tests/oracles/dict_aggregator.py`` keeps the earlier aggregator: one
Python accumulator list per group tuple, combined with Python
arithmetic. On random specs (0-2 group keys over int64, string and bool
columns; sum/count/avg/min/max over int64, non-dyadic float64, bool and
string columns), random block cuts (empty blocks included) and random
shard splits, every shard's ``partial_arrays()`` and the merger's
``finalize()`` must equal the oracle's byte for byte — float sums too,
since both add each group's per-block partials in arrival order from 0.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import expr as ex
from repro.engine.relation import Relation
from tests.oracles.dict_aggregator import PartialAggregator as Oracle

KEYS = ("gi", "gs", "gb")
AGGS = (
    [(f"sum_{c}", (c, "sum")) for c in ("vi", "vf", "vb")]
    + [(f"avg_{c}", (c, "avg")) for c in ("vi", "vf", "vb")]
    + [("n", ("*", "count")), ("n_vs", ("vs", "count"))]
    + [(f"{f}_{c}", (c, f)) for f in ("min", "max")
       for c in ("vi", "vf", "vb", "vs", "gs")]
)
STRINGS = ["", "a", "ab", "b", "é", "日本", "Z"]

row = st.fixed_dictionaries({
    "gi": st.integers(-2, 2),
    "gs": st.sampled_from(STRINGS),
    "gb": st.booleans(),
    "vi": st.integers(-2 ** 40, 2 ** 40),
    # Non-dyadic decimals and arbitrary finite doubles. A signed zero is
    # read as +0.0: on ties between -0.0 and +0.0 the oracle keeps the
    # first partial while np.minimum/np.maximum (and so the central
    # GroupBy) keep the last; test_signed_zero_min_matches_central pins
    # that case on its own.
    "vf": st.one_of(st.integers(-10 ** 6, 10 ** 6).map(lambda i: i / 10),
                    st.floats(-1e12, 1e12, allow_nan=False)
                    ).map(lambda f: f + 0.0),
    "vb": st.booleans(),
    "vs": st.sampled_from(STRINGS),
})

DTYPES = {"gi": np.int64, "gs": object, "gb": bool, "vi": np.int64,
          "vf": np.float64, "vb": bool, "vs": object}


def columns_of(rows) -> dict:
    out = {}
    for name, dtype in DTYPES.items():
        arr = np.empty(len(rows), dtype=dtype)
        arr[:] = [r[name] for r in rows]
        out[name] = arr
    return out


@st.composite
def cases(draw):
    rows = draw(st.lists(row, max_size=60))
    group_by = draw(st.lists(st.sampled_from(KEYS), max_size=2,
                             unique=True))
    aggs = draw(st.lists(st.sampled_from(AGGS), min_size=1, max_size=5,
                         unique_by=lambda a: a[0]))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=16)))
    bounds = [0, *cuts, len(rows)]
    blocks = list(zip(bounds, bounds[1:]))
    shard_cuts = sorted(draw(st.lists(st.integers(0, len(blocks)),
                                      max_size=5)))
    shard_bounds = [0, *shard_cuts, len(blocks)]
    shards = [blocks[lo:hi]
              for lo, hi in zip(shard_bounds, shard_bounds[1:])]
    spec = ex.AggSpec(group_by, dict(aggs), dtypes={
        c: np.dtype(t).str for c, t in DTYPES.items()})
    return columns_of(rows), spec, shards


def assert_same_bytes(got: dict, want: dict):
    assert list(got) == list(want)
    for name in want:
        a, b = got[name], want[name]
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        if a.dtype == object:
            assert a.tolist() == b.tolist(), name
            assert [type(v) for v in a] == [type(v) for v in b], name
        else:
            assert a.tobytes() == b.tobytes(), name


def run(factory, arrays, shards, add):
    merger = factory()
    partials = []
    for shard in shards:
        part = factory()
        for lo, hi in shard:
            add(part, {c: a[lo:hi] for c, a in arrays.items()})
        partials.append(part.partial_arrays())
        merger.merge(partials[-1])
    return partials, merger.finalize()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_partials_and_finalize_equal_the_dict_oracle(case):
    arrays, spec, shards = case
    got_parts, got = run(lambda: ex.PartialAggregator(spec), arrays,
                         shards, lambda agg, block: agg.add_block(block))
    want_parts, want = run(lambda: Oracle(spec), arrays, shards,
                           lambda agg, block: agg.add_block(block))
    for got_part, want_part in zip(got_parts, want_parts):
        assert_same_bytes(got_part, want_part)
    assert_same_bytes(got, want)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_pushdown_stream_equals_the_dict_oracle(case):
    """The scan-job wrapper (mask applied to the aggregate's inputs only)
    yields the oracle's partial block for the filtered rows."""
    arrays, spec, shards = case
    blocks = [b for shard in shards for b in shard]
    where = ex.or_(ex.ge("gi", 0), ex.starts_with("vs", "a"))
    stream = ((lo, {c: a[lo:hi] for c, a in arrays.items()})
              for lo, hi in blocks)
    (_rid, got), = ex.pushdown_stream(stream, where=where, agg=spec)
    oracle = Oracle(spec)
    for lo, hi in blocks:
        block = {c: a[lo:hi] for c, a in arrays.items()}
        mask = where.mask(block)
        oracle.add_block({c: a[mask] for c, a in block.items()})
    assert_same_bytes(got, oracle.partial_arrays())


def test_float_sums_add_partials_in_block_order():
    """Float addition does not reassociate: each group's sum is
    ``((0 + p1) + p2) + ...`` over its block partials in arrival order,
    whether the partials come from ``add_block`` or ``merge``."""
    values = [1.0, 1e16, -1e16, 3.0, 0.1, 0.2]
    want = 0.0
    for v in values:
        want += v
    spec = ex.AggSpec(("g",), {"s": ("v", "sum")},
                      dtypes={"g": "<i8", "v": "<f8"})
    added, merged = spec.aggregator(), spec.aggregator()
    for v in values:
        block = {"g": np.array([4]), "v": np.array([v])}
        added.add_block(block)
        one = spec.aggregator()
        one.add_block(block)
        merged.merge(one.partial_arrays())
    assert want == 3.3000000000000003 != sum(reversed(values))
    assert added.finalize()["s"].tolist() == [want]
    assert merged.finalize()["s"].tolist() == [want]


def test_signed_zero_min_matches_central():
    arrays = {"g": np.zeros(4, dtype=np.int64),
              "v": np.array([0.0, -0.0, -0.0, 0.0])}
    spec = ex.AggSpec(("g",), {"lo": ("v", "min"), "hi": ("v", "max")},
                      dtypes={"g": "<i8", "v": "<f8"})
    agg = spec.aggregator()
    for lo in range(4):
        agg.add_block({c: a[lo:lo + 1] for c, a in arrays.items()})
    want = Relation(arrays).group_by("g").agg(lo=("v", "min"),
                                              hi=("v", "max"))
    got = agg.finalize()
    for name in ("lo", "hi"):
        assert got[name].tobytes() == want[name].tobytes(), name


def test_many_groups_compact_without_changing_the_answer():
    """High-cardinality keys arrive over many blocks, so the buffer
    compacts many times; the answer equals central ``GroupBy``."""
    rng = np.random.default_rng(3)
    n = 20_000
    arrays = {"g": rng.integers(0, 5_000, n), "v": rng.random(n)}
    spec = ex.AggSpec(("g",), {"s": ("v", "sum"), "n": ("*", "count")},
                      dtypes={"g": "<i8", "v": "<f8"})
    agg, oracle = spec.aggregator(), Oracle(spec)
    for lo in range(0, n, 400):
        block = {c: a[lo:lo + 400] for c, a in arrays.items()}
        agg.add_block(block)
        oracle.add_block(block)
        assert agg._rows <= 2 * 5_000  # the doubling bound
    assert_same_bytes(agg.finalize(), oracle.finalize())
    want = Relation(arrays).group_by("g").agg(n=("*", "count"))
    assert agg.finalize()["n"].tobytes() == want["n"].tobytes()


def test_int64_sums_wrap_like_central():
    """Pushed int64 sums wrap on overflow exactly as the central
    ``GroupBy`` does (the dict aggregator raised ``OverflowError``)."""
    big = np.iinfo(np.int64).max
    arrays = {"g": np.array([1, 1, 2], dtype=np.int64),
              "v": np.array([big, big, 5], dtype=np.int64)}
    spec = ex.AggSpec(("g",), {"s": ("v", "sum")},
                      dtypes={"g": "<i8", "v": "<i8"})
    agg = spec.aggregator()
    for lo in range(3):
        agg.add_block({c: a[lo:lo + 1] for c, a in arrays.items()})
    want = Relation(arrays).group_by("g").agg(s=("v", "sum"))
    assert agg.finalize()["s"].tolist() == want["s"].tolist() == [-2, 5]
