"""Property test: pushed-down filter+aggregate ≡ central evaluation.

Hypothesis generates random predicate trees (every leaf op, AND/OR/NOT
combinators) and random partial-aggregate specs, then asserts the
service's pushed-down answer is byte-identical to filtering/aggregating
the full scan centrally — on both the thread and the process executor,
over a table carrying deltas on top of its published image.

Determinism notes: integer measures and dyadic floats (multiples of
0.25) make every aggregation order-independent and exact, so the
comparison is on bytes, not approximate. The two-request examples
submit both queries in one batch (identical or different predicates),
and each must come back exact.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, DataType, Schema
from repro.engine import expr as ex
from repro.engine.relation import Relation

SCHEMA = Schema.build(
    ("k", DataType.INT64), ("cat", DataType.INT64),
    ("v", DataType.INT64), ("w", DataType.FLOAT64),
    ("s", DataType.STRING),
    sort_key=("k",),
)
N_ROWS = 12_000  # 4 shards x 3k, above the router's MIN_REMOTE_ROWS


def seed_arrays(n=N_ROWS):
    rng = np.random.default_rng(11)
    return {
        "k": np.arange(n, dtype=np.int64),
        "cat": rng.integers(0, 5, n).astype(np.int64),
        "v": rng.integers(-200, 200, n).astype(np.int64),
        "w": (rng.integers(-30, 30, n) / 4.0),  # dyadic: exact sums
        "s": np.array([f"t{i % 7}" for i in range(n)], dtype=object),
    }


@pytest.fixture(scope="module")
def envs(tmp_path_factory):
    built = {}
    for executor in ("thread", "process"):
        root = tmp_path_factory.mktemp(f"push-{executor}")
        db = Database(storage="mmap", storage_path=str(root),
                      executor=executor, workers=2)
        db.create_sharded_table_from_arrays("t", SCHEMA, seed_arrays(),
                                            shards=4)
        ops = [("mod", (i,), "v", 999) for i in range(0, N_ROWS, 301)]
        ops += [("del", (i,)) for i in range(1, N_ROWS, 701)]
        ops += [("ins", (N_ROWS + i, i % 5, -7, 1.25, "tx"))
                for i in range(64)]
        db.apply_batch("t", ops)
        svc = db.serve(workers=3)
        full = svc.submit_query("t").to_relation()
        built[executor] = (db, svc, full)
    yield built
    for db, _svc, _full in built.values():
        db.close()


# -- strategies -------------------------------------------------------------

int_leaf = st.one_of(
    st.builds(ex.between, st.just("k"),
              st.integers(0, N_ROWS), st.integers(0, N_ROWS)),
    st.builds(ex.ge, st.just("k"), st.integers(0, N_ROWS + 100)),
    st.builds(ex.lt, st.just("k"), st.integers(0, N_ROWS + 100)),
    st.builds(ex.eq, st.just("cat"), st.integers(0, 6)),
    st.builds(ex.ne, st.just("cat"), st.integers(0, 6)),
    st.builds(ex.isin, st.just("cat"),
              st.lists(st.integers(0, 6), min_size=1, max_size=4)),
    st.builds(ex.gt, st.just("v"), st.integers(-250, 1000)),
    st.builds(ex.le, st.just("v"), st.integers(-250, 1000)),
    st.builds(ex.ge, st.just("w"), st.integers(-10, 10).map(
        lambda i: i / 2.0)),
)

str_leaf = st.one_of(
    st.builds(ex.eq, st.just("s"),
              st.sampled_from(["t0", "t3", "tx", "zz"])),
    st.builds(ex.isin, st.just("s"),
              st.lists(st.sampled_from(["t1", "t2", "tx", "nope"]),
                       min_size=1, max_size=3)),
    st.builds(ex.starts_with, st.just("s"), st.sampled_from(["t", "z"])),
    st.builds(ex.contains, st.just("s"), st.sampled_from(["x", "1"])),
    st.builds(ex.like, st.just("s"), st.sampled_from(["t%", "%x", "t_"])),
)

leaf = st.one_of(int_leaf, str_leaf)

where_strategy = st.recursive(
    leaf,
    lambda children: st.one_of(
        st.builds(lambda a, b: ex.and_(a, b), children, children),
        st.builds(lambda a, b: ex.or_(a, b), children, children),
        st.builds(ex.not_, children),
    ),
    max_leaves=5,
)

AGG_CHOICES = [
    ("total_v", ("v", "sum")),
    ("total_w", ("w", "sum")),
    ("n", ("*", "count")),
    ("avg_v", ("v", "avg")),
    ("avg_w", ("w", "avg")),
    ("min_v", ("v", "min")),
    ("max_w", ("w", "max")),
]

agg_strategy = st.builds(
    lambda group_by, picks: ex.AggSpec(
        tuple(group_by), {name: spec for name, spec in picks}),
    st.sampled_from([(), ("cat",), ("s",), ("cat", "s")]),
    st.lists(st.sampled_from(AGG_CHOICES), min_size=1, max_size=4,
             unique_by=lambda p: p[0]),
)


def central(rel: Relation, where=None, agg=None) -> Relation:
    if where is not None:
        rel = rel.filter(where.mask({c: rel[c] for c in rel.column_names}))
    if agg is not None:
        return rel.group_by(*agg.group_by).agg(
            **{name: (col, func) for name, col, func in agg.aggs})
    return rel.select("k", "cat", "v", "w", "s")


def assert_bytes_equal(got: Relation, want: Relation):
    assert got.column_names == want.column_names
    assert got.num_rows == want.num_rows
    for c in want.column_names:
        a, b = got[c], want[c]
        if a.dtype == object or b.dtype == object:
            assert a.tolist() == b.tolist(), c
        else:
            assert a.dtype == b.dtype, c
            assert a.tobytes() == b.tobytes(), c


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(where=where_strategy, agg=st.one_of(st.none(), agg_strategy))
def test_pushed_equals_central_on_both_executors(envs, where, agg):
    for executor, (_db, svc, full) in envs.items():
        got = svc.submit_query("t", where=where, agg=agg).to_relation()
        assert_bytes_equal(got, central(full, where, agg))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(where_a=where_strategy, where_b=where_strategy,
       agg=st.one_of(st.none(), agg_strategy))
def test_batched_mixed_predicates_stay_exact(envs, where_a, where_b, agg):
    """Two requests in one batch — equal predicates share a pass,
    different ones must not contaminate each other either way."""
    _db, svc, full = envs["thread"]
    cursors = svc.submit_many([
        {"table": "t", "where": where_a, "agg": agg},
        {"table": "t", "where": where_b, "agg": agg},
    ])
    rel_a, rel_b = (c.to_relation() for c in cursors)
    assert_bytes_equal(rel_a, central(full, where_a, agg))
    assert_bytes_equal(rel_b, central(full, where_b, agg))
