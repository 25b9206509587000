"""Predicate & partial-aggregate push-down: equivalence.

The contract under test: a pushed-down ``where`` / ``agg`` produces
results *byte-identical* to scanning everything and evaluating centrally
— across thread and process executors, under deltas, with shard pruning,
and for several pushed requests in one batch.

Numeric data is ints and multiples of 0.5 (dyadic floats): both make
every aggregation order-independent and exact, so "identical" really
means identical bytes, not approximately equal.
"""

import numpy as np
import pytest

from repro import Database, DataType, Schema
from repro.engine import expr as ex
from repro.engine import functions as fn
from repro.engine.relation import Relation

SCHEMA = Schema.build(
    ("k", DataType.INT64), ("cat", DataType.INT64),
    ("v", DataType.INT64), ("w", DataType.FLOAT64),
    ("s", DataType.STRING),
    sort_key=("k",),
)
N_ROWS = 20_000  # 4 shards x 5k, above the router's MIN_REMOTE_ROWS


def seed_arrays(n=N_ROWS):
    rng = np.random.default_rng(7)
    return {
        "k": np.arange(n, dtype=np.int64),
        "cat": rng.integers(0, 6, n).astype(np.int64),
        "v": rng.integers(-500, 500, n).astype(np.int64),
        # multiples of 0.5: dyadic, exact under any summation order
        "w": (rng.integers(-40, 40, n) / 2.0),
        "s": np.array([f"g{i % 11}" for i in range(n)], dtype=object),
    }


def make_db(tmp_path, executor):
    db = Database(storage="mmap", storage_path=str(tmp_path / executor),
                  executor=executor, workers=2)
    db.create_sharded_table_from_arrays("t", SCHEMA, seed_arrays(),
                                        shards=4)
    # Deltas on top of the published image: mods, deletes, inserts.
    ops = [("mod", (i,), "v", -1000 - i) for i in range(0, N_ROWS, 503)]
    ops += [("del", (i,)) for i in range(1, N_ROWS, 997)]
    ops += [("ins", (N_ROWS + i, i % 6, 7, 0.5, "gx"))
            for i in range(200)]
    db.apply_batch("t", ops)
    return db


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


WHERE = ex.and_(ex.between("k", 2_000, 15_000), ex.isin("cat", [1, 3, 5]))
AGG = ex.AggSpec(
    ("cat",),
    {"total": ("v", "sum"), "n": ("*", "count"), "avg_w": ("w", "avg"),
     "lo": ("v", "min"), "hi": ("v", "max")},
)


def central(rel: Relation, where=None, agg=None, columns=None) -> Relation:
    if where is not None:
        rel = rel.filter(where.mask({c: rel[c] for c in rel.column_names}))
    if agg is not None:
        return rel.group_by(*agg.group_by).agg(
            **{name: (col, func) for name, col, func in agg.aggs})
    if columns is not None:
        rel = rel.select(*columns)
    return rel


class TestExprUnit:
    def test_mask_matches_engine_functions(self):
        arrays = seed_arrays(500)
        e = ex.and_(
            ex.or_(ex.ge("v", 100), ex.lt("w", -3.0)),
            ex.not_(ex.eq("s", "g3")),
            ex.between("k", 10, 400),
        )
        want = (
            ((arrays["v"] >= 100) | (arrays["w"] < -3.0))
            & ~(arrays["s"] == "g3")
            & fn.between(arrays["k"], 10, 400)
        )
        assert ex.Expr.mask(e, arrays).tolist() == want.tolist()

    def test_string_ops(self):
        arrays = {"s": np.array(["alpha", "beta", "gamma", "alabama"],
                                dtype=object)}
        assert ex.starts_with("s", "al").mask(arrays).tolist() == \
            [True, False, False, True]
        assert ex.ends_with("s", "a").mask(arrays).tolist() == \
            [True, True, True, True]
        assert ex.contains("s", "am").mask(arrays).tolist() == \
            [False, False, True, True]
        assert ex.like("s", "a%a").mask(arrays).tolist() == \
            [True, False, False, True]

    def test_payload_roundtrip_preserves_key(self):
        e = ex.or_(WHERE, ex.like("s", "g%"), ex.not_(ex.ne("v", 0)))
        back = ex.expr_from_payload(e.to_payload())
        assert back == e and back.key() == e.key()
        a = ex.agg_from_payload(AGG.to_payload())
        assert a.key() == AGG.key()

    def test_isin_order_insensitive_key(self):
        assert ex.isin("cat", [3, 1, 5]).key() == \
            ex.isin("cat", [5, 3, 1]).key()

    def test_unknown_payload_rejected(self):
        with pytest.raises(ex.PushdownUnsupported):
            ex.expr_from_payload({"op": "regex", "column": "s",
                                  "value": ".*"})
        with pytest.raises(ex.PushdownUnsupported):
            ex.agg_from_payload({"group_by": [],
                                 "aggs": [["d", "v", "count_distinct"]]})

    def test_sk_bounds_conservative(self):
        sk = ("k",)
        assert ex.between("k", 5, 9).sk_bounds(sk) == ((5,), (9,))
        lo, hi = ex.and_(ex.ge("k", 3), ex.eq("cat", 1)).sk_bounds(sk)
        assert lo == (3,) and hi is None
        # OR of two ranges: the union's hull
        lo, hi = ex.or_(ex.between("k", 2, 4),
                        ex.between("k", 10, 20)).sk_bounds(sk)
        assert lo == (2,) and hi == (20,)
        # NOT and non-key predicates give no bounds
        assert ex.not_(ex.between("k", 2, 4)).sk_bounds(sk) == (None, None)
        assert ex.eq("cat", 1).sk_bounds(sk) == (None, None)


class TestPartialAggregator:
    @pytest.mark.parametrize("splits", [1, 3, 7])
    def test_merge_across_splits_identical_to_central(self, splits):
        arrays = seed_arrays(3_000)
        rel = Relation(arrays)

        class _S:
            def dtype_of(self, name):
                return SCHEMA.column(name).dtype

        spec = ex.AggSpec(
            ("cat", "s"),
            {"total": ("v", "sum"), "n": ("*", "count"),
             "avg_w": ("w", "avg"), "lo": ("v", "min")},
        ).bind(_S())
        merger = spec.aggregator()
        bounds = np.linspace(0, 3_000, splits + 1).astype(int)
        for lo, hi in zip(bounds, bounds[1:]):
            part = spec.aggregator()
            part.add_block({c: a[lo:hi] for c, a in arrays.items()})
            merger.merge(part.partial_arrays())
        want = rel.group_by("cat", "s").agg(
            total=("v", "sum"), n=("*", "count"), avg_w=("w", "avg"),
            lo=("v", "min"))
        assert_bytes_equal(Relation(merger.finalize()), want)

    def test_empty_grouped_and_global(self):
        class _S:
            def dtype_of(self, name):
                return SCHEMA.column(name).dtype

        grouped = ex.AggSpec(("cat",), {"n": ("*", "count")}).bind(_S())
        out = Relation(grouped.aggregator().finalize())
        want = Relation(seed_arrays(10)).filter(
            np.zeros(10, bool)).group_by("cat").agg(n=("*", "count"))
        assert_bytes_equal(out, want)

        glob = ex.AggSpec((), {"n": ("*", "count"),
                               "tot": ("v", "sum")}).bind(_S())
        out = Relation(glob.aggregator().finalize())
        want = Relation(seed_arrays(10)).filter(
            np.zeros(10, bool)).group_by().agg(n=("*", "count"),
                                               tot=("v", "sum"))
        assert_bytes_equal(out, want)


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestServicePushdown:
    def test_filter_agg_and_both_match_central(self, tmp_path, executor):
        db = make_db(tmp_path, executor)
        try:
            with db.serve(workers=3) as svc:
                full = svc.submit_query("t").to_relation()
                cases = [
                    dict(where=WHERE, agg=None, columns=["k", "v", "s"]),
                    dict(where=None, agg=AGG, columns=None),
                    dict(where=WHERE, agg=AGG, columns=None),
                    dict(where=ex.eq("s", "no-such-group"), agg=AGG,
                         columns=None),  # empty input to the aggregate
                    dict(where=None,
                         agg=ex.AggSpec((), {"n": ("*", "count"),
                                             "tot": ("w", "sum")}),
                         columns=None),  # global aggregate
                ]
                for case in cases:
                    got = svc.submit_query(
                        "t", columns=case["columns"], where=case["where"],
                        agg=case["agg"]).to_relation()
                    want = central(full, case["where"], case["agg"],
                                   case["columns"])
                    assert_bytes_equal(got, want)
                stats = svc.stats.as_dict()
                assert stats["pushdown_jobs"] > 0
                assert stats["rows_pushed_down"] > 0
                if executor == "process":
                    assert db.exec_router.remote_jobs > 0
                    assert db.exec_router.expr_fallbacks == 0
        finally:
            db.close()

    def test_range_plus_pushdown(self, tmp_path, executor):
        db = make_db(tmp_path, executor)
        try:
            with db.serve(workers=3) as svc:
                full = svc.submit_query("t").to_relation()
                in_range = (fn.lex_ge([full["k"]], (4_000,))
                            & fn.lex_le([full["k"]], (12_000,)))
                want = central(full.filter(in_range), ex.ge("v", 0), AGG)
                got = svc.submit_range(
                    "t", low=(4_000,), high=(12_000,),
                    where=ex.ge("v", 0), agg=AGG).to_relation()
                assert_bytes_equal(got, want)
        finally:
            db.close()

    def test_pushed_aggregate_streams_5x_fewer_rows_than_it_scans(
            self, tmp_path, executor):
        """A filtered aggregate is evaluated where it is scanned: the
        cursor receives the groups, not the rows (counters, no clocks)."""
        db = make_db(tmp_path, executor)
        try:
            with db.serve(workers=3) as svc:
                rel = svc.submit_query("t", where=WHERE,
                                       agg=AGG).to_relation()
                stats = svc.stats.as_dict()
                assert stats["rows_streamed"] == rel.num_rows
                assert stats["rows_scanned"] >= 5 * stats["rows_streamed"]
        finally:
            db.close()

    def test_sort_key_predicate_prunes_scanned_rows(self, tmp_path,
                                                    executor):
        db = make_db(tmp_path, executor)
        try:
            with db.serve(workers=3) as svc:
                narrow = ex.between("k", 100, 600)  # one shard's prefix
                full = svc.submit_query("t").to_relation()
                got = svc.submit_query("t", where=narrow,
                                       columns=["k", "v"]).to_relation()
                assert_bytes_equal(got, central(full, narrow,
                                                columns=["k", "v"]))
                stats = svc.stats.as_dict()
                # Shard routing + sparse-index pruning: the pushed scan
                # read far fewer rows than the preceding full scan did.
                pushed_scan = stats["rows_scanned"]
                assert 0 < pushed_scan < full.num_rows / 2
        finally:
            db.close()


class TestSharing:
    """Several pushed requests in one batch: every cursor exact."""

    def test_compatible_filters_share_one_pass(self, tmp_path):
        db = make_db(tmp_path, "thread")
        try:
            with db.serve(workers=3) as svc:
                full = svc.submit_query("t").to_relation()
                cursors = svc.submit_many([
                    {"table": "t", "where": WHERE, "columns": ["k", "v"]},
                    {"table": "t", "where": WHERE, "columns": ["k", "v"]},
                ])
                rels = [c.to_relation() for c in cursors]
                want = central(full, WHERE, columns=["k", "v"])
                for rel in rels:
                    assert_bytes_equal(rel, want)
        finally:
            db.close()

    def test_incompatible_filters_do_not_share(self, tmp_path):
        db = make_db(tmp_path, "thread")
        try:
            with db.serve(workers=3) as svc:
                full = svc.submit_query("t").to_relation()
                other = ex.lt("v", 0)
                cursors = svc.submit_many([
                    {"table": "t", "where": WHERE, "columns": ["k", "v"]},
                    {"table": "t", "where": other, "columns": ["k", "v"]},
                ])
                rels = [c.to_relation() for c in cursors]
                assert_bytes_equal(rels[0],
                                   central(full, WHERE,
                                           columns=["k", "v"]))
                assert_bytes_equal(rels[1],
                                   central(full, other,
                                           columns=["k", "v"]))
        finally:
            db.close()


class TestWorkerFallback:
    def test_unsupported_expression_falls_back_byte_identical(
            self, tmp_path, monkeypatch):
        """A worker that does not speak the pushed vocabulary answers
        ``unsupported``; the router must run the identical pushed
        pipeline locally and count the fallback."""
        from repro.service.plan import ShardScanSpec

        db = make_db(tmp_path, "process")
        try:
            original = ShardScanSpec.push_payload

            def alien_payload(self):
                payload = original(self)
                if payload is not None:
                    payload["alien_field"] = {"op": "quantum"}
                return payload

            monkeypatch.setattr(ShardScanSpec, "push_payload",
                                alien_payload)
            with db.serve(workers=3) as svc:
                full = svc.submit_query("t").to_relation()
                got = svc.submit_query("t", where=WHERE,
                                       agg=AGG).to_relation()
                assert_bytes_equal(got, central(full, WHERE, AGG))
                assert db.exec_router.expr_fallbacks > 0
        finally:
            db.close()


class TestDatabaseQueryPushdown:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_query_and_query_range_kwargs(self, tmp_path, executor):
        db = make_db(tmp_path, executor)
        try:
            full = db.query("t")
            got = db.query("t", where=WHERE, aggregate=AGG)
            assert_bytes_equal(got, central(full, WHERE, AGG))
            got = db.query("t", columns=["k", "s"], where=WHERE)
            assert_bytes_equal(got, central(full, WHERE,
                                            columns=["k", "s"]))
            in_range = (fn.lex_ge([full["k"]], (500,))
                        & fn.lex_le([full["k"]], (1_500,)))
            got = db.query_range("t", low=(500,), high=(1_500,),
                                 where=ex.ge("v", 0),
                                 columns=["k", "v"])
            want = central(full.filter(in_range), ex.ge("v", 0),
                           columns=["k", "v"])
            assert_bytes_equal(got, want)
        finally:
            db.close()

    def test_pdt_source_where_hint_matches_unhinted(self, tmp_path):
        from repro.tpch.sources import PdtSource

        db = make_db(tmp_path, "thread")
        try:
            src = PdtSource(db)
            plain = src.scan("t", ["k", "v", "cat"])
            mask = WHERE.mask({c: plain[c] for c in plain.column_names})
            hinted = src.scan("t", ["k", "v", "cat"], where=WHERE)
            assert_bytes_equal(hinted, plain.filter(mask))
        finally:
            db.close()
