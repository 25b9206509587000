"""Unit tests for the vectorized relation engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineError, Relation


def rel_abc():
    return Relation.from_rows(
        ["a", "b", "c"],
        [(1, "x", 1.5), (2, "y", 2.5), (3, "x", 3.5), (2, "z", 4.5)],
    )


class TestBasics:
    def test_from_rows_and_back(self):
        rel = rel_abc()
        assert rel.num_rows == 4
        assert rel.rows()[0] == (1, "x", 1.5)

    def test_unknown_column(self):
        with pytest.raises(EngineError):
            rel_abc()["nope"]

    def test_ragged_rejected(self):
        with pytest.raises(EngineError):
            Relation({"a": np.arange(3), "b": np.arange(4)})

    def test_filter(self):
        rel = rel_abc().filter(rel_abc()["a"] >= 2)
        assert [r[0] for r in rel.rows()] == [2, 3, 2]

    def test_select_rename(self):
        rel = rel_abc().select("a", "c").rename(c="value")
        assert rel.column_names == ["a", "value"]

    def test_with_columns_scalar_broadcast(self):
        rel = rel_abc().with_columns(d=np.asarray(7))
        assert rel["d"].tolist() == [7, 7, 7, 7]

    def test_with_columns_expression(self):
        rel = rel_abc()
        rel = rel.with_columns(double=rel["a"] * 2)
        assert rel["double"].tolist() == [2, 4, 6, 4]

    def test_concat(self):
        rel = rel_abc().concat(rel_abc())
        assert rel.num_rows == 8

    def test_distinct(self):
        rel = rel_abc().distinct("b")
        assert sorted(rel["b"]) == ["x", "y", "z"]

    def test_take_and_limit(self):
        rel = rel_abc().take([2, 0])
        assert [r[0] for r in rel.rows()] == [3, 1]
        assert rel_abc().limit(2).num_rows == 2

    def test_empty_relation(self):
        rel = Relation.from_rows(["a"], [])
        assert rel.num_rows == 0
        assert rel.filter(np.zeros(0, dtype=bool)).num_rows == 0


class TestJoin:
    def left(self):
        return Relation.from_rows(
            ["k", "v"], [(1, 10), (2, 20), (3, 30), (2, 21)]
        )

    def right(self):
        return Relation.from_rows(
            ["k", "w"], [(2, "a"), (3, "b"), (3, "c"), (5, "d")]
        )

    def test_inner_join(self):
        out = self.left().join(self.right(), left_on="k")
        got = sorted(zip(out["v"], out["w"]))
        assert got == [(20, "a"), (21, "a"), (30, "b"), (30, "c")]

    def test_inner_join_no_matches(self):
        out = self.left().join(
            Relation.from_rows(["k", "w"], [(99, "z")]), left_on="k"
        )
        assert out.num_rows == 0

    def test_semi_join(self):
        out = self.left().join(self.right(), left_on="k", how="semi")
        assert sorted(out["v"]) == [20, 21, 30]

    def test_anti_join(self):
        out = self.left().join(self.right(), left_on="k", how="anti")
        assert sorted(out["v"]) == [10]

    def test_left_join_marks_unmatched(self):
        out = self.left().join(self.right(), left_on="k", how="left")
        unmatched = out.filter(~out["_matched"])
        assert unmatched["v"].tolist() == [10]
        assert unmatched["w"].tolist() == [""]

    def test_join_different_key_names(self):
        right = self.right().rename(k="rk")
        out = self.left().join(right, left_on="k", right_on="rk")
        assert out.num_rows == 4

    def test_multi_key_join(self):
        left = Relation.from_rows(["a", "b", "v"], [(1, "x", 1), (1, "y", 2)])
        right = Relation.from_rows(["a", "b", "w"], [(1, "x", 9), (2, "y", 8)])
        out = left.join(right, left_on=["a", "b"])
        assert out.num_rows == 1
        assert out["v"][0] == 1 and out["w"][0] == 9

    def test_name_collision_suffixed(self):
        right = Relation.from_rows(["k", "v"], [(2, 99)])
        out = self.left().join(right, left_on="k")
        assert "v_r" in out
        assert out["v_r"].tolist() == [99, 99]

    def test_join_empty_right(self):
        out = self.left().join(
            Relation.from_rows(["k", "w"], []), left_on="k"
        )
        assert out.num_rows == 0
        out = self.left().join(
            Relation.from_rows(["k", "w"], []), left_on="k", how="left"
        )
        assert out.num_rows == 4
        assert not out["_matched"].any()


class TestGroupBy:
    def test_sum_count_avg(self):
        rel = rel_abc()
        out = rel.group_by("b").agg(
            total=("a", "sum"), n=("*", "count"), mean=("c", "avg")
        ).order_by("b")
        assert out["b"].tolist() == ["x", "y", "z"]
        assert out["total"].tolist() == [4, 2, 2]
        assert out["n"].tolist() == [2, 1, 1]
        assert out["mean"].tolist() == [2.5, 2.5, 4.5]

    def test_min_max_numeric(self):
        rel = rel_abc()
        out = rel.group_by("b").agg(
            lo=("c", "min"), hi=("c", "max")
        ).order_by("b")
        assert out["lo"].tolist() == [1.5, 2.5, 4.5]
        assert out["hi"].tolist() == [3.5, 2.5, 4.5]

    def test_min_max_strings(self):
        rel = rel_abc()
        out = rel.group_by("a").agg(first=("b", "min")).order_by("a")
        assert out["first"].tolist() == ["x", "y", "x"]

    def test_global_aggregate(self):
        out = rel_abc().group_by().agg(total=("a", "sum"), n=("*", "count"))
        assert out.num_rows == 1
        assert out["total"][0] == 8
        assert out["n"][0] == 4

    def test_global_aggregate_empty_input(self):
        rel = Relation.from_rows(["a"], []).with_columns()
        out = Relation({"a": np.empty(0, dtype=np.int64)}).group_by().agg(
            n=("*", "count"), s=("a", "sum")
        )
        assert out["n"][0] == 0

    def test_count_distinct(self):
        rel = Relation.from_rows(
            ["g", "v"], [(1, "a"), (1, "a"), (1, "b"), (2, "c")]
        )
        out = rel.group_by("g").agg(nv=("v", "count_distinct")).order_by("g")
        assert out["nv"].tolist() == [2, 1]

    def test_multi_key_grouping(self):
        rel = Relation.from_rows(
            ["a", "b", "v"],
            [(1, "x", 1), (1, "x", 2), (1, "y", 4), (2, "x", 8)],
        )
        out = rel.group_by("a", "b").agg(s=("v", "sum")).order_by("a", "b")
        assert out["s"].tolist() == [3, 4, 8]

    def test_unknown_agg_rejected(self):
        with pytest.raises(EngineError):
            rel_abc().group_by("b").agg(x=("a", "median"))

    def test_int_sum_stays_int(self):
        out = rel_abc().group_by().agg(s=("a", "sum"))
        assert out["s"].dtype == np.int64


class TestOrderBy:
    def test_asc_desc(self):
        rel = rel_abc().order_by(("a", "desc"), ("b", "asc"))
        assert [r[0] for r in rel.rows()] == [3, 2, 2, 1]
        two = [r for r in rel.rows() if r[0] == 2]
        assert [r[1] for r in two] == ["y", "z"]

    def test_string_desc(self):
        rel = rel_abc().order_by(("b", "desc"))
        assert rel["b"].tolist()[0] == "z"

    def test_bad_direction(self):
        with pytest.raises(EngineError):
            rel_abc().order_by(("a", "sideways"))


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 5), st.integers(-100, 100)), max_size=60
    )
)
def test_groupby_sum_matches_python(rows):
    rel = Relation.from_rows(["g", "v"], rows)
    if not rows:
        return
    out = rel.group_by("g").agg(s=("v", "sum"))
    expected = {}
    for g, v in rows:
        expected[g] = expected.get(g, 0) + v
    got = dict(zip(out["g"].tolist(), out["s"].tolist()))
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(
    left=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 99)),
                  max_size=40),
    right=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 99)),
                   max_size=40),
)
def test_inner_join_matches_nested_loops(left, right):
    lrel = Relation.from_rows(["k", "v"], left)
    rrel = Relation.from_rows(["k", "w"], right)
    out = lrel.join(rrel, left_on="k")
    got = sorted(zip(out["v"].tolist(), out["w"].tolist()))
    expected = sorted(
        (lv, rv) for lk, lv in left for rk, rv in right if lk == rk
    )
    assert got == expected


# -- exact aggregates on large integers --------------------------------------

BIG = 2**53  # the first integer float64 cannot tell from its successor


def test_sum_and_max_are_exact_past_two_to_the_53():
    rel = Relation({"v": np.array([BIG, 1], dtype=np.int64)})
    assert int(rel.group_by().agg(s=("v", "sum"))["s"][0]) == BIG + 1
    rel = Relation({"v": np.array([BIG + 1], dtype=np.int64)})
    assert int(rel.group_by().agg(m=("v", "max"))["m"][0]) == BIG + 1


@pytest.mark.parametrize("keys", [(), ("g",)], ids=["global", "grouped"])
def test_large_integer_aggregates_agree_central_and_pushed(keys):
    from repro.engine import expr as ex

    arrays = {
        "g": np.array([0, 0, 1, 1, 2, 2], dtype=np.int64),
        "v": np.array([BIG, 1, BIG + 1, -BIG - 3, 7, BIG + 5],
                      dtype=np.int64),
        "b": np.array([True, False, True, True, False, True]),
    }
    specs = {"s": ("v", "sum"), "lo": ("v", "min"), "hi": ("v", "max"),
             "a": ("v", "avg"), "bs": ("b", "sum"), "blo": ("b", "min"),
             "bhi": ("b", "max")}
    central = Relation(arrays).group_by(*keys).agg(**specs)

    groups = [[0, 1], [2, 3], [4, 5]] if keys else [list(range(6))]
    for i, rows in enumerate(groups):
        vs = [int(arrays["v"][j]) for j in rows]
        assert int(central["s"][i]) == sum(vs)
        assert int(central["lo"][i]) == min(vs)
        assert int(central["hi"][i]) == max(vs)
        assert int(central["bs"][i]) == sum(bool(arrays["b"][j])
                                            for j in rows)
    for name in ("s", "lo", "hi", "bs"):
        assert central[name].dtype == np.int64
    assert central["blo"].dtype == central["bhi"].dtype == bool

    spec = ex.AggSpec(keys, specs,
                      dtypes={"g": "int64", "v": "int64", "b": "bool"})
    merger = spec.aggregator()
    for lo, hi in ((0, 2), (2, 3), (3, 6)):
        part = spec.aggregator()
        part.add_block({c: a[lo:hi] for c, a in arrays.items()})
        merger.merge(part.partial_arrays())
    pushed = merger.finalize()
    for name in central.column_names:
        assert pushed[name].dtype == central[name].dtype, name
        assert pushed[name].tolist() == central[name].tolist(), name
