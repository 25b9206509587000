"""Structural guard: string keys never go through an object ``np.unique``.

An object ``np.unique`` sorts with Python comparisons and cost the
pushed aggregate most of its time per block; string keys are factorized
through a sorted set and a dict instead (``engine.relation.factorize``).
These tests swap the ``np`` the engine modules see for one whose
``unique`` raises on object input, then run a pushed string-grouped
``Database.query(where=, aggregate=)`` and the central string operators.
They must finish without a single such call — a deterministic check, no
timing involved.
"""

import numpy as np
import pytest

from repro import Database, DataType, Schema
from repro.engine import expr as ex
from repro.engine import relation
from repro.engine.relation import Relation

SCHEMA = Schema.build(("k", DataType.INT64), ("s", DataType.STRING),
                      ("v", DataType.INT64), sort_key=("k",))
N = 3_000
NAMES = ["", "beta", "alpha", "é", "gamma"]


class _NoObjectUnique:
    """``numpy`` as the engine sees it, minus object ``unique``."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def unique(ar, *args, **kwargs):
        if np.asarray(ar).dtype == object:
            raise AssertionError("np.unique called on an object array")
        return np.unique(ar, *args, **kwargs)


@pytest.fixture
def guarded(monkeypatch):
    monkeypatch.setattr(relation, "np", _NoObjectUnique())
    monkeypatch.setattr(ex, "np", _NoObjectUnique())


def arrays() -> dict:
    s = np.empty(N, dtype=object)
    s[:] = [NAMES[i % len(NAMES)] for i in range(N)]
    return {"k": np.arange(N, dtype=np.int64), "s": s,
            "v": np.arange(N, dtype=np.int64) % 7}


def expected(rows) -> dict:
    """``{s: (count, sum v, min s)}`` over ``(k, s, v)`` rows."""
    out: dict = {}
    for _k, s, v in rows:
        n, total, _lo = out.get(s, (0, 0, s))
        out[s] = (n + 1, total + v, s)
    return dict(sorted(out.items()))


def test_pushed_string_grouped_query(guarded):
    db = Database()
    db.create_table_from_arrays("t", SCHEMA, arrays())
    db.apply_batch("t", [("mod", (5,), "s", "delta"),
                         ("ins", (N + 1, "omega", 3)),
                         ("del", (7,))])
    rel = db.query("t", where=ex.ge("k", 4), aggregate=ex.AggSpec(
        ("s",), {"n": ("*", "count"), "t": ("v", "sum"),
                 "lo": ("s", "min")}))
    rows = [r for r in db.image_rows("t") if r[0] >= 4]
    want = expected(rows)
    assert rel["s"].tolist() == list(want)
    assert [(int(n), int(t), lo) for n, t, lo in
            zip(rel["n"], rel["t"], rel["lo"])] == list(want.values())


def test_central_string_operators(guarded):
    rel = Relation(arrays())
    grouped = rel.group_by("s").agg(n=("*", "count"), t=("v", "sum"),
                                    hi=("s", "max"),
                                    d=("v", "count_distinct"))
    assert grouped["s"].tolist() == sorted(NAMES)
    assert grouped["hi"].tolist() == sorted(NAMES)
    assert grouped["n"].tolist() == [N // len(NAMES)] * len(NAMES)
    assert grouped["d"].tolist() == [7] * len(NAMES)
    assert rel.distinct("s")["s"].tolist() == NAMES
    ordered = rel.order_by(("s", "desc"), "k")
    assert ordered["s"][0] == "é" and ordered["k"][0] == 3
    joined = rel.join(Relation({"s": np.array(["alpha"], dtype=object),
                                "x": np.array([1])}), "s")
    assert joined.num_rows == N // len(NAMES)
