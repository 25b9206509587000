"""The one read path: every ``Database.query*`` form, on an unsharded and
a 4-shard table, with and without push-down, latest and pinned, against
a model that never touches the engine.

Each cell is checked byte for byte (values and dtypes) against numpy
columns built from a plain ``{sort key: row}`` dict the update stream is
replayed on, always-true ``where=`` cells additionally against the
no-``where`` result, and a counter on ``plan_scan`` asserts that each
cell is planned exactly once — no read form bypasses the planner.
"""

import numpy as np
import pytest

import repro.db.database as database_module
from repro import Database, DataType, Schema
from repro.engine import expr as ex

SCHEMA = Schema.build(
    ("g", DataType.INT64), ("k", DataType.INT64), ("a", DataType.INT64),
    ("b", DataType.STRING), sort_key=("g", "k"),
)
COLUMNS = ("g", "k", "a", "b")
DTYPES = {"g": np.int64, "k": np.int64, "a": np.int64, "b": object}
# (2, 9) cuts *inside* the g=2 group: the prefix (2,) straddles it.
BOUNDARIES = [(1, 20), (2, 9), (3, 30)]

ROWS = [(g, k, g * 100 + k, f"s{g}-{k}")
        for g in range(5) for k in range(0, 40, 2)]
FIRST = (
    [("ins", (g, k, -k, f"i{g}-{k}")) for g in range(5) for k in (1, 9, 39)]
    + [("del", (g, 8)) for g in range(5)]
    + [("mod", (g, 10), "a", 7) for g in range(5)]
)
LATER = (
    [("ins", (2, 11, 33, "late")), ("ins", (4, 77, 5, "tail"))]
    + [("del", (2, 9)), ("del", (0, 0))]
    + [("mod", (2, 10), "a", 12), ("mod", (3, 4), "b", "changed")]
)


def replay(rows: dict, ops) -> dict:
    rows = dict(rows)
    for op in ops:
        if op[0] == "ins":
            rows[op[1][:2]] = tuple(op[1])
        elif op[0] == "del":
            del rows[op[1]]
        else:
            row = list(rows[op[1]])
            row[COLUMNS.index(op[2])] = op[3]
            rows[op[1]] = tuple(row)
    return rows


PINNED = replay({r[:2]: r for r in ROWS}, FIRST)
IMAGES = {"pinned": PINNED, "latest": replay(PINNED, LATER)}


@pytest.fixture(scope="module", params=["unsharded", "sharded"])
def env(request):
    """``(db, pin)``: the pin names the version before ``LATER``."""
    db = Database(compressed=False, block_rows=32)
    if request.param == "sharded":
        db.create_sharded_table("t", SCHEMA, ROWS, boundaries=BOUNDARIES)
        assert db.sharded("t").num_shards == 4
    else:
        db.create_table("t", SCHEMA, ROWS)
    db.apply_batch("t", FIRST)
    pin = db.pin_snapshot()
    db.apply_batch("t", LATER)
    yield db, pin
    pin.release()
    db.close()


@pytest.fixture
def planned(monkeypatch):
    """Calls ``Database`` makes to ``plan_scan``."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    real = database_module.plan_scan
    monkeypatch.setattr(database_module, "plan_scan", counting)
    return calls


# read form -> (method, keyword arguments, inclusive key bounds it means)
READS = {
    "query": ("query", {}, (None, None)),
    "query-sk-full": ("query", {"sk": (2, 10)}, ((2, 10), (2, 10))),
    "query-sk-prefix": ("query", {"sk": (2,)}, ((2,), (2,))),
    "range-closed": ("query_range", {"low": (1, 30), "high": (3, 4)},
                     ((1, 30), (3, 4))),
    "range-open-low": ("query_range", {"high": (2,)}, (None, (2,))),
    "range-open-high": ("query_range", {"low": (2, 9)}, ((2, 9), None)),
    "range-inverted": ("query_range", {"low": (3,), "high": (1,)},
                       ((3,), (1,))),
}
SELECTIVE = ex.and_(ex.ge("a", 5), ex.lt("a", 300))
PUSHES = {
    "plain": {},
    "where-true": {"where": ex.ge("a", -10**9)},
    "where-selective": {"where": SELECTIVE},
    "aggregate": {"aggregate": ex.AggSpec(
        ("g",), {"sa": ("a", "sum"), "n": ("*", "count")})},
    # No input column at all: the planner must still scan something.
    "aggregate-count": {"aggregate": ex.AggSpec((), {"n": ("*", "count")})},
}


def qualifying(image: dict, low, high, selective: bool) -> list:
    out = []
    for sk in sorted(image):
        if low is not None and sk[:len(low)] < low:
            continue
        if high is not None and sk[:len(high)] > high:
            continue
        if selective and not 5 <= image[sk][2] < 300:
            continue
        out.append(image[sk])
    return out


def expected_columns(rows: list, push: str = "plain") -> dict:
    cols = {c: np.array([r[i] for r in rows], dtype=DTYPES[c])
            for i, c in enumerate(COLUMNS)}
    if push == "aggregate-count":
        return {"n": np.array([len(rows)], dtype=np.int64)}
    if push != "aggregate":
        return cols
    groups, inverse = np.unique(cols["g"], return_inverse=True)
    sums = np.zeros(len(groups), dtype=np.int64)
    np.add.at(sums, inverse, cols["a"])
    return {"g": groups, "sa": sums,
            "n": np.bincount(inverse, minlength=len(groups)).astype(np.int64)}


def assert_same(rel, want: dict) -> None:
    assert rel.column_names == list(want)
    for name, column in want.items():
        got = rel[name]
        assert np.array_equal(got, column), name
        if len(column):  # an empty result carries no blocks, so no dtype
            assert got.dtype == column.dtype, name


@pytest.mark.parametrize("version", ["latest", "pinned"])
@pytest.mark.parametrize("push", PUSHES)
@pytest.mark.parametrize("read", READS)
def test_read_matrix(env, planned, read, push, version):
    db, pin = env
    method, kwargs, (low, high) = READS[read]
    kwargs = dict(kwargs, **PUSHES[push])
    if version == "pinned":
        kwargs["pin"] = pin
    rel = getattr(db, method)("t", **kwargs)
    assert planned == ["t"]
    rows = qualifying(IMAGES[version], low, high,
                      selective=push == "where-selective")
    assert_same(rel, expected_columns(rows, push))
    if push == "where-true":
        del kwargs["where"]
        plain = getattr(db, method)("t", **kwargs)
        assert_same(rel, plain.to_dict())


@pytest.mark.parametrize("sk", [(2, 10), (2, 9), (9, 9)],
                         ids=["modified", "deleted", "absent"])
def test_query_point(env, planned, sk):
    db, _ = env
    rel = db.query_point("t", sk)
    assert planned == ["t"]
    rows = qualifying(IMAGES["latest"], sk, sk, selective=False)
    assert len(rows) == (sk == (2, 10))
    assert_same(rel, expected_columns(rows))


# -- deferred maintenance ------------------------------------------------------

LATEST_READS = {
    "query": lambda db, **kw: db.query("t", **kw),
    "query-where": lambda db, **kw: db.query(
        "t", where=ex.ge("a", 0), **kw),
    "query-aggregate": lambda db, **kw: db.query(
        "t", aggregate=ex.AggSpec((), {"sa": ("a", "sum")}), **kw),
    "query-sk": lambda db, **kw: db.query("t", sk=(2, 10), **kw),
    "query_range": lambda db, **kw: db.query_range(
        "t", low=(1,), high=(2,), **kw),
    "query_point": lambda db, **kw: db.query_point("t", (2, 10)),
}


def deferred_fold_db(sharded: bool) -> Database:
    """A fold the ``updates:8`` policy fired but a concurrent
    transaction made the scheduler defer."""
    db = Database(compressed=False, checkpoint_policy="updates:8")
    if sharded:
        db.create_sharded_table("t", SCHEMA, ROWS, boundaries=BOUNDARIES)
    else:
        db.create_table("t", SCHEMA, ROWS)
    blocker = db.begin()
    for k in range(0, 20, 2):
        db.modify("t", (2, k), "a", 1)
    blocker.abort()
    assert db.scheduler.pending()
    return db


@pytest.mark.parametrize("sharded", [False, True],
                         ids=["unsharded", "sharded"])
@pytest.mark.parametrize("read", LATEST_READS)
def test_every_latest_read_drains_deferred_maintenance(read, sharded):
    db = deferred_fold_db(sharded)
    before = db.image_rows("t")
    LATEST_READS[read](db)
    assert not db.scheduler.pending()
    assert db.image_rows("t") == before


@pytest.mark.parametrize("read", [r for r in LATEST_READS
                                  if r != "query_point"])
def test_pinned_reads_do_not_drain(read, monkeypatch):
    db = deferred_fold_db(sharded=False)
    drains = []
    monkeypatch.setattr(db.scheduler, "run_pending", drains.append)
    with db.pin_snapshot() as pin:
        LATEST_READS[read](db, pin=pin)
    assert drains == []
    assert db.scheduler.pending()


def test_range_read_sees_insert_at_a_ghosted_granule_bound():
    """The stable tuple closing granule 0 is a Read-PDT ghost and a
    Write-PDT insert sits just below it — at the window's bound in the
    Write-PDT's SID domain. The window is defined by key, so the pruned
    read still holds it (tests/db/test_window_reads.py generalises)."""
    schema = Schema.build(("k", DataType.INT64), ("a", DataType.INT64),
                          sort_key=("k",))
    db = Database(compressed=False, block_rows=4, sparse_granularity=4)
    db.create_table("t", schema, [(i * 10, i) for i in range(16)])
    db.delete("t", (30,))                    # closes granule 0
    db.manager.propagate_write_to_read("t")  # ... now a Read-PDT ghost
    db.insert("t", (25, 99))                 # Write-PDT, just below it
    assert [r[0] for r in db.query("t").rows()][:5] == [0, 10, 20, 25, 40]
    assert [r[0] for r in db.query_range("t", (0,), (25,)).rows()] == \
        [0, 10, 20, 25]
