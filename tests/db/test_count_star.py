"""Global ``count(*)``: an aggregate that names no input column.

``AggSpec((), {"n": ("*", "count")})`` gives the planner nothing to scan
(``AggSpec.inputs()`` is empty), yet the answer is the row count of the
merged image. Every read form must return the size of a plain key-set
model: on a clean table, with one delta, and through a pin taken before
a later commit — inline and through the query service, unsharded and on
a 4-shard table, with thread and with process execution.
"""

import numpy as np
import pytest

from repro import Database, DataType, Schema
from repro.engine import expr as ex

SCHEMA = Schema.build(("k", DataType.INT64), ("v", DataType.INT64),
                      sort_key=("k",))
N_ROWS = 10_000  # 4 shards x 2.5k rows, above the router's MIN_REMOTE_ROWS
COUNT = ex.AggSpec((), {"n": ("*", "count")})
TWO_COUNTS = ex.AggSpec((), {"n": ("*", "count"), "m": ("*", "count")})
LOW, HIGH = 1_000, 12_000  # inclusive key bounds of the range forms
V_MIN = 6_000              # where= bound; v == k on every stable row

# Stable keys are even, so an odd key inserts between two stable rows.
ONE_DELTA = [("ins", (5_001, 5_001))]
LATER = [("ins", (2 * N_ROWS + 1, 0)), ("ins", (2_001, 2_001)),
         ("del", (8_000,)), ("del", (4,)), ("mod", (10,), "v", 10**6)]


def replay(model: dict, ops) -> dict:
    model = dict(model)
    for op in ops:
        if op[0] == "ins":
            model[op[1][0]] = op[1][1]
        elif op[0] == "del":
            del model[op[1][0]]
        else:
            model[op[1][0]] = op[3]
    return model


def make_db(root, layout: str, executor: str) -> Database:
    db = Database(storage="mmap", storage_path=str(root), executor=executor,
                  workers=2)
    keys = np.arange(0, 2 * N_ROWS, 2, dtype=np.int64)
    arrays = {"k": keys, "v": keys.copy()}
    if layout == "sharded":
        db.create_sharded_table_from_arrays("t", SCHEMA, arrays, shards=4)
    else:
        db.create_table_from_arrays("t", SCHEMA, arrays)
    return db


def counts(db, svc, pin) -> dict:
    """The count every read form returns, by form name."""
    def one(rel, names=("n",)):
        assert rel.column_names == list(names) and rel.num_rows == 1
        assert len({int(rel[name][0]) for name in names}) == 1
        return int(rel["n"][0])

    return {
        "query": one(db.query("t", aggregate=COUNT, pin=pin)),
        "query-two-counts": one(
            db.query("t", aggregate=TWO_COUNTS, pin=pin), ("n", "m")),
        "query_range": one(db.query_range(
            "t", low=(LOW,), high=(HIGH,), aggregate=COUNT, pin=pin)),
        "where": one(db.query(
            "t", where=ex.ge("v", V_MIN), aggregate=COUNT, pin=pin)),
        "service": one(
            svc.submit_query("t", agg=COUNT, pin=pin).to_relation()),
        "service-range": one(svc.submit_range(
            "t", low=(LOW,), high=(HIGH,), agg=COUNT, pin=pin
        ).to_relation()),
    }


def expected(model: dict) -> dict:
    in_range = sum(LOW <= k <= HIGH for k in model)
    return {
        "query": len(model),
        "query-two-counts": len(model),
        "query_range": in_range,
        "where": sum(v >= V_MIN for v in model.values()),
        "service": len(model),
        "service-range": in_range,
    }


@pytest.mark.parametrize("state", ["clean", "one-delta", "pinned"])
@pytest.mark.parametrize("layout,executor", [
    ("unsharded", "thread"), ("sharded", "thread"), ("sharded", "process"),
])
def test_count_star_equals_model(tmp_path, layout, executor, state):
    db = make_db(tmp_path / "db", layout, executor)
    model = {k: k for k in range(0, 2 * N_ROWS, 2)}
    pin = None
    try:
        if state != "clean":
            db.apply_batch("t", ONE_DELTA)
            model = replay(model, ONE_DELTA)
        if state == "pinned":
            pin = db.pin_snapshot()
            db.apply_batch("t", LATER)
        with db.serve(workers=2) as svc:
            assert counts(db, svc, pin) == expected(model)
            if pin is not None:  # and the latest state, past the pin
                assert counts(db, svc, None) == \
                    expected(replay(model, LATER))
        if executor == "process":
            assert db.exec_router.remote_jobs > 0
    finally:
        if pin is not None:
            pin.release()
        db.close()
