"""Reads at ghosted granule bounds, against a dict model.

A read pruned by the sparse index scans a stable SID window, and a window
holds the image tuples keyed in ``(key[start-1], key[stop-1]]``
(``tests/core/test_window.py``). The hostile shape for a read: the stable
row closing a granule is a Read-PDT ghost and the Write-PDT holds inserts
at or below its key, which sit exactly at the window's bound in the
Write-PDT's SID domain. Every history here puts that shape at every
granule bound, then adds random ops around the bounds
(``tests/oracles/histories.py``). Every read form — ``query``,
``query(sk=)``, ``query_range``, ``query_point`` — plain, with ``where=``
(incl. ``eq`` on the key) and with ``aggregate=`` (incl. a zero-input
``count(*)``), through the facade, the query service and a 4-shard
table, for every key pair of the key space, must equal a plain
``{key: row}`` model; and every window the planner hands a shard must
hold only tuples keyed inside it.
"""

import random
from bisect import bisect_right

import pytest

from repro import Database
from repro.engine import expr as ex
from repro.service.plan import plan_scan

from ..oracles.histories import make_schema, random_ops

SCHEMA = make_schema(1)  # (k0, a), sorted by k0
N_ROWS = 16              # stable keys 0, 2, ..., 30
GRANULE = 2
BOUNDARIES = [(8,), (16,), (24,)]  # 4 shards x 4 rows x 2 granules
CLOSERS = list(range(2 * GRANULE - 2, 2 * N_ROWS, 2 * GRANULE))
KEYS = range(-1, 2 * N_ROWS + 1)  # every key, one beyond either end

SELECT = ex.lt("a", 500)
COUNT = ex.AggSpec((), {"n": ("*", "count")})
SUM = ex.AggSpec((), {"s": ("a", "sum")})
PUSHES = {
    "plain": {},
    "where": {"where": SELECT},
    "count": {"aggregate": COUNT},
    "sum-where": {"where": SELECT, "aggregate": SUM},
}


def history(seed):
    """Two batches: the first ends up in the Read-PDT — every granule
    closer a ghost — the second in the Write-PDT, inserting the key just
    below every closer and the closer itself wherever they are not live;
    random ops around the closers follow each."""
    rng = random.Random(seed)
    live = set(range(0, 2 * N_ROWS, 2)) - set(CLOSERS)
    lower = [("del", (c,)) for c in CLOSERS]
    lower += random_ops(rng, live, CLOSERS, 2 * N_ROWS, 8)
    upper = []
    for c in CLOSERS:
        for k in (c - 1, c):
            if k not in live:
                upper.append(("ins", (k, rng.randrange(1000))))
                live.add(k)
    upper += random_ops(rng, live, CLOSERS, 2 * N_ROWS, 8)
    return lower, upper


def replay(model: dict, ops) -> dict:
    model = dict(model)
    for op in ops:
        if op[0] == "ins":
            model[op[1][0]] = tuple(op[1])
        elif op[0] == "del":
            del model[op[1][0]]
        else:
            model[op[1][0]] = (op[1][0], op[3])
    return model


@pytest.fixture(scope="module", params=[
    ("unsharded", 0), ("unsharded", 1), ("sharded", 0), ("sharded", 1),
], ids=lambda p: f"{p[0]}-{p[1]}")
def env(request):
    """``(db, svc, model)`` after one history."""
    layout, seed = request.param
    db = Database(compressed=False, block_rows=GRANULE,
                  sparse_granularity=GRANULE)
    rows = [(k, k) for k in range(0, 2 * N_ROWS, 2)]
    if layout == "sharded":
        db.create_sharded_table("t", SCHEMA, rows, boundaries=BOUNDARIES)
        names = db.sharded("t").shard_names
        assert len(names) == 4
    else:
        db.create_table("t", SCHEMA, rows)
        names = ["t"]
    lower, upper = history(seed)
    db.apply_batch("t", lower)
    for name in names:
        db.manager.propagate_write_to_read(name)
    db.apply_batch("t", upper)
    model = replay(replay({r[0]: r for r in rows}, lower), upper)
    with db.serve(workers=2) as svc:
        yield db, svc, dict(sorted(model.items()))
    db.close()


def expected(model: dict, low, high, push: str):
    rows = [row for k, row in model.items()
            if (low is None or k >= low) and (high is None or k <= high)]
    if "where" in PUSHES[push]:
        rows = [r for r in rows if r[1] < 500]
    if push == "count":
        return [(len(rows),)]
    if push == "sum-where":
        return [(sum(r[1] for r in rows),)]
    return rows


def got(rel) -> list:
    return [tuple(int(v) for v in row) for row in rel.rows()]


@pytest.mark.parametrize("push", PUSHES)
def test_every_key_pair_range_equals_model(env, push):
    db, svc, model = env
    kwargs = PUSHES[push]
    for lo in KEYS:
        for hi in KEYS[lo - KEYS[0]:]:
            want = expected(model, lo, hi, push)
            assert got(db.query_range("t", (lo,), (hi,), **kwargs)) == \
                want, (lo, hi)
            cursor = svc.submit_range("t", low=(lo,), high=(hi,),
                                      where=kwargs.get("where"),
                                      agg=kwargs.get("aggregate"))
            assert got(cursor.to_relation()) == want, (lo, hi)


@pytest.mark.parametrize("push", PUSHES)
def test_every_key_point_and_full_scan_equal_model(env, push):
    db, svc, model = env
    kwargs = PUSHES[push]
    where = kwargs.get("where")
    agg = kwargs.get("aggregate")
    for k in KEYS:
        want = expected(model, k, k, push)
        assert got(db.query("t", sk=(k,), **kwargs)) == want, k
        on_key = ex.eq("k0", k) if where is None else ex.and_(
            ex.eq("k0", k), where)
        assert got(db.query("t", where=on_key, aggregate=agg)) == want, k
        assert got(svc.submit_query("t", where=on_key, agg=agg)
                   .to_relation()) == want, k
        if push == "plain":
            assert got(db.query_point("t", (k,))) == want, k
    want = expected(model, None, None, push)
    assert got(db.query("t", **kwargs)) == want
    assert got(svc.submit_query("t", where=where, agg=agg)
               .to_relation()) == want


def test_planned_windows_hold_only_their_keys(env):
    """Every shard window the planner emits streams exactly the model's
    tuples of that shard keyed in (key[sid_lo-1], key[sid_hi-1]]."""
    db, _, model = env
    with db.pin_snapshot() as pin:
        names = pin.physical_names("t")
        for lo in KEYS:
            for hi in KEYS[lo - KEYS[0]:]:
                plan = plan_scan(pin, "t", (lo,), (hi,))
                for part in plan.parts:
                    stable = part.pinned.stable
                    low = stable.sk_at(part.sid_lo - 1)[0] \
                        if part.sid_lo else None
                    high = stable.sk_at(part.sid_hi - 1)[0] \
                        if part.sid_hi < stable.num_rows else None
                    shard = names.index(part.pinned.name)
                    want = [row for k, row in model.items()
                            if (low is None or k > low)
                            and (high is None or k <= high)
                            and (len(names) == 1 or bisect_right(
                                BOUNDARIES, (k,)) == shard)]
                    rows = []
                    for _, arrays in part.stream(fixed=False):
                        rows += zip(arrays["k0"].tolist(),
                                    arrays["a"].tolist())
                    assert rows == want, (lo, hi, part.pinned.name)
