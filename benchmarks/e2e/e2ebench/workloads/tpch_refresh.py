"""tpch_refresh — the paper's Fig. 19 setting: read latency and bytes
rewritten while the TPC-H refresh streams run and maintenance keeps up.

mmap backend, TPC-H from ``repro.tpch.dbgen``, lineitem in 4 shards,
thread executor, ``checkpoint_policy="updates:N"`` so checkpoints and
Write->Read folds fire by themselves several times per run, and a buffer
pool a quarter of lineitem's stored size — the one workload whose working
set exceeds the pool. It uses the service and shard layers with writes
beside reads, so a read-path gain paid for on the write or maintenance
path shows here.

One round: a refresh pair (RF1 then RF2, one ``submit_batch`` per table
per half, each its own transaction: this workload's commits), five inline full scans of
lineitem (the ``_query_sharded`` fan-out, where deferred maintenance is
drained), two of its clean twin, then through the service a Q6-shaped
pushed filter+aggregate and ten order-key ranges, and ten inline point
lookups on orders. ``orders`` is checkpointed explicitly three times;
the run ends with six timed reopens.
"""

from __future__ import annotations

import os

import numpy as np

from repro import Database
from repro.engine import expr as ex
from repro.tpch import RefreshApplier, generate as dbgen, load_database
from repro.tpch import schema as tpch_schema
from repro.tpch.dbgen import END_DATE, START_DATE

from ..harness import OP_DEADLINE_S, memcpy_ms
from ..metrics import rounds_at, tree_bytes
from ..probes import COUNTERS
from ..reads import ServiceReads

NAME = "tpch_refresh"
WHY = ("Fig. 19: scans, Q6 and ranges under sustained RF1/RF2 with "
       "scheduler-fired checkpoints and a pool smaller than lineitem")

# SF 0.02 (120k lineitems): dbgen costs 150 us per lineitem, and every run
# of the benchmark has to pay it before it can measure anything.
SCALE_FACTOR = 0.01
ROUNDS = 30  # refresh pairs at metrics.RUN_SECONDS
LINEITEM_SHARDS = 4
# A lineitem shard takes ~30 delta entries per round, 810-990 in 30
# rounds depending on the seed: with 350 every shard checkpoints exactly
# twice (8 cycles per run). At 500 a shard sat at 1.8 cycles and the seed
# decided whether the second one happened, which moved write_amp_x by 9 %.
POLICY = "updates:350"
STORED_BYTES_PER_LINEITEM = 48  # compressed, measured at load
SCANS, CLEAN_SCANS, RANGES, POINTS = 5, 2, 5, 5
RANGE_ORDERS = 64
REOPENS = 6
CHECKPOINTS = 3  # explicit, of orders
TWIN = "lineitem_clean"
Q6 = ex.AggSpec((), {"revenue": ("l_extendedprice", "sum"),
                     "n": ("*", "count")})
Q6_COLUMNS = ("l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
# What a full scan reads: the columns TPC-H Q1 touches.
SCAN_COLUMNS = ["l_quantity", "l_extendedprice", "l_discount", "l_tax",
                "l_returnflag", "l_linestatus", "l_shipdate"]


def rounds_for(seconds: float) -> int:
    return rounds_at(ROUNDS, seconds, CHECKPOINTS)


def _q6_where(first_day: int):
    return ex.and_(ex.ge("l_shipdate", first_day),
                   ex.lt("l_shipdate", first_day + 365),
                   ex.between("l_discount", 0.05, 0.07),
                   ex.lt("l_quantity", 24))


def _user_bytes(ops) -> int:
    total = 0
    for op in ops:
        total += sum(len(v) if isinstance(v, str) else 8 for v in op[1])
    return total


def generate(seed: int, rounds: int) -> dict:
    """dbgen output, the refresh ops of every round, and what each
    round's reads must return (from a key -> line-count model of lineitem
    that follows the refresh stream)."""
    data = dbgen(scale=SCALE_FACTOR, seed=seed, refresh_pairs=rounds)
    applier = RefreshApplier(data)
    rng = np.random.default_rng([seed, 7])
    lines = {k: len(v) for k, v in applier._line_index.items()}
    orders = data.tables["orders"]
    live_orders = set(int(k) for k in orders["o_orderkey"])
    order_dates = applier._date_index
    top_key = int(orders["o_orderkey"].max())
    per_round = []
    for pair in data.refreshes:
        rf1, rf2 = applier.refresh_ops(pair)
        for row in pair.new_lineitems:
            lines[row[0]] = lines.get(row[0], 0) + 1
        for key in pair.delete_orderkeys:
            lines.pop(key, None)
            live_orders.discard(key)
        ranges = []
        for low in rng.integers(0, top_key - RANGE_ORDERS, RANGES):
            low = int(low)
            ranges.append((low, sum(
                lines.get(k, 0) for k in range(low, low + RANGE_ORDERS))))
        points = []
        for at in rng.integers(0, len(orders["o_orderkey"]), POINTS):
            key = int(orders["o_orderkey"][at])
            points.append(((order_dates[key], key),
                           1 if key in live_orders else 0))
        per_round.append({
            "halves": (rf1, rf2),
            "lineitem_rows": sum(lines.values()),
            "orders_rows": len(live_orders) + sum(
                len(p.new_orders)
                for p in data.refreshes[:len(per_round) + 1]),
            "q6_day": int(rng.integers(START_DATE, END_DATE - 365)),
            "ranges": ranges, "points": points,
        })
    return {"data": data, "applier": applier, "rounds": per_round}


def _open_kwargs(data) -> dict:
    pool = data.row_count("lineitem") * STORED_BYTES_PER_LINEITEM // 4
    return {"buffer_capacity": pool, "checkpoint_policy": POLICY}


def setup(inputs: dict, tmp: str) -> dict:
    data = inputs["data"]
    root = os.path.join(tmp, "tpch")
    db = load_database(data, lineitem_shards=LINEITEM_SHARDS,
                       storage="mmap", storage_path=root,
                       **_open_kwargs(data))
    db.create_sharded_table_from_arrays(
        TWIN, tpch_schema.LINEITEM, data.tables["lineitem"],
        shards=LINEITEM_SHARDS)
    svc = db.serve(workers=2)
    # Warm-up: pools as full as they get, service threads started.
    for table in ("lineitem", TWIN, "orders"):
        db.query(table)
    ServiceReads(svc).full("orders", columns=["o_orderkey"])
    return {"db": db, "svc": svc, "root": root, "inputs": inputs}


def _refresh_half(rec, svc, ops_by_table) -> None:
    """One refresh half: one submit_batch per table. Each call is one
    transaction, so it is a batch and a commit at once."""
    for table, ops in ops_by_table.items():
        applied = rec.op(
            "batch",
            lambda: svc.submit_batch(table, ops).result(
                timeout=OP_DEADLINE_S),
            lambda n: n == len(ops))
        if applied is None:
            continue
        rec.add("commit", rec.last_elapsed)
        rec.bump("commits", 1)
        rec.add("commit_wall", rec.last_elapsed)
        rec.bump("batch_ops", len(ops))
        rec.bump("user_bytes", _user_bytes(ops))


def _q6_matches(rel, scan, first_day: int) -> bool:
    """numpy's answer on the columns of this round's last full scan."""
    day, disc, qty = (scan[c] for c in Q6_COLUMNS[:3])
    mask = ((day >= first_day) & (day < first_day + 365)
            & (disc >= 0.05) & (disc <= 0.07) & (qty < 24))
    if int(rel["n"][0]) != int(mask.sum()):
        return False
    return bool(np.isclose(float(rel["revenue"][0]),
                           float(scan["l_extendedprice"][mask].sum()),
                           rtol=1e-9, atol=1e-6))


def run(state: dict, rec) -> None:
    db, svc = state["db"], state["svc"]
    reads = ServiceReads(svc)
    rounds = state["inputs"]["rounds"]
    written_before = COUNTERS.written_bytes()
    scan = None
    for n, round_in in enumerate(rounds, 1):
        for half in round_in["halves"]:
            _refresh_half(rec, svc, half)
        want = round_in["lineitem_rows"]
        for _ in range(SCANS):
            rel = rec.op("scan", lambda: db.query("lineitem", columns=SCAN_COLUMNS),
                         lambda rel: rel.num_rows == want)
            if rel is not None:
                rec.bump("scan_rows", rel.num_rows)
                scan = {c: rel[c] for c in Q6_COLUMNS}
            del rel
        twin_rows = state["inputs"]["data"].row_count("lineitem")
        for _ in range(CLEAN_SCANS):
            rec.op("scan_clean", lambda: db.query(TWIN, columns=SCAN_COLUMNS),
                   lambda rel: rel.num_rows == twin_rows)
        day = round_in["q6_day"]
        if rec.op("agg",
                  lambda: reads.drain(lambda: svc.submit_query(
                      "lineitem", where=_q6_where(day), agg=Q6)),
                  lambda rel: _q6_matches(rel, scan, day)) is not None:
            rec.add("first_block", reads.first_block_s)
            rec.bump("agg_rows", 1)
        for low, rows in round_in["ranges"]:
            if rec.op("range",
                      lambda: reads.drain(lambda: svc.submit_range(
                          "lineitem", low=(low,),
                          high=(low + RANGE_ORDERS - 1,))),
                      lambda rel: rel.num_rows == rows) is not None:
                rec.add("first_block", reads.first_block_s)
        for key, rows in round_in["points"]:
            rec.op("point", lambda: db.query_point("orders", key),
                   lambda rel: rel.num_rows == rows)
        for third in range(CHECKPOINTS):
            if n == (third + 1) * len(rounds) // CHECKPOINTS:
                rec.op("checkpoint",
                       lambda: db.checkpoint("orders") or True)
    state["router_stats"] = db.exec_router.as_dict()
    state["service_stats"] = svc.stats.as_dict()
    state["pdt_entries"] = sum(
        shard.read_pdt.count() + shard.write_pdt.count()
        for shard in db.sharded("lineitem").shard_states())
    state["memcpy_ms"] = memcpy_ms(
        db.query("lineitem", columns=SCAN_COLUMNS).to_dict())
    # Timed reopens; the last database stays open for the oracle.
    svc.close()
    db.close()
    kwargs = _open_kwargs(state["inputs"]["data"])
    want = rounds[-1]["lineitem_rows"]
    for n in range(REOPENS):
        state["db"] = rec.op(
            "reopen", lambda: Database.recover(state["root"], **kwargs),
            lambda db: db.query("lineitem").num_rows == want)
        if state["db"] is not None and n < REOPENS - 1:
            state["db"].close()
    rec.bump("written_bytes", COUNTERS.written_bytes() - written_before)


def _table_matches(db, table: str, expected_rows) -> bool:
    rel = db.query(table)
    if rel.num_rows != len(expected_rows):
        return False
    for i, name in enumerate(tpch_schema.SCHEMAS[table].column_names):
        got = rel[name]
        want = np.empty(len(expected_rows), dtype=got.dtype)
        want[:] = [row[i] for row in expected_rows]
        if not np.array_equal(got, want):
            return False
    return True


def finish(state: dict, rec) -> dict:
    """The final oracle: lineitem and orders equal the refresh stream's
    set-wise ground truth, after recovery."""
    db = state["db"]
    applier = state["inputs"]["applier"]
    problems = []
    live_bytes = 0
    for table in ("lineitem", "orders"):
        expected = applier.post_update_rows(table)
        if db is None or not _table_matches(db, table, expected):
            problems.append(f"{table} differs from post_update_rows")
        live_bytes += _user_bytes(("ins", row) for row in expected)
    return {
        "pdt_entries": state["pdt_entries"],
        "memcpy_ms": state["memcpy_ms"],
        "disk_bytes": tree_bytes(state["root"]),
        "live_user_bytes": live_bytes,
        "router_stats": state["router_stats"],
        "service_stats": state["service_stats"],
        "problems": problems,
    }


def teardown(state: dict) -> None:
    if not state["svc"].closed:
        state["svc"].close()
    if state["db"] is not None:
        state["db"].close()


EXPECTED_PROBES = (
    "db.facade", "db.batch_prepare", "db.batch_commit_staged",
    "core.merge", "core.propagate", "engine.relation_build",
    "engine.expr_eval", "storage.pool_get", "storage.block_read",
    "storage.put", "txn.commit", "txn.wal_append", "txn.fsync",
    "txn.checkpoint", "txn.scheduler", "txn.propagate_fold",
    "txn.recovery", "shard.route", "shard.fanout_wait", "service.plan",
    "service.submit", "service.job_run", "service.cursor_merge",
    "service.write",
)
