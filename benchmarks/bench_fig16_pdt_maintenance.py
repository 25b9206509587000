"""Figure 16 — PDT maintenance cost vs PDT size.

The paper grows a PDT to 1M update entries and plots per-operation cost
for inserts, modifies, and deletes, showing logarithmic growth with
inserts the most expensive (they compare sort keys to compute insert
SIDs). This benchmark reproduces the series at scaled-down sizes
(``REPRO_SCALE`` multiplies them); per-op microseconds are printed in a
Figure-16-style table and stored in each benchmark's ``extra_info``.

Run: ``pytest benchmarks/bench_fig16_pdt_maintenance.py --benchmark-only -s``
"""

from __future__ import annotations

import bisect
import random

import pytest

from repro.bench import Report, scaled
from repro.core.pdt import PDT
from repro.workloads import micro_schema

SIZES = [scaled(1_000), scaled(50_000), scaled(125_000), scaled(250_000)]
BATCH = 400

_report = Report(
    "Figure 16: PDT maintenance cost (us/op) vs PDT size",
    ["pdt_size", "operation", "us_per_op"],
)


class _GrowingImage:
    """Tracks the merged image's keys so ops can be planned with valid
    (sk, rid) pairs without scanning anything during timing."""

    def __init__(self, n_stable: int, seed: int):
        self.schema = micro_schema(1, "int", 2)
        self.keys = [i * 2 for i in range(n_stable)]
        self.rng = random.Random(seed)
        self.next_fresh = n_stable * 2 + 1

    def plan_insert(self):
        key = self.rng.randrange(self.next_fresh) * 2 + 1
        rid = bisect.bisect_left(self.keys, key)
        if rid < len(self.keys) and self.keys[rid] == key:
            key = self.next_fresh
            self.next_fresh += 2
            rid = bisect.bisect_left(self.keys, key)
        self.keys.insert(rid, key)
        return (key,), rid, (key, 0, 0)

    def plan_modify(self):
        rid = self.rng.randrange(len(self.keys))
        return rid, 1, self.rng.randrange(10**6)

    def plan_delete(self):
        rid = self.rng.randrange(len(self.keys))
        key = self.keys.pop(rid)
        return rid, (key,)


def _grow_pdt(size: int, seed: int = 0):
    """PDT with ``size`` entries, grown by scattered inserts/modifies."""
    image = _GrowingImage(n_stable=max(size, 1000), seed=seed)
    pdt = PDT(image.schema)
    rng = random.Random(seed + 1)
    while pdt.count() < size:
        if rng.random() < 0.7:
            sk, rid, row = image.plan_insert()
            pdt.add_insert(pdt.sk_rid_to_sid(sk, rid), rid, list(row))
        else:
            rid, col, value = image.plan_modify()
            pdt.add_modify(rid, col, value)
    return pdt, image


@pytest.fixture(scope="module")
def grown():
    cache = {}
    for size in SIZES:
        cache[size] = _grow_pdt(size)
    return cache


@pytest.fixture(scope="module", autouse=True)
def report_at_end():
    yield
    if _report.rows:
        _report.print()
        _report.save("fig16_pdt_maintenance")


def _record(benchmark, size, op):
    per_op_us = benchmark.stats["mean"] / BATCH * 1e6
    benchmark.extra_info["pdt_size"] = size
    benchmark.extra_info["us_per_op"] = per_op_us
    _report.add(size, op, per_op_us)


@pytest.mark.parametrize("size", SIZES)
def test_fig16_insert(benchmark, grown, size):
    pdt, image = grown[size]

    def setup():
        batch = [image.plan_insert() for _ in range(BATCH)]
        return (pdt, batch), {}

    def run(pdt, batch):
        for sk, rid, row in batch:
            pdt.add_insert(pdt.sk_rid_to_sid(sk, rid), rid, list(row))

    benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    _record(benchmark, size, "insert")


@pytest.mark.parametrize("size", SIZES)
def test_fig16_modify(benchmark, grown, size):
    pdt, image = grown[size]

    def setup():
        batch = [image.plan_modify() for _ in range(BATCH)]
        return (pdt, batch), {}

    def run(pdt, batch):
        for rid, col, value in batch:
            pdt.add_modify(rid, col, value)

    benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    _record(benchmark, size, "modify")


@pytest.mark.parametrize("size", SIZES)
def test_fig16_delete(benchmark, grown, size):
    pdt, image = grown[size]

    def setup():
        batch = [image.plan_delete() for _ in range(BATCH)]
        return (pdt, batch), {}

    def run(pdt, batch):
        for rid, sk in batch:
            pdt.add_delete(rid, sk)

    benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    _record(benchmark, size, "delete")


# -- checkpoint-scheduler companion series -----------------------------------
#
# The paper's maintenance costs assume something keeps the PDT small. This
# series trickles the same scattered update stream through a Database under
# each scheduler policy and reports total wall clock plus the residual
# delta footprint — the amortization trade the scheduler buys.

_sched_report = Report(
    "Figure 16 companion: trickle updates under checkpoint policies",
    ["policy", "total_ms", "residual_entries", "checkpoints", "range_folds"],
)

_POLICIES = [
    ("manual-never", None),
    ("updates-cap", "updates:2000"),
    ("hot-ranges", "hot-ranges:4"),
]


@pytest.fixture(scope="module", autouse=True)
def sched_report_at_end():
    yield
    if _sched_report.rows:
        _sched_report.print()
        _sched_report.save("fig16_checkpoint_policies")


@pytest.mark.parametrize("label,spec", _POLICIES)
def test_fig16_scheduler_amortization(benchmark, label, spec):
    from repro import Database
    from repro.workloads import build_table, generate_ops

    n_rows = scaled(50_000)
    table = build_table(n_rows, n_data_cols=2)
    ops = generate_ops(table, updates_per_100=5.0, seed=3)

    def setup():
        db = Database(block_rows=4096, checkpoint_policy=spec)
        db.create_table_from_arrays(
            "micro", table.schema,
            {c: table.column(c) for c in table.schema.column_names},
        )
        return (db,), {}

    def run(db):
        for op in ops:
            if op[0] == "ins":
                db.insert("micro", op[1])
            elif op[0] == "del":
                db.delete("micro", op[1])
            else:
                db.modify("micro", op[1], op[2], op[3])
        _sched_report.add(
            label,
            0.0,  # patched below with the measured mean
            db.manager.state_of("micro").read_pdt.count()
            + db.manager.state_of("micro").write_pdt.count(),
            db.scheduler.stats.checkpoints,
            db.scheduler.stats.range_checkpoints,
        )

    benchmark.pedantic(run, setup=setup, rounds=1, iterations=1)
    _sched_report.rows[-1][1] = benchmark.stats["mean"] * 1000
