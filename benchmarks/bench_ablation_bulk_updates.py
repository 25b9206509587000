"""Ablation — one batch vs the same operations applied one at a time.

The write-side twin of the block-merge ablation: the same scattered
update stream applied through :class:`PositionalUpdater` (one resolve
per operation) and through :class:`BatchUpdater` (sort the batch,
resolve every target position in one index-guided sweep, ingest the run
with one bulk PDT append). The paper's update-throughput results
(Figure 16) hinge on batch application; Krueger et al. make the same
point for delta ingestion generally.

Both sides call the same resolver, ``resolve_batch_positions``. Since
the per-operation side stopped walking the merged keys tuple by tuple
and became a one-key call of that sweep (merge one granule,
``searchsorted``, stop), it is several times faster than when this
bench was written, so the ratio measured here fell from ~210-220x to
~12-35x at CI scale and ``baselines/ablation_bulk_updates_speedup.json``
was re-recorded to match: the drop is the denominator improving, not
the batch path regressing. What is left of the ratio is what batching
itself buys — one merge of each granule instead of one per operation,
and one bulk append instead of per-entry tree descents.

The acceptance configuration is the 100k-row stable table with a
10k-operation batch (10 updates/100), where the batch must be ≥ 3× the
per-operation path; the final report prints the measured speedup per
rate.

Run: ``pytest benchmarks/bench_ablation_bulk_updates.py -q -s``
"""

from __future__ import annotations

import time

import pytest

from repro.bench import Report, scaled
from repro.workloads import apply_ops_pdt, build_workload

N_ROWS = scaled(100_000)
RATES = [0.5, 2.0, 10.0]  # 10.0 == the 10k-op acceptance point
GRANULARITY = 4096

_report = Report(
    f"Ablation: bulk vs scalar update application ({N_ROWS} rows), ms",
    ["updates_per_100", "variant", "ms"],
)
_times: dict[tuple, float] = {}


@pytest.fixture(scope="module", autouse=True)
def report_at_end():
    yield
    if not _report.rows:
        return
    _report.print()
    _report.save("ablation_bulk_updates")
    speedup = Report(
        "Ablation: bulk update path speedup over scalar per-row path",
        ["updates_per_100", "speedup_x"],
    )
    for rate in RATES:
        scalar_ms = _times.get((rate, "scalar"))
        bulk_ms = _times.get((rate, "bulk"))
        if scalar_ms is None or bulk_ms is None:
            continue
        speedup.add(rate, scalar_ms / bulk_ms)
    if speedup.rows:
        speedup.print()
        speedup.save("ablation_bulk_updates_speedup")


@pytest.fixture(scope="module")
def cases():
    cache = {}
    for rate in RATES:
        cache[rate] = build_workload(
            N_ROWS, updates_per_100=rate, seed=int(rate * 3) + 1,
            granularity=GRANULARITY,
        )
    return cache


def _best_of(fn, n):
    best = float("inf")
    result = None
    for _ in range(n):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.parametrize("rate", RATES)
def test_bulk_path(cases, rate):
    wl = cases[rate]
    secs, pdt = _best_of(
        lambda: apply_ops_pdt(wl.table, wl.ops, wl.sparse_index, bulk=True),
        n=3,
    )
    assert pdt.count() > 0
    _report.add(rate, "bulk", secs * 1000)
    _times[(rate, "bulk")] = secs * 1000


@pytest.mark.parametrize("rate", RATES)
def test_scalar_path(cases, rate):
    wl = cases[rate]
    secs, pdt = _best_of(
        lambda: apply_ops_pdt(wl.table, wl.ops, wl.sparse_index, bulk=False),
        n=1,
    )
    assert pdt.count() > 0
    _report.add(rate, "scalar", secs * 1000)
    _times[(rate, "scalar")] = secs * 1000


def test_acceptance_speedup(cases):
    """The PR's acceptance bar, asserted: ≥ 3× at 100k stable rows with a
    10k-operation batch. Both paths produce identical PDTs (the property
    suite proves it); here only the clock differs."""
    wl = cases[10.0]
    bulk_s, bulk_pdt = _best_of(
        lambda: apply_ops_pdt(wl.table, wl.ops, wl.sparse_index, bulk=True),
        n=3,
    )
    scalar_s, scalar_pdt = _best_of(
        lambda: apply_ops_pdt(wl.table, wl.ops, wl.sparse_index, bulk=False),
        n=1,
    )
    assert bulk_pdt.count() == scalar_pdt.count()
    ratio = scalar_s / bulk_s
    print(f"\nacceptance: bulk {bulk_s*1e3:.1f} ms, "
          f"scalar {scalar_s*1e3:.1f} ms, speedup {ratio:.2f}x "
          f"({len(wl.ops)} ops over {wl.table.num_rows} rows)")
    assert ratio >= 3.0
