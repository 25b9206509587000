"""Figure 17 — MergeScan: scaling and key type (PDT vs VDT).

The paper scans tables of 1M/10M/100M tuples (4 data columns + 1 key
column, int or string keys) after 0-2.5 updates per 100 tuples, and finds:
PDT beats VDT at every update rate (>= 3x), VDT degrades with update rate
(sharply for string keys), PDT stays nearly flat, and both scale linearly
with table size. Tables here are memory-resident (as in the paper's
microbenchmarks) so the comparison is pure merge CPU; sizes are scaled by
``REPRO_SCALE``.

Run: ``pytest benchmarks/bench_fig17_mergescan_scaling.py --benchmark-only``
"""

from __future__ import annotations

import pytest

from repro.bench import Report, consume, scaled
from repro.core import merge_scan_layers
from repro.vdt import vdt_merge_scan
from repro.workloads import apply_ops_pdt, apply_ops_vdt, build_workload

SIZES = [scaled(20_000), scaled(100_000), scaled(400_000)]
RATES = [0.0, 0.5, 1.0, 2.5]
BATCH_ROWS = 4096

_report = Report(
    "Figure 17: MergeScan time (ms), PDT vs VDT, by size/key type/rate",
    ["rows", "key_type", "updates_per_100", "structure", "ms"],
)


@pytest.fixture(scope="module", autouse=True)
def report_at_end():
    yield
    if _report.rows:
        _report.print()
        _report.save("fig17_mergescan_scaling")


@pytest.fixture(scope="module")
def cases():
    """workload cache keyed by (rows, key_type, rate)."""
    cache = {}
    for n in SIZES:
        for key_type in ("int", "str"):
            for rate in RATES:
                wl = build_workload(
                    n, updates_per_100=rate, key_type=key_type,
                    n_data_cols=4, seed=n + int(rate * 10),
                    granularity=256,
                )
                pdt = apply_ops_pdt(wl.table, wl.ops, wl.sparse_index)
                vdt = apply_ops_vdt(wl.table, wl.ops)
                cache[(n, key_type, rate)] = (wl, pdt, vdt)
    return cache


def _params():
    for n in SIZES:
        for key_type in ("int", "str"):
            for rate in RATES:
                yield n, key_type, rate


@pytest.mark.parametrize("n,key_type,rate", list(_params()))
def test_fig17_pdt(benchmark, cases, n, key_type, rate):
    wl, pdt, _ = cases[(n, key_type, rate)]
    cols = list(wl.data_columns)  # projection of the 4 data columns

    result = benchmark.pedantic(
        lambda: consume(
            merge_scan_layers(wl.table, [pdt], columns=cols,
                              batch_rows=BATCH_ROWS)
        ),
        rounds=3, iterations=1,
    )
    assert result == wl.table.num_rows + pdt.total_delta()
    _report.add(n, key_type, rate, "PDT",
                benchmark.stats["mean"] * 1000)


@pytest.mark.parametrize("rate", RATES)
def test_fig17_pdt_layer_stack(benchmark, cases, rate):
    """Three-layer block pipeline vs the single-layer scan.

    Splits the largest int workload's PDT across Read/Write/Trans-shaped
    layers and streams blocks through the composed stack — the shape every
    transactional query takes. The pipeline never materializes between
    layers, so the cost should stay close to the single-layer row.
    """
    from repro.core import PDT

    n = SIZES[-1]
    wl, pdt, _ = cases[(n, "int", rate)]
    cols = list(wl.data_columns)
    # Lower layer: the existing PDT. Upper layer: empty (the common case
    # of a read-only transaction), exercising the skip-fast-path.
    upper = PDT(wl.table.schema)
    result = benchmark.pedantic(
        lambda: consume(
            merge_scan_layers(wl.table, [pdt, upper], columns=cols,
                              batch_rows=BATCH_ROWS)
        ),
        rounds=3, iterations=1,
    )
    assert result == wl.table.num_rows + pdt.total_delta()
    _report.add(n, "int", rate, "PDT-stack",
                benchmark.stats["mean"] * 1000)


@pytest.mark.parametrize("n,key_type,rate", list(_params()))
def test_fig17_vdt(benchmark, cases, n, key_type, rate):
    wl, _, vdt = cases[(n, key_type, rate)]
    cols = list(wl.data_columns)

    result = benchmark.pedantic(
        lambda: consume(
            vdt_merge_scan(wl.table, vdt, columns=cols,
                           batch_rows=BATCH_ROWS)
        ),
        rounds=3, iterations=1,
    )
    assert result == wl.table.num_rows + vdt.total_delta()
    _report.add(n, key_type, rate, "VDT",
                benchmark.stats["mean"] * 1000)
