"""Figure 18 — MergeScan with single- vs multi-column sort keys.

A 6-column table whose sort key uses 1..4 of the columns (int or string).
The query projects the remaining non-key columns. Expected shape (paper):
VDT time *grows* with the number of key columns (more columns scanned and
compared per delta), while PDT time *decreases* (fewer non-key columns to
project) and is insensitive to key complexity.

Run: ``pytest benchmarks/bench_fig18_multicolumn_keys.py --benchmark-only``
"""

from __future__ import annotations

import pytest

from repro.bench import Report, consume, scaled
from repro.core import merge_scan_layers
from repro.vdt import vdt_merge_scan
from repro.workloads import apply_ops_pdt, apply_ops_vdt, build_workload

N_ROWS = scaled(100_000)
N_COLUMNS = 6
KEY_COUNTS = [1, 2, 3, 4]
RATES = [1.0, 2.5]
BATCH_ROWS = 4096

_report = Report(
    "Figure 18: MergeScan time (ms) vs number of key columns",
    ["key_type", "updates_per_100", "n_keys", "structure", "ms"],
)


@pytest.fixture(scope="module", autouse=True)
def report_at_end():
    yield
    if _report.rows:
        _report.print()
        _report.save("fig18_multicolumn_keys")


@pytest.fixture(scope="module")
def cases():
    cache = {}
    for key_type in ("int", "str"):
        for n_keys in KEY_COUNTS:
            for rate in RATES:
                wl = build_workload(
                    N_ROWS,
                    updates_per_100=rate,
                    n_key_cols=n_keys,
                    key_type=key_type,
                    n_data_cols=N_COLUMNS - n_keys,
                    seed=n_keys * 10 + int(rate),
                    granularity=256,
                )
                pdt = apply_ops_pdt(wl.table, wl.ops, wl.sparse_index)
                vdt = apply_ops_vdt(wl.table, wl.ops)
                cache[(key_type, n_keys, rate)] = (wl, pdt, vdt)
    return cache


def _params():
    for key_type in ("int", "str"):
        for rate in RATES:
            for n_keys in KEY_COUNTS:
                yield key_type, rate, n_keys


@pytest.mark.parametrize("key_type,rate,n_keys", list(_params()))
def test_fig18_pdt(benchmark, cases, key_type, rate, n_keys):
    wl, pdt, _ = cases[(key_type, n_keys, rate)]
    cols = list(wl.data_columns)  # project the non-key columns only

    rows = benchmark.pedantic(
        lambda: consume(
            merge_scan_layers(wl.table, [pdt], columns=cols,
                              batch_rows=BATCH_ROWS)
        ),
        rounds=3, iterations=1,
    )
    assert rows == wl.table.num_rows + pdt.total_delta()
    _report.add(key_type, rate, n_keys, "PDT",
                benchmark.stats["mean"] * 1000)


@pytest.mark.parametrize("key_type,rate,n_keys", list(_params()))
def test_fig18_vdt(benchmark, cases, key_type, rate, n_keys):
    wl, _, vdt = cases[(key_type, n_keys, rate)]
    cols = list(wl.data_columns)

    rows = benchmark.pedantic(
        lambda: consume(
            vdt_merge_scan(wl.table, vdt, columns=cols,
                           batch_rows=BATCH_ROWS)
        ),
        rounds=3, iterations=1,
    )
    assert rows == wl.table.num_rows + vdt.total_delta()
    _report.add(key_type, rate, n_keys, "VDT",
                benchmark.stats["mean"] * 1000)
