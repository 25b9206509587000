"""Figure 19 — TPC-H under an update load: no-updates vs VDT vs PDT.

Reproduces all five plots of the paper's Figure 19 on the simulated-disk
substrate (scale factor via ``REPRO_TPCH_SF``, default 0.01; the paper
used SF-30 compressed on a server and SF-10 uncompressed on a
workstation). The official-style refresh streams (insert+delete ~0.1% of
orders and lineitem, scattered) are applied before measuring.

* Plot 1/3 analogue — **cold** execution times, compressed/uncompressed:
  buffer pool cleared before every query; reported time = CPU time + I/O
  volume converted through a bandwidth model.
* Plot 2/5 analogue — **I/O volume** per query, compressed/uncompressed:
  bytes read from the simulated disk (VDT must read sort-key columns).
* Plot 4 analogue — **hot** execution times, uncompressed: pool pre-warmed,
  measuring the pure CPU cost of merging (scan vs processing split
  recorded by each source's ``scan_seconds``).

Queries 2, 11, 16 touch no updated tables and serve as built-in controls.

Run: ``pytest benchmarks/bench_fig19_tpch.py --benchmark-only -s``
"""

from __future__ import annotations

import pytest

from repro.bench import Report, time_once, tpch_sf
from repro.tpch import (
    CleanSource,
    PdtSource,
    RefreshApplier,
    VdtSource,
    generate,
    load_database,
    run_query,
)

SF = tpch_sf()
QUERIES = list(range(1, 23))
MODES = ("none", "vdt", "pdt")

#: Paper workstation read bandwidth: 150 MB/s (section 4). Used to convert
#: simulated I/O volume into cold-run seconds.
READ_BANDWIDTH = 150e6


def _build_env(compressed: bool):
    data = generate(scale=SF, seed=20100608)
    db = load_database(data, compressed=compressed)
    applier = RefreshApplier(data)
    applier.apply_all_pdt(db)
    vdts = applier.make_vdts()
    applier.apply_all_vdt(vdts)
    sources = {
        "none": CleanSource(db),
        "vdt": VdtSource(db, vdts),
        "pdt": PdtSource(db),
    }
    return db, sources


@pytest.fixture(scope="module")
def uncompressed_env():
    return _build_env(compressed=False)


@pytest.fixture(scope="module")
def compressed_env():
    return _build_env(compressed=True)


# ---------------------------------------------------------------------------
# Plot 4 analogue: hot uncompressed, per-query timed benchmarks


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("query", QUERIES)
def test_fig19_plot4_hot_uncompressed(benchmark, uncompressed_env, query,
                                      mode):
    db, sources = uncompressed_env
    src = sources[mode]
    run_query(query, src)  # warm the buffer pool and caches

    def run():
        src.scan_seconds = 0.0
        return run_query(query, src)

    benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["query"] = query
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["scan_seconds"] = src.scan_seconds


# ---------------------------------------------------------------------------
# Report-style plots (one-shot measurements over all queries)


def _collect(db, sources, cold: bool):
    """Per (query, mode): seconds, scan seconds, and I/O bytes."""
    rows = []
    for query in QUERIES:
        for mode in MODES:
            src = sources[mode]
            if cold:
                db.make_cold()
            else:
                run_query(query, src)  # warm
            src.scan_seconds = 0.0
            before = db.io.snapshot()
            seconds = time_once(lambda: run_query(query, src))
            io = db.io.since(before)
            io_seconds = io.bytes_read / READ_BANDWIDTH
            rows.append(
                {
                    "query": query,
                    "mode": mode,
                    "cpu_s": seconds,
                    "scan_s": src.scan_seconds,
                    "io_bytes": io.bytes_read,
                    "total_s": seconds + (io_seconds if cold else 0.0),
                }
            )
    return rows


def _normalized_report(rows, metric, title, name):
    report = Report(title, ["query", "none", "vdt", "pdt", "vdt_abs"])
    by_query = {}
    for row in rows:
        by_query.setdefault(row["query"], {})[row["mode"]] = row[metric]
    for query in QUERIES:
        values = by_query[query]
        base = values["vdt"] or 1e-12
        report.add(
            f"Q{query:02d}",
            round(values["none"] / base, 3),
            1.0,
            round(values["pdt"] / base, 3),
            values["vdt"],
        )
    report.print()
    report.save(name)
    return report


@pytest.mark.parametrize("storage", ["compressed", "uncompressed"])
def test_fig19_cold_and_io_report(benchmark, request, storage):
    """Plots 1+2 (compressed) and 3+5 (uncompressed): cold times and I/O
    volumes for all 22 queries, normalized to the VDT run as in the paper.
    """
    env = request.getfixturevalue(f"{storage}_env")
    db, sources = env

    rows = benchmark.pedantic(
        lambda: _collect(db, sources, cold=True),
        rounds=1, iterations=1,
    )
    plot_time = "1" if storage == "compressed" else "3"
    plot_io = "2" if storage == "compressed" else "5"
    _normalized_report(
        rows, "total_s",
        f"Fig 19 Plot {plot_time}: cold {storage} times "
        f"(normalized to VDT; vdt_abs in s)",
        f"fig19_plot{plot_time}_cold_{storage}",
    )
    _normalized_report(
        rows, "io_bytes",
        f"Fig 19 Plot {plot_io}: {storage} I/O volume "
        f"(normalized to VDT; vdt_abs in bytes)",
        f"fig19_plot{plot_io}_io_{storage}",
    )
    # Sanity: control queries (2, 11, 16) identical I/O across modes.
    by_query = {}
    for row in rows:
        by_query.setdefault(row["query"], {})[row["mode"]] = row["io_bytes"]
    for query in (2, 11, 16):
        assert len(set(by_query[query].values())) == 1


def test_fig19_plot4_report(benchmark, uncompressed_env):
    """Plot 4: hot uncompressed CPU times with the scan/processing split."""
    db, sources = uncompressed_env
    rows = benchmark.pedantic(
        lambda: _collect(db, sources, cold=False),
        rounds=1, iterations=1,
    )
    report = Report(
        "Fig 19 Plot 4: hot uncompressed times, scan fraction "
        "(normalized to VDT)",
        ["query", "none", "vdt", "pdt", "pdt_scan_frac", "vdt_scan_frac"],
    )
    by_query = {}
    for row in rows:
        by_query.setdefault(row["query"], {})[row["mode"]] = row
    for query in QUERIES:
        modes = by_query[query]
        base = modes["vdt"]["cpu_s"] or 1e-12
        report.add(
            f"Q{query:02d}",
            round(modes["none"]["cpu_s"] / base, 3),
            1.0,
            round(modes["pdt"]["cpu_s"] / base, 3),
            round(modes["pdt"]["scan_s"] / max(modes["pdt"]["cpu_s"], 1e-12),
                  3),
            round(modes["vdt"]["scan_s"] / max(modes["vdt"]["cpu_s"], 1e-12),
                  3),
        )
    report.print()
    report.save("fig19_plot4_hot_uncompressed")
