"""Group commit — sustained multi-writer durable commit throughput.

Concurrent writers submit single-op batches through the query service
and wait for each acknowledgement; throughput is acknowledged commits
per second. Every file-backed WAL commits through group commit: commits
stage their records, one leader fsyncs the whole group, and
acknowledgement waits happen outside the write lock so follower CPU
overlaps the leader's fsync.

The 1-writer row *is* the per-commit-fsync discipline — a lone committer
leads a group of one and pays one fsync per commit — so it is the
reference each series is measured against: ``speedup_x`` is
``group_cps(N) / group_cps(1)`` for the same backend and device floor.

The table is deliberately tiny and the batches single-op: this bench
isolates the *commit path* (txn machinery + WAL durability), not query
or merge work.

Group commit amortizes fsync latency, so its win scales with the
device's sync cost. The ``fsync_floor`` column reports the emulated
device latency in milliseconds, applied to every writer count alike by
wrapping ``os.fsync`` with a post-sync sleep (the sleep releases the
GIL, exactly like a real device wait):

* ``fsync_floor = 0`` — the host's raw fsync (CI/dev machines often sit
  on fast local ext4 where fsync costs ~0.1 ms, *below* the Python
  commit CPU — the regime where group commit can't help much and the
  bench documents that honestly).
* ``fsync_floor = 1`` — a 1 ms durable write, conservative for cloud
  block storage and commodity SSDs with real write barriers (the regime
  the mmap backend targets). The ≥3x acceptance gate runs here.

The memory backend has no WAL file at all; its rows pin the no-durable
cost of the shared submission harness.

Run: ``pytest benchmarks/bench_group_commit.py -q -s``
"""

from __future__ import annotations

import contextlib
import os
import threading
import time

import pytest

from repro import Database, DataType, Schema
from repro.bench import Report, scaled

WRITERS_SERIES = [1, 4, 8]
N_COMMITS = scaled(200, minimum=60)          # per writer, raw-fsync series
N_COMMITS_FLOORED = scaled(100, minimum=30)  # per writer, emulated device

SCHEMA = Schema.build(
    ("k", DataType.INT64), ("v", DataType.INT64), sort_key=("k",),
)

_report = Report(
    "Group commit: N concurrent writers, single-op acknowledged batches "
    "via the query service — commits/s, speedup over 1 writer "
    "(fsync_floor = emulated device sync latency, ms)",
    ["writers", "backend", "fsync_floor", "group_cps", "speedup_x"],
)


@pytest.fixture(scope="module", autouse=True)
def report_at_end():
    yield
    if _report.rows:
        _report.print()
        _report.save("group_commit")


@contextlib.contextmanager
def fsync_floor(floor_ms: float):
    """Emulate a durable device: every fsync costs at least ``floor_ms``.

    The sleep happens *after* the real fsync and releases the GIL — the
    same overlap opportunity a real device wait gives.
    """
    if floor_ms <= 0:
        yield
        return
    real_fsync = os.fsync

    def floored(fd):
        real_fsync(fd)
        time.sleep(floor_ms / 1e3)

    os.fsync = floored
    try:
        yield
    finally:
        os.fsync = real_fsync


def make_db(backend: str, root, rows: int) -> Database:
    kwargs = {"compressed": False}
    if backend == "mmap":
        kwargs.update(storage="mmap", storage_path=root)
    db = Database(**kwargs)
    db.create_table("t", SCHEMA, [(i, 0) for i in range(rows)])
    return db


def run_writers(db: Database, writers: int, n: int) -> tuple[float, dict]:
    """``writers`` threads each submit ``n`` acknowledged single-op
    commits on disjoint keys; returns (commits/s, final expected image).
    """
    expected = {}
    errors: list = []
    with db.serve(workers=writers) as svc:
        def writer(w: int) -> None:
            try:
                for i in range(n):
                    key = w * n + i
                    svc.submit_batch(
                        "t", [("mod", (key,), "v", i + 1)]).result(timeout=120)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        for w in range(writers):
            for i in range(n):
                expected[w * n + i] = i + 1
        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(writers)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
    assert not errors, errors
    return writers * n / elapsed, expected


def check_image(db: Database, expected: dict) -> None:
    got = {k: v for k, v in zip(db.query("t")["k"].tolist(),
                                db.query("t")["v"].tolist())
           if k in expected}
    assert got == expected, "concurrent commits corrupted the image"


def measure(backend, root, writers, floor_ms, n) -> float:
    with fsync_floor(floor_ms):
        db = make_db(backend, root, rows=writers * n)
        cps, expected = run_writers(db, writers, n)
        check_image(db, expected)
        db.close()
    return cps


def series(tmp_path, backend, floor_ms, n) -> None:
    """Reports commits/s per writer count, each with its speedup over the
    1-writer (group of one) row of the same series."""
    cps = {w: measure(backend, tmp_path / f"w{w}", w, floor_ms, n)
           for w in WRITERS_SERIES}
    for w, value in cps.items():
        _report.add(w, backend, floor_ms, value, value / cps[1])


@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_throughput_series(tmp_path, backend):
    """Raw-hardware series (fsync_floor = 0), memory vs mmap."""
    series(tmp_path, backend, 0.0, N_COMMITS)


def test_durable_device_series(tmp_path):
    """Emulated 1 ms durable device on the mmap backend."""
    series(tmp_path, "mmap", 1.0, N_COMMITS_FLOORED)


def test_acceptance_group_speedup(tmp_path):
    """Gate: ≥3x acknowledged commits/s at 8 concurrent writers on the
    mmap backend vs 1 writer (one fsync per commit), at the 1 ms emulated
    device floor (the fsync-bound regime group commit exists for); the
    raw-fsync run on the same hardware must show real coalescing."""
    one = measure("mmap", tmp_path / "w1", 1, 1.0, N_COMMITS_FLOORED)
    eight = measure("mmap", tmp_path / "w8", 8, 1.0, N_COMMITS_FLOORED)
    ratio = eight / one
    print(f"\nacceptance (1 ms device): 1 writer {one:.0f} c/s, "
          f"8 writers {eight:.0f} c/s, speedup {ratio:.2f}x")
    assert ratio >= 3.0

    raw_db = make_db("mmap", tmp_path / "raw", rows=8 * 40)
    raw_cps, expected = run_writers(raw_db, 8, 40)
    stats = raw_db.manager.wal.group.stats
    check_image(raw_db, expected)
    raw_db.close()
    print(f"raw fsync: group {raw_cps:.0f} c/s, "
          f"{stats.coalesced}/{stats.staged} records coalesced, "
          f"max group {stats.max_group}")
    assert stats.coalesced > 0, "8 writers must actually form groups"
