"""One-row commit latency with and without a live snapshot pin.

A 200k-row in-memory table gets a Write stack of 1k, 4k or 16k entries;
then 200 one-row ``modify`` commits run, each either taking a fresh pin
first (as a stream of readers would, held until the end) or taking none.
Prints the p50 per commit in microseconds, ``snapshot_copies`` and the
deepest Write stack seen. Timings are not gated anywhere.

    PYTHONPATH=src python scripts/commit_under_pin.py [--rows N] [--commits N]
"""

import argparse
import statistics
import time

from repro import Database, DataType, Schema

SCHEMA = Schema.build(("k", DataType.INT64), ("a", DataType.INT64),
                      sort_key=("k",))


def run(rows: int, entries: int, commits: int, pinned: bool) -> tuple:
    db = Database()
    db.create_table("t", SCHEMA, [(k, k) for k in range(rows)])
    step = rows // entries
    db.apply_batch("t", [("mod", (k * step,), "a", -k)
                         for k in range(entries)])
    state = db.manager.state_of("t")
    pins, times, deepest = [], [], 1
    for i in range(commits):
        if pinned:
            pins.append(db.pin_snapshot())
        key = (i * 7919) % rows
        t0 = time.perf_counter()
        db.modify("t", (key,), "a", i)
        times.append(time.perf_counter() - t0)
        deepest = max(deepest, len(state.write_pdt.layers))
    for pin in pins:
        pin.release()
    copies = db.manager.stats.snapshot_copies
    db.close()
    return statistics.median(times) * 1e6, copies, deepest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", type=int, default=200_000)
    parser.add_argument("--commits", type=int, default=200)
    args = parser.parse_args()
    print("| Write entries | pin | p50 µs | snapshot_copies | deepest stack |")
    print("|---|---|---|---|---|")
    for entries in (1_000, 4_000, 16_000):
        for pinned in (False, True):
            p50, copies, deepest = run(args.rows, entries, args.commits,
                                       pinned)
            print(f"| {entries:,} | {'live' if pinned else 'none'} | "
                  f"{p50:.0f} | {copies} | {deepest} |")


if __name__ == "__main__":
    main()
