"""Command-line Figure-19 runner.

Regenerates the paper's TPC-H comparison without pytest::

    python -m repro.tpch.runner --sf 0.01 --storage uncompressed \
        --temperature cold --queries 1,6,14

Prints, per query, the no-updates / VDT / PDT times and I/O volumes, plus
the normalized summary rows the paper's Figure 19 plots.
"""

from __future__ import annotations

import argparse
import sys
import time

from .loader import load_database
from .dbgen import generate
from .queries import ALL_QUERIES, run_query
from .sources import CleanSource, PdtSource, VdtSource
from .updates import RefreshApplier

READ_BANDWIDTH = 150e6  # paper workstation: 150 MB/s


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro.tpch.runner",
        description="TPC-H under an update load: no-updates vs VDT vs PDT",
    )
    parser.add_argument("--sf", type=float, default=0.01,
                        help="scale factor (default 0.01)")
    parser.add_argument("--storage", choices=["compressed", "uncompressed"],
                        default="uncompressed")
    parser.add_argument("--temperature", choices=["cold", "hot"],
                        default="cold")
    parser.add_argument("--queries", default="all",
                        help="comma-separated query numbers, or 'all'")
    parser.add_argument("--refresh-pairs", type=int, default=2,
                        help="number of RF1/RF2 pairs to apply")
    parser.add_argument("--seed", type=int, default=20100608)
    return parser.parse_args(argv)


def select_queries(spec: str) -> list[int]:
    if spec == "all":
        return sorted(ALL_QUERIES)
    numbers = []
    for token in spec.split(","):
        number = int(token)
        if number not in ALL_QUERIES:
            raise SystemExit(f"unknown TPC-H query {number}")
        numbers.append(number)
    return numbers


def main(argv=None) -> int:
    args = parse_args(argv)
    queries = select_queries(args.queries)

    print(f"generating TPC-H SF={args.sf} "
          f"({args.refresh_pairs} refresh pairs) ...", flush=True)
    data = generate(scale=args.sf, seed=args.seed,
                    refresh_pairs=args.refresh_pairs)
    db = load_database(data, compressed=args.storage == "compressed")
    applier = RefreshApplier(data)
    applier.apply_all_pdt(db)
    vdts = applier.make_vdts()
    applier.apply_all_vdt(vdts)
    sources = {
        "none": CleanSource(db),
        "vdt": VdtSource(db, vdts),
        "pdt": PdtSource(db),
    }
    print(f"  lineitem={data.row_count('lineitem'):,} rows, "
          f"orders={data.row_count('orders'):,} rows, "
          f"storage={args.storage}, temperature={args.temperature}\n")

    header = (
        f"{'query':>6} {'mode':>5} {'time_ms':>9} {'scan_ms':>9} "
        f"{'io_MiB':>8} {'vs_vdt':>7}"
    )
    print(header)
    print("-" * len(header))
    for number in queries:
        per_mode = {}
        for mode, src in sources.items():
            if args.temperature == "cold":
                db.make_cold()
            else:
                run_query(number, src)  # warm
            src.scan_seconds = 0.0
            before = db.io.snapshot()
            start = time.perf_counter()
            run_query(number, src)
            elapsed = time.perf_counter() - start
            io = db.io.since(before)
            if args.temperature == "cold":
                elapsed += io.bytes_read / READ_BANDWIDTH
            per_mode[mode] = (elapsed, src.scan_seconds, io.bytes_read)
        base = per_mode["vdt"][0] or 1e-12
        for mode in ("none", "vdt", "pdt"):
            elapsed, scan_s, io_bytes = per_mode[mode]
            print(
                f"Q{number:>5} {mode:>5} {elapsed * 1e3:9.2f} "
                f"{scan_s * 1e3:9.2f} {io_bytes / (1 << 20):8.2f} "
                f"{elapsed / base:7.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
