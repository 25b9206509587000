#!/usr/bin/env python
"""Benchmark regression gate: fresh ablation speedups vs checked-in
baselines.

Scans the baseline directory for result JSONs that carry a ``speedup_x``
column (the ablation acceptance series), matches each row of the freshly
measured results to its baseline row by the configuration key columns
(everything before the measurement columns — per-run timings like
``*_ms`` and incidental counters are not part of the key), and fails when
any measured speedup regressed by more than ``--threshold`` (default 30%)
relative to its baseline.

Speedup *ratios* are compared rather than absolute times because ratios
are far more stable across runner hardware; the checked-in baselines are
generated at the same ``REPRO_SCALE`` CI runs the benches with.

Usage (what CI does)::

    cp -r benchmarks/results /tmp/bench-baseline
    ... run the ablation benches (they overwrite benchmarks/results) ...
    python scripts/check_bench_regression.py \
        --baseline /tmp/bench-baseline --results benchmarks/results
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

MEASUREMENT_COLUMNS = {"speedup_x"}


def _is_measurement(col: str) -> bool:
    # *_ms = per-run timings, *_cps = per-run throughput rates; neither
    # is part of a row's configuration key.
    return (col in MEASUREMENT_COLUMNS or col.endswith("_ms")
            or col.endswith("_cps"))


def _keyed_speedups(payload: dict) -> dict[tuple, float]:
    columns = payload["columns"]
    if "speedup_x" not in columns:
        return {}
    key_idx = [i for i, c in enumerate(columns) if not _is_measurement(c)]
    spd_idx = columns.index("speedup_x")
    out = {}
    for row in payload["rows"]:
        key = tuple(row[i] for i in key_idx)
        out[key] = float(row[spd_idx])
    return out


def check(baseline_dir: Path, results_dir: Path,
          threshold: float) -> list[str]:
    failures: list[str] = []
    checked = 0
    for base_path in sorted(baseline_dir.glob("*.json")):
        base = json.loads(base_path.read_text())
        base_speedups = _keyed_speedups(base)
        if not base_speedups:
            continue
        fresh_path = results_dir / base_path.name
        if not fresh_path.exists():
            failures.append(f"{base_path.name}: no fresh results "
                            f"(bench did not run?)")
            continue
        fresh_payload = json.loads(fresh_path.read_text())
        fresh_speedups = _keyed_speedups(fresh_payload)
        for key, base_spd in sorted(base_speedups.items()):
            fresh_spd = fresh_speedups.get(key)
            if fresh_spd is None:
                failures.append(
                    f"{base_path.name} {key}: missing from fresh results"
                )
                continue
            checked += 1
            floor = base_spd * (1.0 - threshold)
            status = "ok" if fresh_spd >= floor else "REGRESSED"
            print(f"{status:>9}  {base_path.name} {key}: "
                  f"{fresh_spd:.2f}x vs baseline {base_spd:.2f}x "
                  f"(floor {floor:.2f}x)")
            if fresh_spd < floor:
                failures.append(
                    f"{base_path.name} {key}: {fresh_spd:.2f}x < "
                    f"{floor:.2f}x ({threshold:.0%} below baseline "
                    f"{base_spd:.2f}x)"
                )
    print(f"\nchecked {checked} speedup series")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True,
                        help="directory with the checked-in result JSONs")
    parser.add_argument("--results", type=Path, required=True,
                        help="directory with the freshly measured JSONs")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="max allowed relative regression (default 0.30)")
    args = parser.parse_args(argv)

    failures = check(args.baseline, args.results, args.threshold)
    if failures:
        print("\nregression gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
