"""Command line of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py                      all four workloads
    python3 benchmarks/e2e/run.py --trace              ... plus traced runs
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --check-repeat       same seed twice

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Without it every workload runs in a fresh
subprocess of this same command.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import subprocess
import sys
import time

from . import harness, metrics
from .probes import COUNTERS, Tracer

WORKLOADS = ("scan_dirty", "oltp_durable", "svc_process", "tpch_refresh")
SETUP_REPEATS = 3
TRACED_SHARE = 4  # the traced run replays a quarter of the rounds
# Op types whose coverage by layer spans bench.attributed_share reports.
FOCUS_OPS = {
    "scan_dirty": ("scan",),
    "oltp_durable": ("commit",),
    "svc_process": ("scan",),
    "tpch_refresh": ("scan",),
}


def load(name: str):
    return importlib.import_module(f"{__package__}.workloads.{name}")


# -- one workload, in this process -------------------------------------------

def _set_up(wl, inputs, tag: str, host):
    """Returns the state, its temp dir and the set-up time at reference
    host speed."""
    tmp = harness.make_tmp(f"{wl.NAME}-{tag}")
    try:
        host.tick(force=True)
        start = time.perf_counter()
        state = wl.setup(inputs, tmp)
        end = time.perf_counter()
        host.tick(force=True)
    except BaseException:
        harness.remove_tmp(tmp)
        raise
    return state, tmp, (end - start) / host.mean_slowdown(start, end)


def _tear_down(wl, state, tmp) -> None:
    try:
        wl.teardown(state)
    finally:
        harness.remove_tmp(tmp)
        gc.collect()


def _measure(wl, state, rec) -> tuple[dict, float]:
    """Run the measured phase; returns what ``finish`` reports and the
    phase's wall time at reference host speed."""
    start = time.perf_counter()
    wl.run(state, rec)
    end = time.perf_counter()
    rec.host.tick(force=True)
    wall = (end - start) / rec.host.mean_slowdown(start, end)
    return wl.finish(state, rec), wall


def run_plain(wl, seed: int, seconds: float) -> dict:
    """Tracing off: set up SETUP_REPEATS times (median is setup_s), run
    the measured phase on the last set-up, report end-to-end metrics."""
    inputs = wl.generate(seed, wl.rounds_for(seconds))
    host = harness.HostSpeed()
    setups = []
    state = tmp = None
    for n in range(SETUP_REPEATS):
        if state is not None:
            _tear_down(wl, state, tmp)
        state, tmp, took = _set_up(wl, inputs, f"s{n}", host)
        setups.append(took)
    rec = harness.Recorder(host)
    try:
        info, wall = _measure(wl, state, rec)
    finally:
        _tear_down(wl, state, tmp)
    values = metrics.end_to_end(rec, harness.median(setups))
    return _result(rec, info, values, metrics.END_TO_END,
                   {"measured_wall_s": wall, "setup_runs_s": setups})


def run_traced(wl, seed: int, seconds: float) -> dict:
    """The same op sequence twice over a quarter of the rounds: once
    plain (the baseline of bench.trace_overhead_x), once with the probes
    installed. Reports per-layer metrics and writes the trace file."""
    rounds = max(3, wl.rounds_for(seconds) // TRACED_SHARE)
    inputs = wl.generate(seed, rounds)
    host = harness.HostSpeed()
    state, tmp, _ = _set_up(wl, inputs, "plain", host)
    plain = harness.Recorder(host)
    try:
        _, plain_wall = _measure(wl, state, plain)
    finally:
        _tear_down(wl, state, tmp)

    shm_before = harness.shm_segments()
    tracer = Tracer()
    # Installed before set-up: objects built during set-up capture bound
    # methods (commit listeners), which must already be the probes.
    tracer.install()
    try:
        state, tmp, _ = _set_up(wl, inputs, "traced", host)
        tracer.reset()
        rec = harness.Recorder(host, tracer)
        before = (COUNTERS.put_bytes, COUNTERS.put_blocks,
                  COUNTERS.wal_bytes)
        try:
            info, traced_wall = _measure(wl, state, rec)
            info["fsync_ms"] = harness.fsync_ms(tmp)
        finally:
            _tear_down(wl, state, tmp)
    finally:
        tracer.uninstall()
    info["shm_leaked"] = harness.sweep_shm(shm_before)
    delta = dict(zip(("put_bytes", "put_blocks", "wal_bytes"), (
        COUNTERS.put_bytes - before[0], COUNTERS.put_blocks - before[1],
        COUNTERS.wal_bytes - before[2])))
    values = metrics.per_layer(tracer, rec, delta, info, plain, plain_wall,
                               traced_wall, FOCUS_OPS[wl.NAME])
    trace_path = harness.SCRATCH_PARENT / f"trace_{wl.NAME}.json"
    tracer.write(trace_path, {
        "workload": wl.NAME, "seed": seed, "rounds": rounds,
        "clock": "time.perf_counter seconds",
        "layer_metrics": values,
    })
    result = _result(rec, info, values, metrics.PER_LAYER, {
        "trace_file": str(trace_path.relative_to(harness.CHECKOUT)),
        "unresolved_targets": tracer.unresolved,
        "plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
    })
    # Coverage self-check: a layer metric this workload is meant to move
    # that saw no call measures nothing.
    calls = tracer.by_probe()
    silent = [p for p in wl.EXPECTED_PROBES if not calls.get(p, (0,))[0]]
    if tracer.unresolved or silent:
        result["correct"] = False
        result["notes"]["silent_probes"] = silent
    return result


def _result(rec, info: dict, values: dict, defs, notes: dict) -> dict:
    problems = list(info.get("problems", ()))
    return {
        "correct": rec.failed == 0 and not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            m.name: {"value": float(values[m.name]), "unit": m.unit}
            for m in defs
        },
        "samples": {k: len(v) for k, v in sorted(rec.samples.items())},
        "notes": dict(notes, problems=problems, errors=rec.errors,
                      host_slowdown_x=round(rec.host.median_slowdown(), 3)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    wl = load(name)
    harness.install_deadline_handler()
    COUNTERS.install()
    shm_before = harness.shm_segments()
    try:
        if trace:
            return run_traced(wl, seed, seconds)
        return run_plain(wl, seed, seconds)
    finally:
        harness.sweep_shm(shm_before)


# -- reporting -------------------------------------------------------------------

def print_report(name: str, result: dict, defs) -> None:
    samples = result["samples"]
    print(f"== {name}: attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for m in defs:
        value = result["metrics"][m.name]["value"]
        count = samples.get(m.samples) if m.samples else None
        tail = f"  (n={count})" if count is not None else ""
        bound = f"  bound {m.bound:.2f}" if m.bound is not None else ""
        print(f"  {m.name:<40} {value:>14.4f} {m.unit:<8}"
              f" {m.better:<6}{bound}{tail}")
    for key, value in result["notes"].items():
        if value:
            print(f"  note {key}: {value}")


def contract_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: result[k] for k in keys})


def check_contract() -> None:
    """BENCHMARK.json and metrics.py must describe the same benchmark."""
    with open(harness.CHECKOUT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    want = [{"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in metrics.END_TO_END]
    layers = [{"name": m.name, "unit": m.unit, "better": m.better}
              for m in metrics.PER_LAYER]
    if (spec["end_to_end"] != want or spec["per_layer"] != layers
            or [w["name"] for w in spec["workloads"]] != list(WORKLOADS)
            or spec["run_seconds"] != metrics.RUN_SECONDS):
        raise SystemExit("BENCHMARK.json disagrees with e2ebench/metrics.py")


# -- all workloads, one subprocess each --------------------------------------------

def _spawn(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, sys.argv[0], "--workload", name, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=os.getcwd())
    lines = proc.stdout.rstrip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{name}: run failed with code {proc.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: int) -> int:
    document = {}
    ok = True
    for name in WORKLOADS:
        document[name] = {"end_to_end": _spawn(name, seed, seconds, 0)}
        if trace:
            document[name]["per_layer"] = _spawn(name, seed, seconds, 1)
        ok = ok and all(r["correct"] for r in document[name].values())
    print(json.dumps(document))
    return 0 if ok else 1


def check_repeat(seed: int, seconds: float) -> int:
    """Every workload twice with one seed: each end-to-end metric's
    relative difference beside its bound; non-zero exit on a breach."""
    breaches = 0
    for name in WORKLOADS:
        first = _spawn(name, seed, seconds, 0)
        second = _spawn(name, seed, seconds, 0)
        print(f"== {name}: repeat check, seed {seed}")
        for m in metrics.END_TO_END:
            a = first["metrics"][m.name]["value"]
            b = second["metrics"][m.name]["value"]
            diff = abs(a - b) / min(abs(a), abs(b))
            breach = diff > m.bound
            breaches += breach
            print(f"  {m.name:<24} {a:>12.4f} {b:>12.4f} {m.unit:<8} "
                  f"diff {diff:6.3f}  bound {m.bound:.2f}"
                  f"{'  BREACH' if breach else ''}")
        if not (first["correct"] and second["correct"]):
            breaches += 1
    return 1 if breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.RUN_SECONDS))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    check_contract()
    if args.check_repeat:
        return check_repeat(args.seed, args.seconds)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds,
                          args.trace)
    print_report(args.workload, result,
                 metrics.PER_LAYER if args.trace else metrics.END_TO_END)
    print(contract_line(result))
    return 0 if result["correct"] else 1
