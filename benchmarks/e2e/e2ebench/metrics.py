"""The benchmark's metrics: names, units, directions, bounds, and how each
is computed from a run's samples (end to end) or from the probes of a
traced run (per layer). ``BENCHMARK.json`` repeats the names, units,
directions and bounds; ``cli.check_contract`` fails a run when the two
disagree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

RUN_SECONDS = 15


def rounds_at(full: int, seconds: float, least: int) -> int:
    """``full`` rounds fill RUN_SECONDS; scale to ``seconds``."""
    return max(least, round(full * seconds / RUN_SECONDS))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only
    samples: str | None = None  # op type whose sample count is printed


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("scan_mrows_per_s", "Mrows/s", "higher", 0.25, "scan"),
    Metric("scan_p50_ms", "ms", "lower", 0.25, "scan"),
    Metric("scan_p95_ms", "ms", "lower", 0.25, "scan"),
    Metric("mergescan_overhead_x", "x", "lower", 0.25, "scan_clean"),
    Metric("agg_p50_ms", "ms", "lower", 0.25, "agg"),
    Metric("range_p50_ms", "ms", "lower", 0.25, "range"),
    Metric("point_p50_ms", "ms", "lower", 0.25, "point"),
    Metric("first_block_p50_ms", "ms", "lower", 0.25, "first_block"),
    Metric("commit_p50_ms", "ms", "lower", 0.25, "commit"),
    Metric("commits_per_s", "1/s", "higher", 0.25, "commit"),
    Metric("batch_kops_per_s", "kops/s", "higher", 0.25, "batch"),
    Metric("checkpoint_s", "s", "lower", 0.25, "checkpoint"),
    Metric("reopen_s", "s", "lower", 0.25, "reopen"),
    Metric("write_amp_x", "x", "lower", 0.10),
)


def end_to_end(rec, setup_s: float) -> dict:
    """Every end-to-end metric of one untraced run."""
    s = rec.sums
    return {
        "setup_s": setup_s,
        "scan_mrows_per_s": s["scan_rows"] / rec.total("scan") / 1e6,
        "scan_p50_ms": rec.pct("scan", 50) * 1e3,
        "scan_p95_ms": rec.pct("scan", 95) * 1e3,
        "mergescan_overhead_x":
            rec.median("scan") / rec.median("scan_clean"),
        "agg_p50_ms": rec.median("agg") * 1e3,
        "range_p50_ms": rec.median("range") * 1e3,
        "point_p50_ms": rec.median("point") * 1e3,
        "first_block_p50_ms": rec.median("first_block") * 1e3,
        "commit_p50_ms": rec.median("commit") * 1e3,
        "commits_per_s": s["commits"] / rec.total("commit_wall"),
        "batch_kops_per_s": s["batch_ops"] / rec.total("batch") / 1e3,
        "checkpoint_s": rec.median("checkpoint"),
        "reopen_s": rec.median("reopen"),
        "write_amp_x": s["written_bytes"] / s["user_bytes"],
    }


PER_LAYER = (
    # db
    Metric("db.facade_self_s", "s", "lower"),
    Metric("db.point_resolve_s", "s", "lower"),
    Metric("db.batch_prepare_s", "s", "lower"),
    Metric("db.batch_commit_staged_s", "s", "lower"),
    # core
    Metric("core.merge_s", "s", "lower"),
    Metric("core.merge_rows", "count", "lower"),
    Metric("core.merge_ns_per_row", "ns", "lower"),
    Metric("core.merge_zero_copy_share", "share", "higher"),
    Metric("core.scan_floor_x", "x", "lower"),
    Metric("core.pdt_entries", "count", "lower"),
    Metric("core.propagate_s", "s", "lower"),
    Metric("core.serialize_s", "s", "lower"),
    # engine
    Metric("engine.relation_build_s", "s", "lower"),
    Metric("engine.expr_eval_s", "s", "lower"),
    Metric("engine.rows_scanned_per_row_returned", "x", "lower"),
    # storage
    Metric("storage.pool_read_s", "s", "lower"),
    Metric("storage.pool_get_calls", "count", "lower"),
    Metric("storage.pool_hit_rate", "share", "higher"),
    Metric("storage.bytes_read", "bytes", "lower"),
    Metric("storage.sparse_lookup_s", "s", "lower"),
    Metric("storage.put_bytes", "bytes", "lower"),
    Metric("storage.put_blocks", "count", "lower"),
    Metric("storage.sync_count", "count", "lower"),
    Metric("storage.space_amp_x", "x", "lower"),
    # txn
    Metric("txn.commit_p99_ms", "ms", "lower"),
    Metric("txn.commit_self_s", "s", "lower"),
    Metric("txn.wal_append_s", "s", "lower"),
    Metric("txn.wal_bytes", "bytes", "lower"),
    Metric("txn.wal_records", "count", "lower"),
    Metric("txn.fsync_s", "s", "lower"),
    Metric("txn.fsync_count", "count", "lower"),
    Metric("txn.durability_wait_s", "s", "lower"),
    Metric("txn.group_size_mean", "count", "higher"),
    Metric("txn.pin_s", "s", "lower"),
    Metric("txn.checkpoint_s_total", "s", "lower"),
    Metric("txn.checkpoint_count", "count", "lower"),
    Metric("txn.checkpoint_bytes_rewritten", "bytes", "lower"),
    Metric("txn.checkpoint_krows_per_s", "krows/s", "higher"),
    Metric("txn.run_pending_s", "s", "lower"),
    Metric("txn.stall_max_ms", "ms", "lower"),
    Metric("txn.propagate_folds", "count", "lower"),
    Metric("txn.recovery_replay_s", "s", "lower"),
    Metric("txn.recovery_records", "count", "lower"),
    # shard
    Metric("shard.route_s", "s", "lower"),
    Metric("shard.fanout_wait_s", "s", "lower"),
    Metric("shard.pruned_share", "share", "higher"),
    Metric("shard.rebalance_s", "s", "lower"),
    Metric("shard.rebalance_count", "count", "lower"),
    # service
    Metric("service.admission_wait_s", "s", "lower"),
    Metric("service.plan_s", "s", "lower"),
    Metric("service.job_queue_wait_s", "s", "lower"),
    Metric("service.job_run_s", "s", "lower"),
    Metric("service.cursor_merge_s", "s", "lower"),
    Metric("service.jobs_shared_share", "share", "higher"),
    Metric("service.overhead_x", "x", "lower"),
    # exec
    Metric("exec.remote_job_share", "share", "higher"),
    Metric("exec.stream_blocks_s", "s", "lower"),
    Metric("exec.decode_s", "s", "lower"),
    Metric("exec.inline_block_share", "share", "lower"),
    Metric("exec.redispatches", "count", "lower"),
    Metric("exec.stale_fallbacks", "count", "lower"),
    Metric("exec.expr_fallbacks", "count", "lower"),
    Metric("exec.shm_leaked", "count", "lower"),
    # host / bench
    Metric("host.nproc", "count", "higher"),
    Metric("host.memcpy_ms", "ms", "lower"),
    Metric("host.fsync_ms", "ms", "lower"),
    Metric("bench.host_slowdown_x", "x", "lower"),
    Metric("bench.trace_overhead_x", "x", "lower"),
    Metric("bench.attributed_share", "share", "higher"),
)

# Layer metric -> the probes (see probes.TARGETS) whose self times it sums.
SELF_TIME = {
    "db.facade_self_s": ("db.facade",),
    "db.point_resolve_s": ("db.point_resolve",),
    "db.batch_prepare_s": ("db.batch_prepare",),
    "db.batch_commit_staged_s": ("db.batch_commit_staged",),
    "core.merge_s": ("core.merge",),
    "core.propagate_s": ("core.propagate",),
    "core.serialize_s": ("core.serialize",),
    "engine.relation_build_s": ("engine.relation_build",),
    "engine.expr_eval_s": ("engine.expr_eval",),
    "storage.pool_read_s": ("storage.pool_get", "storage.block_read"),
    "storage.sparse_lookup_s": ("storage.sparse_lookup",),
    "txn.commit_self_s": ("txn.commit",),
    "txn.wal_append_s": ("txn.wal_append",),
    "txn.fsync_s": ("txn.fsync",),
    "txn.durability_wait_s": ("txn.durability_wait",),
    "txn.pin_s": ("txn.pin",),
    "shard.route_s": ("shard.route",),
    "shard.fanout_wait_s": ("shard.fanout_wait",),
    "service.admission_wait_s": ("service.admission_wait",),
    "service.plan_s": ("service.plan",),
    "service.job_run_s": ("service.job_run",),
    "service.cursor_merge_s": ("service.cursor_merge",),
    "exec.stream_blocks_s": ("exec.stream_blocks",),
    "exec.decode_s": ("exec.decode",),
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer, rec, counters_delta: dict, info: dict, plain_rec,
              plain_wall: float, traced_wall: float, focus_ops) -> dict:
    """Every per-layer metric of one traced run.

    ``rec`` holds the traced phase's samples, ``counters_delta`` what
    probes.COUNTERS moved during it, ``info`` what the workload's ``finish`` reported, ``plain_*``
    the untraced pass over the same op sequence (walls already divided
    by the host's slowdown while they ran), ``focus_ops`` the op
    types whose coverage ``bench.attributed_share`` reports.
    """
    probes = tracer.by_probe()
    counts = tracer.counters()

    def calls(name):
        return probes.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names):
        return sum(probes.get(n, (0, 0.0, 0.0))[1] for n in names)

    def inclusive(name):
        return probes.get(name, (0, 0.0, 0.0))[2]

    out = {name: self_s(*names) for name, names in SELF_TIME.items()}
    merge_rows = counts.get("core.merge_rows", 0)
    out["core.merge_rows"] = merge_rows
    out["core.merge_ns_per_row"] = \
        _share(out["core.merge_s"] * 1e9, merge_rows)
    out["core.merge_zero_copy_share"] = _share(
        counts.get("core.merge_arrays_shared", 0),
        counts.get("core.merge_arrays", 0))
    scan_p50_ms = plain_rec.median("scan", raw=True) * 1e3
    out["core.scan_floor_x"] = _share(scan_p50_ms, info["memcpy_ms"])
    out["core.pdt_entries"] = info["pdt_entries"]
    out["engine.rows_scanned_per_row_returned"] = _share(
        counts.get("engine.rows_scanned", 0),
        rec.sums.get("agg_rows", 0))
    gets = calls("storage.pool_get")
    out["storage.pool_get_calls"] = gets
    out["storage.pool_hit_rate"] = \
        1.0 - _share(calls("storage.block_read"), gets) if gets else 0.0
    out["storage.bytes_read"] = counts.get("storage.bytes_read", 0)
    out["storage.put_bytes"] = counters_delta["put_bytes"]
    out["storage.put_blocks"] = counters_delta["put_blocks"]
    out["storage.sync_count"] = calls("storage.sync")
    out["storage.space_amp_x"] = _share(
        info["disk_bytes"], info["live_user_bytes"])
    out["txn.commit_p99_ms"] = rec.pct("commit", 99, raw=True) * 1e3
    out["txn.wal_bytes"] = counters_delta["wal_bytes"]
    out["txn.wal_records"] = calls("txn.wal_append")
    # Group flushes that fsynced, and commit records per such flush.
    out["txn.fsync_count"] = calls("txn.fsync")
    out["txn.group_size_mean"] = _share(calls("txn.wal_append"),
                                        calls("txn.fsync"))
    out["txn.checkpoint_s_total"] = inclusive("txn.checkpoint")
    out["txn.checkpoint_count"] = calls("txn.checkpoint")
    out["txn.checkpoint_bytes_rewritten"] = \
        counts.get("txn.checkpoint_bytes", 0)
    out["txn.checkpoint_krows_per_s"] = _share(
        counts.get("txn.checkpoint_rows", 0) / 1e3,
        out["txn.checkpoint_s_total"])
    out["txn.run_pending_s"] = inclusive("txn.scheduler")
    out["txn.stall_max_ms"] = tracer.stall_max_s * 1e3
    out["txn.propagate_folds"] = calls("txn.propagate_fold")
    out["txn.recovery_replay_s"] = inclusive("txn.recovery")
    out["txn.recovery_records"] = counts.get("txn.recovery_records", 0)
    out["shard.pruned_share"] = 1.0 - _share(
        counts.get("shard.visited", 0), counts.get("shard.considered", 0)
    ) if counts.get("shard.considered") else 0.0
    out["shard.rebalance_s"] = inclusive("shard.rebalance")
    out["shard.rebalance_count"] = counts.get("shard.rebalance_actions", 0)
    out["service.job_queue_wait_s"] = \
        counts.get("service.job_queue_wait_s", 0.0)
    svc = info.get("service_stats") or {}
    out["service.jobs_shared_share"] = _share(
        svc.get("jobs_shared", 0),
        svc.get("jobs_shared", 0) + svc.get("jobs_scheduled", 0))
    out["service.overhead_x"] = _share(
        scan_p50_ms, info.get("inline_scan_p50_ms", 0.0)) \
        if info.get("inline_scan_p50_ms") else 0.0
    router = info.get("router_stats") or {}
    out["exec.remote_job_share"] = _share(
        router.get("remote_jobs", 0),
        router.get("remote_jobs", 0) + router.get("local_jobs", 0))
    out["exec.inline_block_share"] = _share(
        counts.get("exec.frames_inline", 0), counts.get("exec.frames", 0))
    for name in ("redispatches", "stale_fallbacks", "expr_fallbacks"):
        out["exec." + name] = router.get(name, 0)
    out["exec.shm_leaked"] = info.get("shm_leaked", 0)
    out["host.nproc"] = os.cpu_count() or 1
    out["host.memcpy_ms"] = info["memcpy_ms"]
    out["host.fsync_ms"] = info["fsync_ms"]
    out["bench.host_slowdown_x"] = rec.host.median_slowdown()
    out["bench.trace_overhead_x"] = _share(traced_wall, plain_wall)
    wall = sum(tracer.op_stats.get(k, (0, 0.0, 0.0))[1] for k in focus_ops)
    covered = sum(tracer.op_stats.get(k, (0, 0.0, 0.0))[2]
                  for k in focus_ops)
    out["bench.attributed_share"] = _share(covered, wall)
    return out


def tree_bytes(root: str) -> int:
    """Bytes of the files under ``root`` (a durable database's disk use)."""
    total = 0
    for base, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total
