"""Unified observability: metrics registry, trace spans, profiling.

:class:`Observability` is the per-database bundle ``Database`` creates
and hands to every layer (service, executor router, transaction
manager, WAL group commit). It owns:

* ``registry`` — the :class:`~repro.obs.registry.MetricsRegistry` all
  counters/gauges/histograms and the six legacy stats surfaces
  register into; snapshotted by ``Database.metrics()``.
* ``tracer`` / ``sink`` — span creation and the bounded ring of
  finished spans (``None`` sink ⇒ tracing disabled, near-zero cost).
* ``slow_log`` — the slow-query ring fed by cursor finish.
* the core always-on histograms: end-to-end query latency and the
  commit path broken into its stages (serialize, propagate,
  wal-append, durability-wait) — the ~0.15 ms/commit Python overhead
  the ROADMAP wants profiled, now measured on every commit.

Overhead budget: with tracing off, instrumentation is a handful of
``perf_counter`` calls and histogram observes per query/commit; with
tracing on, a few span allocations per query and one per commit. Both
are gated ≤5 % by ``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import contextlib
import time

from .profile import QueryProfile, ShardScanProfile, SlowQueryLog
from .registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_text,
)
from .trace import Span, TraceSink, Tracer, worker_span_dict

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "prometheus_text",
    "Span",
    "TraceSink",
    "Tracer",
    "worker_span_dict",
    "QueryProfile",
    "ShardScanProfile",
    "SlowQueryLog",
    "Observability",
]

#: Spans ``trace=True`` keeps in its ring buffer.
TRACE_CAPACITY = 4096

#: Commit-stage histogram names, in pipeline order.
COMMIT_STAGES = ("serialize", "propagate", "wal_append", "durability_wait")


class Observability:
    """One database's metrics registry, tracer, and profiling hooks."""

    def __init__(self, trace=None, slow_query_ms: float | None = None):
        self.registry = MetricsRegistry()
        if trace is None or trace is False:
            self.sink = None
        elif isinstance(trace, TraceSink):
            self.sink = trace
        elif trace is True:
            self.sink = TraceSink(TRACE_CAPACITY)
        elif isinstance(trace, int):
            self.sink = TraceSink(trace)
        else:
            raise TypeError(
                f"trace= expects True, a capacity, or a TraceSink, "
                f"not {trace!r}")
        self.tracer = Tracer(self.sink)
        self.slow_log = SlowQueryLog(slow_query_ms)
        # Always-on core histograms.
        self.query_seconds = self.registry.histogram(
            "query_seconds", help="end-to-end query latency")
        self.query_first_block_seconds = self.registry.histogram(
            "query_first_block_seconds",
            help="submit to first streamed block")
        self.commit_seconds = self.registry.histogram(
            "commit_seconds", help="end-to-end commit latency")
        self.commit_stage_seconds = {
            stage: self.registry.histogram(
                f"commit_{stage}_seconds",
                help=f"commit stage: {stage}")
            for stage in COMMIT_STAGES
        }
        self.group_flush_seconds = self.registry.histogram(
            "group_flush_seconds",
            help="one group-commit flush (append + fsync), leader-side")

    def observe_query(self, profile: QueryProfile) -> None:
        """Cursor-finish hook: latency histograms + slow-query check."""
        if profile.total_s is not None:
            self.query_seconds.observe(profile.total_s)
        if profile.time_to_first_block_s is not None:
            self.query_first_block_seconds.observe(
                profile.time_to_first_block_s)
        if self.sink is not None and profile.trace_id is not None:
            profile.fill_from_spans(self.sink.spans(profile.trace_id))
        self.slow_log.check(profile, sink=self.sink)

    def observe_simple_query(self, table: str, seconds: float,
                             rows: int = 0, trace_id=None) -> None:
        """Inline (non-cursor) query paths: record latency and run the
        slow-query check with a minimal profile."""
        self.query_seconds.observe(seconds)
        if self.slow_log.enabled:
            profile = QueryProfile(table=table, total_s=seconds,
                                   rows=rows, trace_id=trace_id)
            if self.sink is not None and trace_id is not None:
                profile.fill_from_spans(self.sink.spans(trace_id))
            self.slow_log.check(profile, sink=self.sink)

    @contextlib.contextmanager
    def query_scope(self, table: str):
        """Instrument one inline query: a root ``query`` span (when
        tracing) plus the end-to-end latency observation. Yields a
        mutable info dict (set ``info["rows"]``)."""
        info = {"rows": 0}
        t0 = time.perf_counter()
        trace_id = None
        try:
            if self.tracer.enabled:
                with self.tracer.start("query", table=table) as span:
                    trace_id = span.trace_id
                    yield info
                    span.attrs["rows"] = info["rows"]
            else:
                yield info
        finally:
            self.observe_simple_query(
                table, time.perf_counter() - t0,
                rows=info["rows"], trace_id=trace_id)

    def time(self) -> float:
        return time.perf_counter()
