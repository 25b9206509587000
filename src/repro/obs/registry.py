"""A lock-cheap metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` lives on every :class:`~repro.db.database.
Database` (``db.obs.registry``). Instruments are created idempotently by
name (``registry.counter("x")`` twice returns the same object), each
instrument carries its own small lock (no global registry lock on the
hot path), and a snapshot is a plain JSON-able dict that can be merged
with another snapshot — the property that lets per-shard or per-process
counters roll up into one database-wide view.

The five stats dataclasses (``IOStats``, ``ServiceStats``,
``SchedulerStats``, ``GroupCommitStats``, ``ManagerStats``) and the
executor router's counters are not rebuilt; they register as *sources* —
zero-argument callables returning their ``as_dict()`` — so a snapshot reads
them live without double-maintaining counters. Reading stats through
``Database.metrics()`` (registry + sources) is the supported surface;
poking the dataclass fields directly is deprecated.

``prometheus_text`` renders any snapshot in the Prometheus text
exposition format (``scripts/export_metrics.py`` is the CLI wrapper).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left

#: Default latency buckets (seconds): 100us .. 10s, roughly log-spaced.
DEFAULT_LATENCY_BUCKETS_S = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """Point-in-time value: set explicitly or computed by a callback."""

    __slots__ = ("name", "help", "_value", "_fn", "_lock")

    def __init__(self, name: str, fn=None, help: str = ""):
        self.name = name
        self.help = help
        self._fn = fn
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` (inclusive upper
    bound) semantics plus an implicit +Inf overflow bucket.

    ``observe`` is two integer adds and a float add behind one lock —
    cheap enough for the commit path. ``quantile`` answers an estimate:
    the upper bound of the first bucket whose cumulative count covers
    the requested rank (the overflow bucket reports the largest finite
    bound, making p99 on a saturated histogram pessimistic-but-finite).
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS_S,
                 help: str = ""):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for b, a in zip(bounds[1:], bounds)):
            raise ValueError("buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float | None:
        """Bucket-resolution quantile estimate; None when empty."""
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return None
        rank = q * total
        seen = 0
        for idx, n in enumerate(counts):
            seen += n
            if seen >= rank and n:
                if idx < len(self.buckets):
                    return self.buckets[idx]
                return self.buckets[-1]  # overflow: largest finite bound
        return self.buckets[-1]

    def as_dict(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            total, acc = self._count, self._sum
        return {
            "buckets": list(self.buckets),
            "counts": counts,
            "count": total,
            "sum": acc,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self._count})"


class MetricsRegistry:
    """Named instruments + live sources, snapshotted as one dict."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sources: dict[str, object] = {}

    def _get_or_make(self, table: dict, name: str, make):
        with self._lock:
            inst = table.get(name)
            if inst is None:
                for other in (self._counters, self._gauges,
                              self._histograms):
                    if other is not table and name in other:
                        raise ValueError(
                            f"metric {name!r} already registered with a "
                            f"different type")
                inst = table[name] = make()
            return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_make(self._counters, name,
                                 lambda: Counter(name, help))

    def gauge(self, name: str, fn=None, help: str = "") -> Gauge:
        return self._get_or_make(self._gauges, name,
                                 lambda: Gauge(name, fn, help))

    def histogram(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS_S,
                  help: str = "") -> Histogram:
        return self._get_or_make(self._histograms, name,
                                 lambda: Histogram(name, buckets, help))

    def register_source(self, name: str, fn) -> None:
        """Attach a live stats source: a zero-arg callable returning a
        JSON-able dict (typically a stats object's ``as_dict``)."""
        with self._lock:
            self._sources[name] = fn

    def snapshot(self) -> dict:
        """One coherent JSON-able view of every instrument and source."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            sources = dict(self._sources)
        out = {
            "counters": {n: c.value for n, c in counters.items()},
            "gauges": {n: g.value for n, g in gauges.items()},
            "histograms": {n: h.as_dict() for n, h in histograms.items()},
            "sources": {},
        }
        for name, fn in sources.items():
            try:
                out["sources"][name] = fn()
            except Exception as exc:  # a dead source must not kill scrape
                out["sources"][name] = {"error": repr(exc)}
        return out

    @staticmethod
    def merge_snapshots(a: dict, b: dict) -> dict:
        """Sum two snapshots (counters, histogram counts, numeric source
        fields); gauges take ``b``'s value. Histograms merge only when
        their bucket bounds agree."""
        out = {
            "counters": dict(a.get("counters", {})),
            "gauges": dict(a.get("gauges", {})),
            "histograms": {k: dict(v)
                           for k, v in a.get("histograms", {}).items()},
            "sources": {k: dict(v) if isinstance(v, dict) else v
                        for k, v in a.get("sources", {}).items()},
        }
        for name, val in b.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + val
        out["gauges"].update(b.get("gauges", {}))
        for name, hist in b.get("histograms", {}).items():
            mine = out["histograms"].get(name)
            if mine is None:
                out["histograms"][name] = dict(hist)
                continue
            if list(mine["buckets"]) != list(hist["buckets"]):
                raise ValueError(
                    f"histogram {name!r}: bucket bounds differ")
            merged = dict(mine)
            merged["counts"] = [x + y for x, y in
                                zip(mine["counts"], hist["counts"])]
            merged["count"] = mine["count"] + hist["count"]
            merged["sum"] = mine["sum"] + hist["sum"]
            merged["p50"] = merged["p99"] = None  # recompute from counts
            out["histograms"][name] = merged
        for name, src in b.get("sources", {}).items():
            mine = out["sources"].get(name)
            if not isinstance(mine, dict) or not isinstance(src, dict):
                out["sources"][name] = src
                continue
            merged = dict(mine)
            for key, val in src.items():
                if isinstance(val, (int, float)) and \
                        isinstance(merged.get(key), (int, float)):
                    merged[key] = merged[key] + val
                else:
                    merged[key] = val
            out["sources"][name] = merged
        return out


_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(*parts: str) -> str:
    return _NAME_RE.sub("_", "_".join(p for p in parts if p))


def _walk_scalars(prefix: str, value, out: list) -> None:
    if isinstance(value, dict):
        for key, val in value.items():
            _walk_scalars(_prom_name(prefix, str(key)), val, out)
    elif isinstance(value, bool):
        out.append((prefix, int(value)))
    elif isinstance(value, (int, float)) and value is not None:
        out.append((prefix, value))


def prometheus_text(snapshot: dict, namespace: str = "repro") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus text
    exposition format."""
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _prom_name(namespace, name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _prom_name(namespace, name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        metric = _prom_name(namespace, name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
        cumulative += hist["counts"][len(hist["buckets"])]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {hist['sum']}")
        lines.append(f"{metric}_count {hist['count']}")
    for source, stats in sorted(snapshot.get("sources", {}).items()):
        scalars: list = []
        _walk_scalars(_prom_name(namespace, source), stats, scalars)
        for metric, value in scalars:
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {value}")
    return "\n".join(lines) + "\n"
