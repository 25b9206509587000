"""Multiprocess shard execution: worker processes + shared-memory blocks.

The GIL caps every thread-based "parallel" path in the system at one
core. This package escapes it: per-shard scan jobs are dispatched to
:class:`ShardWorker` *processes* that mmap the same segment files the
parent published (read-only), rebuild the pinned snapshot state from a
serialized pin vector, run the one shard-scan pipeline inline reads use
(``repro.engine.scan.shard_scan_stream``: the merge's own blocks, cut
only where one runs to twice the image's ``block_rows``), and ship
result blocks back through a ``multiprocessing.shared_memory`` ring
buffer — the parent wraps each frame in zero-copy numpy views, so only
small control frames are ever pickled. The :class:`ExecutorRouter` fronts the pool: it decides per job
whether process dispatch is safe (mmap-attached stable image whose
published ``image_lsn`` matches the pinned one), falls back to the
thread path otherwise, and survives worker crashes by re-dispatching
in-flight jobs with a deterministic skip-prefix.

See ``DESIGN.md`` ("Parallel execution") for the worker lifecycle, the
block frame protocol, and the crash re-dispatch contract.
"""

from .router import ExecutorRouter, ScanSource, WorkerCrashed, StaleImage
from .transport import ShmRingReader, ShmRingWriter

__all__ = [
    "ExecutorRouter",
    "ScanSource",
    "ShmRingReader",
    "ShmRingWriter",
    "StaleImage",
    "WorkerCrashed",
]
