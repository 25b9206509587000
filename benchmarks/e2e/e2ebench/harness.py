"""Closed-loop measurement plumbing: timed ops with a deadline and an
oracle, sample stores, percentiles, temp dirs and host floor probes.

The system under test is an embedded library, so the load is a closed
loop: a client issues its next op only when the previous one returned.
"""

from __future__ import annotations

import contextlib
import glob
import os
import shutil
import signal
import statistics
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

OP_DEADLINE_S = 60.0
CHECKOUT = Path(__file__).resolve().parents[3]
SCRATCH_PARENT = CHECKOUT / "benchmarks" / "results" / "e2e"
SHM_GLOB = "/dev/shm/psm_*"


class DeadlineExceeded(Exception):
    """An op ran past OP_DEADLINE_S; it is counted failed, not waited for."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"op exceeded {OP_DEADLINE_S:.0f}s")


def _on_terminate(signum, frame):
    # Leave through the finally blocks and exit handlers, which close the
    # database and stop its worker processes, rather than dying here.
    raise SystemExit(128 + signum)


def install_deadline_handler() -> None:
    """Once per process, from the main thread, before the first op."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_terminate)


@contextlib.contextmanager
def op_deadline():
    """Raise DeadlineExceeded in the main thread after OP_DEADLINE_S.
    Client threads other than the main one bound their waits with
    ``Future.result(timeout=OP_DEADLINE_S)`` instead."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class HostSpeed:
    """How fast this host is right now, as a time series.

    A sandbox shares its cores: the same code runs 20-80 % slower for
    minutes at a time when a neighbour is busy, which is more than any
    regression worth gating. So between ops (every INTERVAL_S at most) the
    main thread times a small fixed kernel — numpy copies, masks and
    object arrays, and a stretch of plain interpreter work, the two kinds
    of work the program does — and every timing is divided by the host's
    slowdown at that moment: kernel time then / NOMINAL_S. Timings are
    thereby stated at the speed of the reference host when it is
    undisturbed. The kernel is the benchmark's own code; no change to the
    program can move it.
    """

    NOMINAL_S = 0.00410
    INTERVAL_S = 0.2
    SMOOTH = 5  # rolling-median window over kernel timings

    def __init__(self):
        self._ints = np.arange(120_000, dtype=np.int64) % 1000
        self._objects = np.array(
            [f"w{i % 16:02d}" for i in range(12_000)], dtype=object)
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def _kernel(self) -> float:
        ints, half = self._ints, len(self._ints) // 2
        start = time.perf_counter()
        for _ in range(4):
            mask = (ints >= 100) & (ints < 400)
            ints[mask]
            np.concatenate([ints[:half], ints[half:]])
            self._objects[::-1].copy()
        # Interpreter work that allocates no container the cyclic GC
        # tracks: a collection pass costs as much as the process has
        # objects, which says nothing about the host.
        total = 0
        for i in range(40_000):
            total += i * i % 7
        "".join([str(i) for i in range(6_000)])
        return time.perf_counter() - start

    def tick(self, force: bool = False) -> None:
        """Time the kernel now, unless it was timed INTERVAL_S ago or
        less. Main thread only: another thread of this process running
        Python would lengthen the kernel through the interpreter lock."""
        now = time.perf_counter()
        if not force and self.at and now - self.at[-1] < self.INTERVAL_S:
            return
        took = self._kernel()
        self.at.append(now + took / 2)
        self.kernel_s.append(took)

    def slowdown(self, at) -> np.ndarray:
        """Host slowdown (1.0 = reference speed) at the times ``at``."""
        at = np.atleast_1d(np.asarray(at, dtype=np.float64))
        if not self.at:
            return np.ones_like(at)
        kernel = np.asarray(self.kernel_s)
        pad = self.SMOOTH // 2
        padded = np.pad(kernel, pad, mode="edge")
        smooth = np.median(
            np.lib.stride_tricks.sliding_window_view(padded, self.SMOOTH),
            axis=1)
        return np.interp(at, self.at, smooth) / self.NOMINAL_S

    def median_slowdown(self) -> float:
        """Over every moment the kernel was timed."""
        return float(np.median(self.slowdown(self.at)))

    def mean_slowdown(self, start: float, end: float) -> float:
        return float(self.slowdown(np.linspace(start, end, 16)).mean())


class Recorder:
    """Samples and counts of one measured phase.

    ``op`` is the only way work gets timed: it counts the attempt, runs
    the call under the deadline, checks the result against the oracle
    outside the timed region, and keeps the latency only when the op
    succeeded — a failed op misses every latency, as a refused request
    would. A ``tracer`` (see probes.py) gets one root span per op.

    Samples are kept raw with the time they were taken; ``seconds`` and
    the statistics built on it divide by the host's slowdown at that time
    (see HostSpeed) unless asked for ``raw``.
    """

    def __init__(self, host: HostSpeed, tracer=None):
        self.host = host
        self.tracer = tracer
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.sums: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.last_elapsed = 0.0  # of the last successful op (one client)
        self._lock = threading.Lock()
        self._main = threading.main_thread()

    def add(self, kind: str, seconds: float, at: float | None = None) -> None:
        """Keep one sample of ``kind`` taken around time ``at`` (now)."""
        if at is None:
            at = time.perf_counter() - seconds / 2
        with self._lock:
            self.samples.setdefault(kind, []).append((at, seconds))

    def bump(self, name: str, amount: float) -> None:
        with self._lock:
            self.sums[name] = self.sums.get(name, 0.0) + amount

    def fail(self, kind: str, why: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{kind}: {why}")

    def op(self, kind: str, call, check=None):
        """Run ``call()`` as one op of type ``kind``; returns its result,
        or None when the op failed. ``check(result)`` is the oracle."""
        with self._lock:
            self.attempted += 1
        if threading.current_thread() is self._main:
            self.host.tick()
        root = self.tracer.begin_op(kind) if self.tracer else None
        try:
            with op_deadline():
                start = time.perf_counter()
                result = call()
                elapsed = time.perf_counter() - start
        except Exception as exc:  # the op failed; the run goes on
            self.fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if root is not None:
                self.tracer.end_op(root)
        if check is not None and not check(result):
            self.fail(kind, "oracle mismatch")
            return None
        self.add(kind, elapsed, start + elapsed / 2)
        self.last_elapsed = elapsed
        return result

    def seconds(self, kind: str, raw: bool = False) -> np.ndarray:
        pairs = self.samples.get(kind)
        if not pairs:
            raise ValueError(f"no {kind!r} samples")
        at, took = np.asarray(pairs, dtype=np.float64).T
        return took if raw else took / self.host.slowdown(at)

    def total(self, kind: str, raw: bool = False) -> float:
        return float(self.seconds(kind, raw).sum())

    def median(self, kind: str, raw: bool = False) -> float:
        return self.pct(kind, 50, raw)

    def pct(self, kind: str, q: float, raw: bool = False) -> float:
        return float(np.percentile(self.seconds(kind, raw), q))


def median(values) -> float:
    return float(statistics.median(values))


# -- temp dirs and shared-memory hygiene -----------------------------------

def make_tmp(prefix: str) -> str:
    """A scratch dir inside the checkout (the benchmark may write
    nowhere else); removed by ``remove_tmp``."""
    SCRATCH_PARENT.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix + "-", dir=SCRATCH_PARENT)


def remove_tmp(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def shm_segments() -> set:
    return set(glob.glob(SHM_GLOB))


def sweep_shm(before: set) -> int:
    """Unlink the segments created since ``before``; returns how many had
    survived the program's own shutdown (reported as exec.shm_leaked)."""
    leaked = shm_segments() - before
    for path in leaked:
        with contextlib.suppress(OSError):
            os.unlink(path)
    return len(leaked)


# -- child processes ---------------------------------------------------------

def child_pids() -> list[int]:
    """Processes whose parent is this one, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone between listdir and open
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _wait_pid(pid: int, timeout_s: float) -> bool:
    """Reap ``pid``; False when it is still running after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True  # somebody (multiprocessing) reaped it already
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def reap_children(grace_s: float = 3.0) -> int:
    """Stop every process this one started and wait until each has ended;
    returns how many there were. Called last on every path out of a run.

    The program's workers are joined by ``Database.close``; what that
    leaves is Python's ``multiprocessing.resource_tracker``, which
    ``shared_memory`` starts behind the program's back, which ignores
    SIGTERM, and which otherwise outlives this process by the time it
    takes to notice its pipe closed. Workers of a set-up that failed
    half-way end here too. Workers first: each holds the write end of the
    tracker's pipe, and the tracker runs until the last holder is gone.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    pids = child_pids()
    others = [pid for pid in pids if pid != tracker_pid]
    for pid in others:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    for pid in others:
        if not _wait_pid(pid, grace_s):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            _wait_pid(pid, grace_s)
    if tracker_pid in pids:
        fd = getattr(tracker, "_fd", None)
        if fd is not None:
            # Closing the pipe is how the tracker is told to finish.
            with contextlib.suppress(OSError):
                os.close(fd)
            tracker._fd = None
        if not _wait_pid(tracker_pid, grace_s):
            with contextlib.suppress(ProcessLookupError):
                os.kill(tracker_pid, signal.SIGKILL)
            _wait_pid(tracker_pid, grace_s)
        tracker._pid = None
    return len(pids)


# -- host floors -------------------------------------------------------------

def memcpy_ms(arrays: dict, repeats: int = 9) -> float:
    """Median time to ``np.copy`` every column once: the memory-bandwidth
    floor a full scan of those columns cannot beat."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for arr in arrays.values():
            np.copy(arr)
        times.append(time.perf_counter() - start)
    return median(times) * 1e3


def fsync_ms(directory: str, repeats: int = 25) -> float:
    """Median time of a 4 KiB append + fsync in ``directory``: the floor
    under a durable commit on this host's storage."""
    path = os.path.join(directory, "fsync.probe")
    block = b"\0" * 4096
    times = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            os.write(fd, block)
            os.fsync(fd)
            times.append(time.perf_counter() - start)
    finally:
        os.close(fd)
        os.unlink(path)
    return median(times) * 1e3
