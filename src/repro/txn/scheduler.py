"""Cost-based checkpoint scheduling: autonomous PDT maintenance.

The paper keeps differential structures cheap by assuming *something*
periodically folds them back into stable storage; the seed left that
"something" as a manual ``Database.checkpoint()`` call. This module makes
it a subsystem: a :class:`CheckpointPolicy` inspects a table's measured
update load after every commit (and between queries) and decides whether
to do nothing, Propagate the Write-PDT down, rewrite the whole stable
image, or — SynchroStore-style — incrementally fold only the *hottest
block ranges* so maintenance interleaves with the workload instead of
stalling it.

Policies are pure decision functions over a :class:`TableLoad` snapshot,
so they are unit-testable without a database; the
:class:`CheckpointScheduler` owns execution: it consults the policy,
runs decisions at quiescent points, and defers them while transactions
are running (deferred work is retried on later commits and by
``Database.query`` between queries).

Select a policy with ``Database(checkpoint_policy=...)``; specs:

===================  ====================================================
``None``             never maintain automatically (seed behaviour)
``"updates:<N>"``    full checkpoint when total PDT entries exceed ``N``;
                     Propagate when the Write-PDT exceeds ``N // 4``
``"hot-ranges:<K>"`` fold the K hottest block ranges once any block
                     accumulates ``HotRangePolicy.min_entries`` entries
===================  ====================================================

or any :class:`CheckpointPolicy` instance.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field, fields

from .checkpoint import checkpoint_table, checkpoint_table_range
from .manager import TransactionManager


class MaintenanceAction(enum.Enum):
    """What a policy asks the scheduler to do for one table."""

    NONE = "none"
    PROPAGATE = "propagate"           # Write-PDT -> Read-PDT migration
    CHECKPOINT = "checkpoint"         # full stable-image rewrite
    CHECKPOINT_RANGES = "checkpoint-ranges"  # incremental hot-range fold


@dataclass(frozen=True)
class Decision:
    """A policy's verdict, with the triggering condition for diagnostics."""

    action: MaintenanceAction
    ranges: tuple[tuple[int, int], ...] = ()
    reason: str = ""

    @property
    def is_none(self) -> bool:
        return self.action is MaintenanceAction.NONE


DO_NOTHING = Decision(MaintenanceAction.NONE)


@dataclass(frozen=True)
class TableLoad:
    """Measured update load of one table, the input to every policy.

    ``block_histogram`` is either a dict mapping a stable block index to
    the number of PDT entries addressing SIDs inside that block, or a
    zero-arg callable producing that dict. Policies read it through
    :meth:`histogram`, which resolves and caches the callable form — so
    the O(PDT-entries) bucketing is only ever paid by policies that
    actually look at per-block heat (Read-PDT SIDs bucket exactly;
    Write-PDT SIDs are positions in the Read-PDT's output domain, close
    enough for a heat heuristic — see DESIGN.md).
    """

    table: str
    stable_rows: int
    block_rows: int
    read_entries: int
    write_entries: int
    delta_bytes: int
    commits_since_maintenance: int
    block_histogram: object = field(default_factory=dict, hash=False)

    @property
    def total_entries(self) -> int:
        return self.read_entries + self.write_entries

    def histogram(self) -> dict[int, int]:
        """Per-block entry counts, computing (once) if provided lazily."""
        hist = self.block_histogram
        if callable(hist):
            hist = hist()
            object.__setattr__(self, "block_histogram", hist)
        return hist


class CheckpointPolicy:
    """Base class: maps a :class:`TableLoad` to a :class:`Decision`."""

    name = "abstract"

    def decide(self, load: TableLoad) -> Decision:
        raise NotImplementedError


class NeverPolicy(CheckpointPolicy):
    """No automatic maintenance (the explicit-checkpoint-only mode)."""

    name = "never"

    def decide(self, load: TableLoad) -> Decision:
        return DO_NOTHING


class UpdateCountPolicy(CheckpointPolicy):
    """Full checkpoint when total PDT entries exceed ``max_entries``;
    Propagate when the Write-PDT alone exceeds ``max_write_entries``."""

    name = "updates"

    def __init__(self, max_entries: int, max_write_entries: int | None = None):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.max_write_entries = (
            max_write_entries if max_write_entries is not None
            else max(max_entries // 4, 1)
        )

    def decide(self, load: TableLoad) -> Decision:
        if load.total_entries > self.max_entries:
            return Decision(
                MaintenanceAction.CHECKPOINT,
                reason=f"{load.total_entries} entries > {self.max_entries}",
            )
        if load.write_entries > self.max_write_entries:
            return Decision(
                MaintenanceAction.PROPAGATE,
                reason=f"write-PDT {load.write_entries} entries "
                       f"> {self.max_write_entries}",
            )
        return DO_NOTHING


class HotRangePolicy(CheckpointPolicy):
    """Incremental maintenance: fold the K hottest block ranges.

    SynchroStore's observation is that update skew makes a full rewrite
    wasteful — most blocks are clean. Once any block accumulates
    ``min_entries`` PDT entries, this policy selects the ``k`` blocks with
    the most entries, coalesces adjacent ones, and asks for an incremental
    :func:`~repro.txn.checkpoint.checkpoint_table_range` of just those
    SID ranges. Everything else — including the buffer-pool residency of
    clean blocks — is left alone.
    """

    name = "hot-ranges"

    def __init__(self, k: int = 4, min_entries: int = 128):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.min_entries = min_entries

    def decide(self, load: TableLoad) -> Decision:
        if not load.total_entries:
            return DO_NOTHING
        hist = load.histogram()
        if not hist:
            return DO_NOTHING
        hottest = sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))
        if hottest[0][1] < self.min_entries:
            return DO_NOTHING
        chosen = sorted(
            block for block, count in hottest[: self.k]
            if count >= self.min_entries
        )
        ranges: list[tuple[int, int]] = []
        br = load.block_rows
        for block in chosen:
            lo, hi = block * br, (block + 1) * br
            if ranges and ranges[-1][1] == lo:  # coalesce adjacent blocks
                ranges[-1] = (ranges[-1][0], hi)
            else:
                ranges.append((lo, hi))
        return Decision(
            MaintenanceAction.CHECKPOINT_RANGES,
            ranges=tuple(ranges),
            reason=f"{len(chosen)} hot block(s), "
                   f"hottest has {hottest[0][1]} entries",
        )


def policy_from_spec(spec) -> CheckpointPolicy:
    """Resolve ``Database(checkpoint_policy=...)`` values to a policy.

    Accepts ``None``, a :class:`CheckpointPolicy` instance, or a
    ``"name:arg"`` string (see the module docstring for the table).
    """
    if spec is None:
        return NeverPolicy()
    if isinstance(spec, CheckpointPolicy):
        return spec
    if not isinstance(spec, str):
        raise ValueError(f"bad checkpoint policy spec: {spec!r}")
    name, _, arg = spec.partition(":")
    if name == "updates":
        return UpdateCountPolicy(int(arg))
    if name == "hot-ranges":
        return HotRangePolicy(k=int(arg) if arg else 4)
    raise ValueError(
        f"unknown checkpoint policy {spec!r}: expected None, "
        f'"updates:<entries>" or "hot-ranges:<k>"'
    )


@dataclass
class SchedulerStats:
    consults: int = 0
    propagations: int = 0
    checkpoints: int = 0
    range_checkpoints: int = 0
    entries_folded: int = 0
    deferrals: int = 0
    # Pin-driven deferral visibility: a stuck client holding a pin stalls
    # maintenance silently otherwise (see ``max_pin_age_s``).
    pin_deferrals: int = 0
    overdue_pin_warnings: int = 0
    oldest_pin_age_s: float = 0.0  # oldest pin age seen at a deferral

    def as_dict(self) -> dict:
        """JSON-able view; the surface ``Database.metrics()`` reads.
        Prefer this over poking the counter fields directly."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class CheckpointScheduler:
    """Executes checkpoint-policy decisions at quiescent points.

    ``on_commit`` is registered as a commit listener on the
    :class:`~repro.txn.manager.TransactionManager`, so every successful
    commit re-evaluates the policy for the tables it touched. Decisions
    that cannot run because transactions are still active are remembered
    and retried — by later commits and by ``run_pending`` (which
    ``Database.query`` calls between queries, giving the SynchroStore-like
    interleaving of maintenance with the workload).
    """

    def __init__(self, manager: TransactionManager, policy: CheckpointPolicy,
                 max_pin_age_s: float | None = None):
        self.manager = manager
        self.policy = policy
        self.max_pin_age_s = max_pin_age_s
        self.stats = SchedulerStats()
        self._commits_since: dict[str, int] = {}
        self._pending: dict[str, Decision] = {}

    # -- entry points ------------------------------------------------------

    def on_commit(self, tables) -> None:
        """Commit listener: re-evaluate the policy for touched tables."""
        for table in tables:
            self._commits_since[table] = \
                self._commits_since.get(table, 0) + 1
        for table in tables:
            self._consult(table)
        # A commit is also an opportunity to drain work deferred earlier.
        for table in [t for t in self._pending if t not in tables]:
            self._try_execute(table, self._pending[table])

    def run_pending(self, table: str | None = None) -> bool:
        """Retry deferred maintenance (between queries). Returns True when
        something ran."""
        ran = False
        targets = [table] if table is not None else list(self._pending)
        for name in targets:
            decision = self._pending.get(name)
            if decision is not None and self._try_execute(name, decision):
                ran = True
        return ran

    def pending(self) -> dict[str, Decision]:
        """Deferred decisions by table (diagnostics)."""
        return dict(self._pending)

    def forget(self, table: str) -> None:
        """Drop any deferred work for a table that no longer exists (a
        rebalance retired the shard; its deltas moved with the split)."""
        self._pending.pop(table, None)
        self._commits_since.pop(table, None)

    # -- measurement -------------------------------------------------------

    def load_of(self, table: str) -> TableLoad:
        """Snapshot a table's update load for the policy.

        This runs after every commit, so everything read eagerly is O(1):
        entry counts and byte sizes are counters the PDTs keep current
        (``PDT.count`` / ``PDT.memory_usage``), not tree walks. Bucketing
        every entry is O(PDT size) and only heat-aware policies need it,
        so the per-block histogram is handed over as a lazy callable.
        """
        state = self.manager.state_of(table)
        block_rows = (
            state.stable.pool.store.block_rows
            if state.stable.pool is not None
            else 4096
        )

        def histogram() -> dict[int, int]:
            hist: dict[int, int] = {}
            for pdt in (state.read_pdt, state.write_pdt):
                sids, _, _ = pdt.entry_lists()
                for sid in sids:
                    block = sid // block_rows
                    hist[block] = hist.get(block, 0) + 1
            return hist

        return TableLoad(
            table=table,
            stable_rows=state.stable.num_rows,
            block_rows=block_rows,
            read_entries=state.read_pdt.count(),
            write_entries=state.write_pdt.count(),
            delta_bytes=state.read_pdt.memory_usage()
            + state.write_pdt.memory_usage(),
            commits_since_maintenance=self._commits_since.get(table, 0),
            block_histogram=histogram,  # resolved lazily via .histogram()
        )

    # -- internals ---------------------------------------------------------

    def _consult(self, table: str) -> None:
        self.stats.consults += 1
        decision = self.policy.decide(self.load_of(table))
        if decision.is_none:
            return
        self._try_execute(table, decision)

    def _try_execute(self, table: str, decision: Decision) -> bool:
        if self.manager.running_count() or self.manager.is_pinned(table):
            # Running transactions hold snapshots; snapshot pins hold the
            # current stable image and Read-PDT. Either way a fold now
            # would rewrite state a live reader depends on — defer until
            # the next quiescent, pin-free point.
            self.stats.deferrals += 1
            if self.manager.is_pinned(table):
                self.stats.pin_deferrals += 1
                age = self.manager.oldest_pin_age(table)
                self.stats.oldest_pin_age_s = max(
                    self.stats.oldest_pin_age_s, age)
                if self.max_pin_age_s is not None \
                        and age > self.max_pin_age_s:
                    self.stats.overdue_pin_warnings += 1
                    logging.getLogger(__name__).warning(
                        "maintenance on %r deferred by a pin held for "
                        "%.1fs (max_pin_age_s=%.1fs); a stuck client may "
                        "be stalling checkpoints",
                        table, age, self.max_pin_age_s,
                    )
            self._pending[table] = decision
            return False
        self._pending.pop(table, None)
        action = decision.action
        if action is MaintenanceAction.PROPAGATE:
            self.manager.propagate_write_to_read(table)
            self.stats.propagations += 1
        elif action is MaintenanceAction.CHECKPOINT:
            checkpoint_table(self.manager, table)
            self.stats.checkpoints += 1
        elif action is MaintenanceAction.CHECKPOINT_RANGES:
            # Fold high ranges first so lower ranges' SIDs stay valid.
            for lo, hi in sorted(decision.ranges, reverse=True):
                self.stats.entries_folded += checkpoint_table_range(
                    self.manager, table, lo, hi
                )
                self.stats.range_checkpoints += 1
        self._commits_since[table] = 0
        return True
