"""Checkpoint scheduling: autonomous PDT maintenance.

The paper keeps differential structures cheap by assuming *something*
periodically Propagates the Write-PDT down and folds the deltas back into
a new stable image (section 3.3). Here that something is the
:class:`CheckpointScheduler`: after every commit it decides, from PDT
counts, whether the touched tables need maintenance, and runs it on
tables no snapshot pin holds. A running transaction is a pin, so pins are
the only thing it asks about. Work that cannot run because a pin is live
is deferred exactly as decided and retried by later commits and by
``Database.query`` between queries.

Select the rule with ``Database(checkpoint_policy=...)``:

===================  ====================================================
``None``             never maintain automatically (the scheduler is not
                     even consulted)
``"updates:<N>"``    full checkpoint when Read + Write PDT entries exceed
                     ``N``; otherwise Propagate when the Write-PDT holds
                     more than ``max(N // 4, 1)`` entries
``"hot-ranges:<K>"`` once a stable block is addressed by at least
                     ``HOT_RANGE_MIN_ENTRIES`` PDT entries, fold the K
                     hottest such blocks (adjacent ones coalesced) — an
                     incremental, SynchroStore-style fold; a bare
                     ``"hot-ranges"`` means K = 4
===================  ====================================================

Anything else raises ``ValueError`` naming these three specs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .checkpoint import checkpoint_table, checkpoint_table_range
from .manager import TransactionManager

#: Entries a stable block must hold before ``"hot-ranges"`` folds it.
HOT_RANGE_MIN_ENTRIES = 128

_SPECS = 'None, "updates:<entries>" or "hot-ranges:<k>"'


@dataclass
class SchedulerStats:
    consults: int = 0
    propagations: int = 0
    checkpoints: int = 0
    range_checkpoints: int = 0
    entries_folded: int = 0
    # Every deferral is a pin's (a running transaction's too): a stuck
    # client holding one stalls maintenance silently otherwise; alert on
    # ``oldest_pin_age_s``.
    deferrals: int = 0
    oldest_pin_age_s: float = 0.0  # oldest pin age seen at a deferral

    def as_dict(self) -> dict:
        """JSON-able view; the surface ``Database.metrics()`` reads.
        Prefer this over poking the counter fields directly."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _parse(spec) -> tuple[str, int] | None:
    """``(rule, argument)`` for a ``checkpoint_policy`` spec."""
    if spec is None:
        return None
    if isinstance(spec, str):
        name, _, arg = spec.partition(":")
        arg = arg or ("4" if name == "hot-ranges" else "")
        if name in ("updates", "hot-ranges") and arg.isdecimal() \
                and int(arg) > 0:
            return name, int(arg)
    raise ValueError(f"bad checkpoint policy {spec!r}: expected {_SPECS}")


class CheckpointScheduler:
    """Decides and executes PDT maintenance on unpinned tables.

    ``Database`` registers :meth:`on_commit` as a commit listener on the
    :class:`~repro.txn.manager.TransactionManager` (unless the spec is
    ``None``), so every commit re-decides for the tables it touched. A
    decision is an ``(action, ranges)`` pair; one that cannot run yet is
    kept as it is and retried by later commits and by
    :meth:`run_pending`, which ``Database.query`` calls between queries.
    """

    def __init__(self, manager: TransactionManager, spec):
        self.manager = manager
        self.stats = SchedulerStats()
        self._rule = _parse(spec)
        self._pending: dict[str, tuple[str, tuple]] = {}

    # -- entry points ------------------------------------------------------

    def on_commit(self, tables) -> None:
        """Commit listener: decide for the touched tables, then retry the
        work deferred on the others."""
        for table in tables:
            self.stats.consults += 1
            decision = self._decide(table)
            if decision is not None:
                self._try_execute(table, decision)
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

    def pending(self) -> dict[str, tuple[str, tuple]]:
        """Deferred ``(action, ranges)`` decisions by table
        (diagnostics)."""
        return dict(self._pending)

    def forget(self, table: str) -> None:
        """Drop any deferred work for a table that no longer exists (a
        rebalance retired the shard; its deltas moved with the split)."""
        self._pending.pop(table, None)

    # -- internals ---------------------------------------------------------

    def _decide(self, table: str) -> tuple[str, tuple] | None:
        """The one maintenance decision: ``None`` or ``(action, ranges)``
        with action ``"checkpoint"``, ``"propagate"`` or ``"ranges"``.

        ``updates:<n>`` reads the PDTs' O(1) entry counters. Only
        ``hot-ranges:<k>`` walks the entries, bucketing each SID into its
        stable block (a Write layer's SIDs are positions in the output
        domain of the layers below, close enough for a heat heuristic).
        """
        rule, arg = self._rule
        state = self.manager.state_of(table)
        write = state.write_pdt.count()
        total = state.read_pdt.count() + write
        if rule == "updates":
            if total > arg:
                return ("checkpoint", ())
            if write > max(arg // 4, 1):
                return ("propagate", ())
            return None
        if not total:
            return None
        block_rows = state.stable.pool.store.block_rows
        hist: dict[int, int] = {}
        for pdt in (state.read_pdt, *state.write_pdt.layers):
            for sid in pdt.entry_lists()[0]:
                block = sid // block_rows
                hist[block] = hist.get(block, 0) + 1
        hottest = sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))
        if not hottest or hottest[0][1] < HOT_RANGE_MIN_ENTRIES:
            return None
        ranges: list[tuple[int, int]] = []
        for block in sorted(b for b, count in hottest[:arg]
                            if count >= HOT_RANGE_MIN_ENTRIES):
            lo, hi = block * block_rows, (block + 1) * block_rows
            if ranges and ranges[-1][1] == lo:  # coalesce adjacent blocks
                ranges[-1] = (ranges[-1][0], hi)
            else:
                ranges.append((lo, hi))
        return ("ranges", tuple(ranges))

    def _try_execute(self, table: str, decision: tuple[str, tuple]) -> bool:
        manager = self.manager
        if manager.is_pinned(table):
            # A pin (a reader's or a running transaction's) holds the
            # current stable image and Read-PDT: defer until it drains.
            self.stats.deferrals += 1
            self.stats.oldest_pin_age_s = max(
                self.stats.oldest_pin_age_s, manager.oldest_pin_age(table))
            self._pending[table] = decision
            return False
        self._pending.pop(table, None)
        action, ranges = decision
        if action == "propagate":
            manager.propagate_write_to_read(table)
            self.stats.propagations += 1
        elif action == "checkpoint":
            checkpoint_table(manager, table)
            self.stats.checkpoints += 1
        else:
            # Fold high ranges first so lower ranges' SIDs stay valid.
            for lo, hi in sorted(ranges, reverse=True):
                self.stats.entries_folded += checkpoint_table_range(
                    manager, table, lo, hi)
                self.stats.range_checkpoints += 1
        return True
