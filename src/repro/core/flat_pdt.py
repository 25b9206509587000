"""FlatPDT: a reference positional-delta structure on a flat sorted list.

Identical update-chain semantics to the tree PDT (:mod:`repro.core.pdt`)
with O(n) operations and obviously-correct linear scans. It exists for two
reasons: (1) it is the differential-testing oracle the tree is validated
against, and (2) Merge/Propagate/Serialize are written against the shared
interface, so they can be exercised on both implementations.
"""

from __future__ import annotations

from ..storage.schema import Schema
from .types import (
    Entry,
    KIND_DEL,
    KIND_INS,
    PDTError,
    delta_of,
    is_modify,
)
from .value_space import ValueSpace


class FlatPDT:
    """Positional delta structure on a flat ``(sid, kind, ref)`` list."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.values = ValueSpace(schema)
        self._entries: list[list] = []  # [sid, kind, ref], (SID, RID)-ordered

    # -- interface shared with the tree PDT ---------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def count(self) -> int:
        return len(self._entries)

    def is_empty(self) -> bool:
        return not self._entries

    def total_delta(self) -> int:
        return sum(delta_of(kind) for _, kind, _ in self._entries)

    def iter_entries(self):
        """Yield :class:`Entry` records in (SID, RID) order."""
        delta = 0
        for sid, kind, ref in self._entries:
            yield Entry(sid, sid + delta, kind, ref)
            delta += delta_of(kind)

    def entry_lists(self, start_sid: int = 0, stop_sid: int | None = None):
        """Parallel ``(sids, kinds, refs)`` lists of entries with SID in
        ``[start_sid, stop_sid)`` (bulk interface shared with the tree
        PDT)."""
        sids: list[int] = []
        kinds: list[int] = []
        refs: list[int] = []
        for sid, kind, ref in self._entries:
            if sid < start_sid:
                continue
            if stop_sid is not None and sid >= stop_sid:
                break
            sids.append(sid)
            kinds.append(kind)
            refs.append(ref)
        return sids, kinds, refs

    def delta_before_sid(self, sid: int) -> int:
        """Net insert/delete delta of all entries with SID strictly below
        ``sid`` — the RID shift at the start of a SID-range scan."""
        delta = 0
        for entry_sid, kind, _ in self._entries:
            if entry_sid >= sid:
                break
            delta += delta_of(kind)
        return delta

    def bulk_append_entries(self, triples) -> None:
        """Build this empty structure from a SID-ordered ``(sid, kind,
        payload)`` run (bulk interface shared with the tree PDT)."""
        if self._entries:
            raise PDTError("bulk append onto a non-empty PDT")
        last = None
        for sid, kind, payload in triples:
            if last is not None and sid < last:
                raise PDTError(f"bulk append out of order: sid {sid} < {last}")
            last = sid
            if kind == KIND_INS:
                ref = self.values.add_insert(payload)
            elif kind == KIND_DEL:
                ref = self.values.add_delete(payload)
            else:
                ref = self.values.add_modify(kind, payload)
            self._entries.append([sid, kind, ref])

    # -- update operations ---------------------------------------------------

    def add_insert(self, sid: int, rid: int, row) -> None:
        """Record the insertion of ``row`` as the new tuple at ``rid``.

        ``sid`` locates the insert relative to the stable image (including
        ghosts) and must equal ``rid`` minus the delta accumulated before
        the insertion point (asserted).
        """
        pos, delta = self._position_for_insert(sid, rid)
        if rid - delta != sid:
            raise PDTError(
                f"inconsistent insert: sid={sid} rid={rid} delta={delta}"
            )
        ref = self.values.add_insert(row)
        self._entries.insert(pos, [sid, KIND_INS, ref])

    def add_modify(self, rid: int, col_no: int, value) -> None:
        """Record a modification of column ``col_no`` of the tuple at ``rid``."""
        pos, delta = self._position_for_rid(rid)
        pos, delta = self._skip_ghosts(pos, delta, rid)
        n = len(self._entries)
        if pos < n and self._rid_at(pos, delta) == rid:
            sid, kind, ref = self._entries[pos]
            if kind == KIND_INS:
                self.values.modify_insert(ref, col_no, value)
                return
            if kind == KIND_DEL:
                raise PDTError(f"modify of deleted tuple at rid {rid}")
            # Walk the modify chain of this tuple, kept ordered by col_no.
            while pos < n and self._rid_at(pos, delta) == rid:
                sid, kind, ref = self._entries[pos]
                if not is_modify(kind) or kind > col_no:
                    break
                if kind == col_no:
                    self.values.set_modify(col_no, ref, value)
                    return
                pos += 1
        ref = self.values.add_modify(col_no, value)
        self._entries.insert(pos, [rid - delta, col_no, ref])

    def add_delete(self, rid: int, sk_values) -> None:
        """Record the deletion of the live tuple at ``rid``.

        Deleting a PDT-resident insert removes it entirely; deleting a
        stable tuple with modify entries replaces them all with one DEL.
        """
        pos, delta = self._position_for_rid(rid)
        pos, delta = self._skip_ghosts(pos, delta, rid)
        n = len(self._entries)
        if pos < n and self._rid_at(pos, delta) == rid:
            sid, kind, ref = self._entries[pos]
            if kind == KIND_INS:
                self.values.free_insert(ref)
                del self._entries[pos]
                return
            # Remove all modify entries of this stable tuple.
            while pos < len(self._entries) and self._rid_at(pos, delta) == rid:
                _, kind, _ = self._entries[pos]
                if not is_modify(kind):
                    break
                del self._entries[pos]
        ref = self.values.add_delete(sk_values)
        self._entries.insert(pos, [rid - delta, KIND_DEL, ref])

    def sk_rid_to_sid(self, sk_values, rid: int) -> int:
        """SID where a tuple with key ``sk_values`` inserted at ``rid`` goes.

        Skips ghost tuples at the boundary whose (deleted) keys are smaller
        than the new key, so SK <=> SID sparse indexes stay valid (paper
        Algorithm 6).
        """
        sk = tuple(sk_values)
        pos, delta = self._position_for_rid(rid)
        while (
            pos < len(self._entries)
            and self._entries[pos][1] == KIND_DEL
            and self._rid_at(pos, delta) == rid
            and sk > self.values.get_delete(self._entries[pos][2])
        ):
            pos += 1
            delta -= 1
        return rid - delta

    # -- RID <=> SID mapping ---------------------------------------------------

    def rid_to_sid(self, rid: int) -> int:
        """Stable ID of the live tuple currently at position ``rid``."""
        pos, delta = self._position_for_rid(rid)
        pos, delta = self._skip_ghosts(pos, delta, rid)
        if pos < len(self._entries) and self._rid_at(pos, delta) == rid:
            return self._entries[pos][0]
        return rid - delta

    def sid_to_rid(self, sid: int) -> int:
        """Current position of stable tuple ``sid`` (equation (3))."""
        delta = self.delta_before_sid(sid)
        for entry_sid, kind, _ in self._entries:
            if entry_sid < sid:
                continue
            if entry_sid != sid or kind != KIND_INS:
                break
            delta += 1
        return sid + delta

    # -- housekeeping ----------------------------------------------------------

    def copy(self) -> "FlatPDT":
        clone = FlatPDT(self.schema)
        clone.values = self.values.copy()
        clone._entries = [list(e) for e in self._entries]
        return clone

    def clear(self) -> None:
        self._entries.clear()
        self.values.clear()

    def memory_usage(self) -> int:
        """Bytes under the paper's C cost model: 16 bytes per update entry."""
        return 16 * len(self._entries)

    def check_invariants(self) -> None:
        """Validate ordering and chain-shape invariants (see DESIGN.md)."""
        prev_sid = prev_rid = None
        delta = 0
        for sid, kind, ref in self._entries:
            rid = sid + delta
            if prev_sid is not None:
                if sid < prev_sid:
                    raise PDTError(f"sid order violated: {sid} < {prev_sid}")
                if rid < prev_rid:
                    raise PDTError(f"rid order violated: {rid} < {prev_rid}")
            self.values.value_of(kind, ref)  # ref must resolve
            prev_sid, prev_rid = sid, rid
            delta += delta_of(kind)
        self._check_chains()

    def _check_chains(self) -> None:
        entries = list(self.iter_entries())
        i = 0
        while i < len(entries):
            j = i
            while j < len(entries) and entries[j].sid == entries[i].sid:
                j += 1
            chain = entries[i:j]
            terminal = [e for e in chain if not e.is_insert]
            for k, e in enumerate(chain):
                if e.is_insert and k > 0 and not chain[k - 1].is_insert:
                    # INS after non-INS at same sid is legal only when the
                    # non-INS is a ghost chain element with smaller rid.
                    if chain[k - 1].rid > e.rid:
                        raise PDTError("insert ordered after later entry")
            mods = [e for e in terminal if e.is_modify]
            cols = [e.kind for e in mods]
            if cols != sorted(set(cols)):
                raise PDTError(f"modify chain columns not unique/sorted: {cols}")
            dels = [e for e in terminal if e.is_delete]
            if len(dels) > 1 and any(
                d1.rid == d2.rid and d1.sid == d2.sid
                for d1, d2 in zip(dels, dels[1:])
            ):
                raise PDTError("duplicate delete of the same stable tuple")
            i = j

    # -- internals ---------------------------------------------------------------

    def _rid_at(self, pos: int, delta: int) -> int:
        return self._entries[pos][0] + delta

    def _position_for_rid(self, rid: int):
        """Leftmost entry position whose current RID is >= ``rid``,
        with the delta accumulated before it."""
        delta = 0
        for pos, (sid, kind, _) in enumerate(self._entries):
            if sid + delta >= rid:
                return pos, delta
            delta += delta_of(kind)
        return len(self._entries), delta

    def _skip_ghosts(self, pos: int, delta: int, rid: int):
        """Advance past ghost (DEL) entries sharing ``rid``: they precede
        the live tuple the caller is addressing."""
        while (
            pos < len(self._entries)
            and self._entries[pos][1] == KIND_DEL
            and self._rid_at(pos, delta) == rid
        ):
            pos += 1
            delta -= 1
        return pos, delta

    def _position_for_insert(self, sid: int, rid: int):
        """Skip loop of Algorithm 3: find where an insert at (sid, rid)
        belongs, returning (position, delta before position)."""
        delta = 0
        pos = 0
        for entry_sid, kind, _ in self._entries:
            if entry_sid < sid or entry_sid + delta < rid:
                delta += delta_of(kind)
                pos += 1
            else:
                break
        return pos, delta

    def __repr__(self) -> str:
        return f"FlatPDT(entries={len(self._entries)})"
