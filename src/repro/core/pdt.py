"""The Positional Delta Tree (paper sections 2-3).

A PDT is a B+-tree-like structure over two non-unique, monotonically
increasing keys — the stable ID (SID) and the current row ID (RID) — whose
leaves hold update triplets ``(sid, type, value-ref)`` and whose inner
nodes carry, per child, a separator SID (the minimum SID of that child's
subtree) and a ``delta`` counter (the net inserts-minus-deletes of the
subtree). Summing deltas along a root-to-leaf path yields the RID of any
entry as ``RID = SID + delta`` (equation (3)); this is what makes *counted*
positional lookup logarithmic while positions keep shifting under inserts
and deletes.

Differences from the paper's C implementation, documented per DESIGN.md:

* Fan-out defaults to 32 (not the cache-line-derived 8); Python node
  objects are not cache-line entities, but the logarithmic behaviour the
  microbenchmarks measure is preserved and the fan-out is configurable.
* A tuple may carry several modify entries (one per modified column,
  ordered by column number) sharing the same (SID, RID) — the layout
  Algorithm 2's "MODs same tuple" loop expects.
* Empty non-root nodes are removed rather than rebalanced; PDTs live in
  RAM and are emptied wholesale by Propagate/checkpoint, so underflow
  rebalancing buys nothing (same choice as the VDT's B-tree).

``memory_usage()`` reports the paper's cost model (16 bytes per update
entry) so that ``Database.delta_bytes`` and the Figure 16 series are
comparable with the paper's.
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

DEFAULT_FANOUT = 32


class _Leaf:
    __slots__ = ("sids", "kinds", "refs", "parent", "next", "prev")

    def __init__(self):
        self.sids: list[int] = []
        self.kinds: list[int] = []
        self.refs: list[int] = []
        self.parent: _Inner | None = None
        self.next: _Leaf | None = None
        self.prev: _Leaf | None = None

    @property
    def is_leaf(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.sids)

    def subtree_delta(self) -> int:
        return sum(delta_of(k) for k in self.kinds)

    def min_sid(self) -> int:
        return self.sids[0] if self.sids else 0


class _Inner:
    __slots__ = ("seps", "deltas", "children", "parent")

    def __init__(self):
        self.seps: list[int] = []  # min SID of each child's subtree
        self.deltas: list[int] = []  # net insert-delete delta per child
        self.children: list = []
        self.parent: _Inner | None = None

    @property
    def is_leaf(self) -> bool:
        return False

    def __len__(self) -> int:
        return len(self.children)

    def subtree_delta(self) -> int:
        return sum(self.deltas)

    def min_sid(self) -> int:
        return self.seps[0] if self.seps else 0


class PDT:
    """Positional Delta Tree: the paper's differential write-store."""

    def __init__(self, schema: Schema, fanout: int = DEFAULT_FANOUT):
        if fanout < 4:
            raise ValueError("fanout must be >= 4")
        self.schema = schema
        self.fanout = fanout
        self.values = ValueSpace(schema)
        self._root: _Leaf | _Inner = _Leaf()
        self._count = 0
        self._inner_slots = 0  # child slots over all inner nodes

    # ------------------------------------------------------------------
    # basic accessors

    def __len__(self) -> int:
        return self._count

    def count(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return self._count == 0

    def total_delta(self) -> int:
        return self._root.subtree_delta()

    def depth(self) -> int:
        node, d = self._root, 1
        while not node.is_leaf:
            node = node.children[0]
            d += 1
        return d

    def memory_usage(self) -> int:
        """Bytes under the paper's C model: 16 per leaf entry, plus inner
        node (sid, delta, pointer) slots. O(1): both counts are kept
        current where the tree changes shape."""
        return 16 * self._count + 24 * self._inner_slots

    # ------------------------------------------------------------------
    # iteration

    def iter_entries(self, start_sid: int = 0):
        """Yield :class:`Entry` records in (SID, RID) order.

        With ``start_sid``, iteration begins at the first entry whose SID
        is >= ``start_sid`` (a logarithmic seek plus a bounded walk).
        """
        if start_sid <= 0:
            leaf = self._leftmost_leaf()
            pos = 0
            delta = 0
        else:
            leaf, delta = self._descend_leftmost_by_sid(start_sid)
            pos = 0
            while leaf is not None:
                while pos < len(leaf) and leaf.sids[pos] < start_sid:
                    delta += delta_of(leaf.kinds[pos])
                    pos += 1
                if pos < len(leaf):
                    break
                leaf, pos = leaf.next, 0
        while leaf is not None:
            while pos < len(leaf):
                sid = leaf.sids[pos]
                kind = leaf.kinds[pos]
                yield Entry(sid, sid + delta, kind, leaf.refs[pos])
                delta += delta_of(kind)
                pos += 1
            leaf, pos = leaf.next, 0

    def entry_lists(self, start_sid: int = 0, stop_sid: int | None = None):
        """Parallel ``(sids, kinds, refs)`` lists of entries with SID in
        ``[start_sid, stop_sid)``, in (SID, RID) order.

        The bulk form of :meth:`iter_entries` used by the block-pipelined
        MergeScan: leaves are drained with ``list.extend`` so the hot scan
        path never pays per-entry generator resumption or :class:`Entry`
        construction. ``stop_sid`` bounds the walk for range scans, so a
        narrow scan of a large PDT stays proportional to the range.
        """
        sids: list[int] = []
        kinds: list[int] = []
        refs: list[int] = []
        if start_sid <= 0:
            leaf = self._leftmost_leaf()
            pos = 0
        else:
            leaf, _ = self._descend_leftmost_by_sid(start_sid)
            pos = 0
            while leaf is not None:
                while pos < len(leaf) and leaf.sids[pos] < start_sid:
                    pos += 1
                if pos < len(leaf):
                    break
                leaf, pos = leaf.next, 0
        while leaf is not None:
            if stop_sid is not None and leaf.sids and \
                    leaf.sids[-1] >= stop_sid:
                # Partial leaf at the range end: take entries below stop.
                while pos < len(leaf) and leaf.sids[pos] < stop_sid:
                    sids.append(leaf.sids[pos])
                    kinds.append(leaf.kinds[pos])
                    refs.append(leaf.refs[pos])
                    pos += 1
                break
            if pos:
                sids.extend(leaf.sids[pos:])
                kinds.extend(leaf.kinds[pos:])
                refs.extend(leaf.refs[pos:])
                pos = 0
            else:
                sids.extend(leaf.sids)
                kinds.extend(leaf.kinds)
                refs.extend(leaf.refs)
            leaf = leaf.next
        return sids, kinds, refs

    def entries(self, start_sid: int = 0, stop_sid: int | None = None):
        """The SID-ordered ``(sid, kind, payload)`` run of entries with SID
        in ``[start_sid, stop_sid)``: the one export of a PDT's contents.

        Leaves are drained as in :meth:`entry_lists` and each ref resolved
        against the value space (equation (7)): a row list (INS), an SK
        tuple (DEL) or the modified value (MOD). Every INS row is a fresh
        list, so no holder of the run aliases a row that a later modify
        rewrites in place. :meth:`bulk_append_entries` on an empty PDT is
        the inverse; WAL records, worker payloads, fold survivors and
        rebalanced shards all travel in this form (:meth:`copy`, which
        stays inside one process, skips the fresh lists).
        """
        value_of = self.values.value_of
        run = []
        for sid, kind, ref in zip(*self.entry_lists(start_sid, stop_sid)):
            payload = value_of(kind, ref)
            run.append((sid, kind,
                        list(payload) if kind == KIND_INS else payload))
        return run

    def delta_before_sid(self, sid: int) -> int:
        """Net delta of all entries with SID strictly below ``sid``."""
        if sid <= 0:
            return 0
        leaf, delta = self._descend_leftmost_by_sid(sid)
        while leaf is not None:
            for pos in range(len(leaf)):
                if leaf.sids[pos] >= sid:
                    return delta
                delta += delta_of(leaf.kinds[pos])
            leaf = leaf.next
        return delta

    # ------------------------------------------------------------------
    # update operations (Algorithms 3, 4, 5)

    def add_insert(self, sid: int, rid: int, row) -> None:
        """Record the insertion of ``row`` as the new tuple at ``rid``
        (Algorithm 3). ``sid`` comes from :meth:`sk_rid_to_sid`."""
        leaf, delta = self._descend_by_sid_rid(sid, rid)
        pos = 0
        while pos < len(leaf) and (
            leaf.sids[pos] < sid or leaf.sids[pos] + delta < rid
        ):
            delta += delta_of(leaf.kinds[pos])
            pos += 1
        if rid - delta != sid:
            raise PDTError(
                f"inconsistent insert: sid={sid} rid={rid} delta={delta}"
            )
        ref = self.values.add_insert(row)
        self._leaf_insert(leaf, pos, sid, KIND_INS, ref)

    def add_modify(self, rid: int, col_no: int, value) -> None:
        """Record a modification of column ``col_no`` of the live tuple at
        ``rid`` (Algorithm 4), updating in place when the tuple already has
        PDT entries. Modify chains may span leaves, so positioning starts
        at the chain head and walks forward across leaf links."""
        leaf, pos, delta = self._locate_rid(rid)
        entry = self._entry_at(leaf, pos)
        if entry is not None and leaf.sids[pos] + delta == rid:
            kind = leaf.kinds[pos]
            if kind == KIND_INS:
                self.values.modify_insert(leaf.refs[pos], col_no, value)
                return
            if kind == KIND_DEL:
                raise PDTError(f"modify of deleted tuple at rid {rid}")
            # Walk the tuple's modify chain (ordered by column number).
            while True:
                if pos == len(leaf):
                    if leaf.next is None:
                        break
                    leaf, pos = leaf.next, 0
                    continue
                kind = leaf.kinds[pos]
                if (
                    leaf.sids[pos] + delta != rid
                    or not is_modify(kind)
                    or kind > col_no
                ):
                    break
                if kind == col_no:
                    self.values.set_modify(col_no, leaf.refs[pos], value)
                    return
                pos += 1
        ref = self.values.add_modify(col_no, value)
        self._leaf_insert(leaf, pos, rid - delta, col_no, ref)

    def add_delete(self, rid: int, sk_values) -> None:
        """Record the deletion of the live tuple at ``rid`` (Algorithm 5).

        Deleting a PDT-resident insert erases it; deleting a stable tuple
        with modify entries replaces them all with a single DEL carrying
        the tuple's sort key."""
        leaf, pos, delta = self._locate_rid(rid)
        entry = self._entry_at(leaf, pos)
        if entry is not None and leaf.sids[pos] + delta == rid:
            if leaf.kinds[pos] == KIND_INS:
                self.values.free_insert(leaf.refs[pos])
                self._leaf_remove(leaf, pos)
                return
            self._remove_modify_chain(leaf, pos, delta, rid)
            leaf, pos, delta = self._locate_rid(rid)
        ref = self.values.add_delete(sk_values)
        self._leaf_insert(leaf, pos, rid - delta, KIND_DEL, ref)

    def _remove_modify_chain(self, leaf: _Leaf, pos: int, delta: int,
                             rid: int) -> None:
        """Remove every modify entry of the tuple at ``rid``, walking
        across leaves; leaves emptied along the way are unlinked."""
        while True:
            if pos == len(leaf):
                if leaf.next is None:
                    return
                leaf, pos = leaf.next, 0
                continue
            if (
                leaf.sids[pos] + delta != rid
                or not is_modify(leaf.kinds[pos])
            ):
                return
            successor = leaf.next
            self._leaf_remove(leaf, pos)
            if len(leaf) == 0:  # leaf was unlinked from the tree
                if successor is None:
                    return
                leaf, pos = successor, 0

    def sk_rid_to_sid(self, sk_values, rid: int) -> int:
        """SID for inserting a tuple with key ``sk_values`` at ``rid``,
        skipping boundary ghosts with smaller keys (Algorithm 6)."""
        sk = tuple(sk_values)
        leaf, delta = self._descend_leftmost_by_rid(rid)
        pos = 0
        while leaf is not None:
            if pos >= len(leaf):
                leaf, pos = leaf.next, 0
                continue
            entry_rid = leaf.sids[pos] + delta
            if entry_rid < rid:
                delta += delta_of(leaf.kinds[pos])
                pos += 1
                continue
            if (
                entry_rid == rid
                and leaf.kinds[pos] == KIND_DEL
                and sk > self.values.get_delete(leaf.refs[pos])
            ):
                delta -= 1
                pos += 1
                continue
            break
        return rid - delta

    # ------------------------------------------------------------------
    # RID <=> SID mapping (the conceptual core of positional deltas)

    def rid_to_sid(self, rid: int) -> int:
        """Stable ID of the live tuple currently at position ``rid``.

        For tuples inserted through this PDT the result is their assigned
        ghost-respecting SID; for untouched stable tuples it is their
        position in TABLE0.
        """
        leaf, pos, delta = self._locate_rid(rid)
        if pos < len(leaf) and leaf.sids[pos] + delta == rid:
            return leaf.sids[pos]
        return rid - delta

    def sid_to_rid(self, sid: int) -> int:
        """Current position of stable tuple ``sid`` (equation (3)).

        Ghost tuples (deleted through this PDT) map to the position of the
        first following live tuple, per the paper's ghost-RID convention.
        """
        delta = self.delta_before_sid(sid)
        for entry in self.iter_entries(start_sid=sid):
            if entry.sid != sid:
                break
            if entry.kind == KIND_INS:
                delta += 1
            else:
                break  # the tuple's own DEL/MOD chain starts here
        return sid + delta

    def bulk_append_entries(self, triples) -> None:
        """Build this empty PDT from a SID-ordered ``(sid, kind, payload)``
        run (the inverse of :meth:`entries`).

        The only way a run turns back into a PDT: the batch update path's
        empty-top run, ``propagate_batch``'s merged run, Serialize's
        output, WAL replay staging, worker-side layer rebuilds, checkpoint
        fold survivors, rebalanced shards and :meth:`copy`. Leaves and
        inner levels are built bottom-up in one pass, with no per-entry
        root descents and no incremental splits. A non-empty PDT raises
        :class:`PDTError`.
        """
        if self._count:
            raise PDTError(
                f"bulk append onto a non-empty PDT ({self._count} entries)"
            )
        triples = list(triples)
        if not triples:
            return
        for i in range(1, len(triples)):
            if triples[i][0] < triples[i - 1][0]:
                raise PDTError(
                    f"bulk append out of order: sid {triples[i][0]} < "
                    f"{triples[i - 1][0]}"
                )
        refs = []
        for _, kind, payload in triples:
            if kind == KIND_INS:
                refs.append(self.values.add_insert(payload))
            elif kind == KIND_DEL:
                refs.append(self.values.add_delete(payload))
            else:
                refs.append(self.values.add_modify(kind, payload))
        # Leaves at ~2/3 occupancy so follow-up scalar adds do not split
        # immediately; inner levels chunked the same way.
        per_leaf = max(2, (self.fanout * 2) // 3)
        leaves: list[_Leaf] = []
        for at in range(0, len(triples), per_leaf):
            chunk = triples[at:at + per_leaf]
            leaf = _Leaf()
            leaf.sids = [t[0] for t in chunk]
            leaf.kinds = [t[1] for t in chunk]
            leaf.refs = refs[at:at + per_leaf]
            if leaves:
                leaf.prev = leaves[-1]
                leaves[-1].next = leaf
            leaves.append(leaf)
        self._count = len(triples)
        level: list = leaves
        while len(level) > 1:
            parents: list = []
            for at in range(0, len(level), per_leaf):
                chunk = level[at:at + per_leaf]
                inner = _Inner()
                inner.children = chunk
                inner.seps = [c.min_sid() for c in chunk]
                inner.deltas = [c.subtree_delta() for c in chunk]
                for child in chunk:
                    child.parent = inner
                parents.append(inner)
            self._inner_slots += len(level)
            level = parents
        self._root = level[0]

    # ------------------------------------------------------------------
    # housekeeping

    def copy(self) -> "PDT":
        """Independent copy, rebuilt in bulk from :meth:`entry_lists` and
        the value space. The clone's value space copies each inserted row
        once (:meth:`ValueSpace.add_insert`), so neither PDT aliases a row
        the other's modifies rewrite in place.

        Taken when a loaned PDT must stay as it is: copy-on-commit of a
        master Write-PDT that a live pin (a running transaction's, too)
        still reads (``TransactionManager._finish``), and a pinned
        Read-PDT about to absorb the Write-PDT
        (``propagate_write_to_read``).
        """
        value_of = self.values.value_of
        clone = PDT(self.schema, self.fanout)
        clone.bulk_append_entries([
            (sid, kind, value_of(kind, ref))
            for sid, kind, ref in zip(*self.entry_lists())
        ])
        return clone

    def clear(self) -> None:
        self._root = _Leaf()
        self._count = 0
        self._inner_slots = 0
        self.values.clear()

    def __repr__(self) -> str:
        return (
            f"PDT(entries={self._count}, delta={self.total_delta()}, "
            f"depth={self.depth()})"
        )

    # ------------------------------------------------------------------
    # descents (Algorithm 1 family)

    def _descend_leftmost_by_rid(self, rid: int):
        """Leftmost leaf that may contain the first entry with RID >=
        ``rid`` (the start of an equal-RID chain)."""
        node, delta = self._root, 0
        while not node.is_leaf:
            acc = delta
            chosen, chosen_delta = 0, delta
            for i in range(len(node.children)):
                if i > 0 and node.seps[i] + acc >= rid:
                    break
                chosen, chosen_delta = i, acc
                acc += node.deltas[i]
            node, delta = node.children[chosen], chosen_delta
        return node, delta

    def _descend_by_sid_rid(self, sid: int, rid: int):
        """Rightmost leaf whose first entry's (SID, RID) is strictly below
        the target pair — where an insert at (sid, rid) belongs. Strictness
        matters: a new insert precedes existing entries at an equal
        (SID, RID), so when such a chain starts exactly at a leaf boundary
        the insert must land at the end of the preceding leaf."""
        node, delta = self._root, 0
        while not node.is_leaf:
            acc = delta
            chosen, chosen_delta = 0, delta
            for i in range(len(node.children)):
                if i > 0 and (node.seps[i], node.seps[i] + acc) >= (sid, rid):
                    break
                chosen, chosen_delta = i, acc
                acc += node.deltas[i]
            node, delta = node.children[chosen], chosen_delta
        return node, delta

    def _descend_leftmost_by_sid(self, sid: int):
        """Leftmost leaf that may contain the first entry with SID >=
        ``sid``."""
        node, delta = self._root, 0
        while not node.is_leaf:
            acc = delta
            chosen, chosen_delta = 0, delta
            for i in range(len(node.children)):
                if i > 0 and node.seps[i] >= sid:
                    break
                chosen, chosen_delta = i, acc
                acc += node.deltas[i]
            node, delta = node.children[chosen], chosen_delta
        return node, delta

    def _locate_rid(self, rid: int):
        """Position where updates for live tuple ``rid`` go: the start of
        its chain, past any ghost (DEL) entries sharing this RID, walking
        leaf links when chains cross leaf boundaries. Returns
        ``(leaf, pos, delta)``."""
        leaf, delta = self._descend_leftmost_by_rid(rid)
        pos = 0
        while True:
            if pos == len(leaf):
                if leaf.next is None:
                    break
                leaf, pos = leaf.next, 0
                continue
            entry_rid = leaf.sids[pos] + delta
            if entry_rid < rid:
                delta += delta_of(leaf.kinds[pos])
                pos += 1
                continue
            if entry_rid == rid and leaf.kinds[pos] == KIND_DEL:
                delta -= 1
                pos += 1
                continue
            break
        return leaf, pos, delta

    @staticmethod
    def _entry_at(leaf: _Leaf, pos: int):
        """The (sid, kind) at a position, or None at the end of the tree."""
        if pos >= len(leaf):
            return None
        return leaf.sids[pos], leaf.kinds[pos]

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    # ------------------------------------------------------------------
    # structural mutation

    def _leaf_insert(self, leaf: _Leaf, pos: int, sid: int, kind: int,
                     ref: int) -> None:
        leaf.sids.insert(pos, sid)
        leaf.kinds.insert(pos, kind)
        leaf.refs.insert(pos, ref)
        self._count += 1
        change = delta_of(kind)
        if change:
            self._add_path_deltas(leaf, change)
        if pos == 0:
            self._refresh_seps(leaf)
        if len(leaf) > self.fanout:
            self._split(leaf)

    def _leaf_remove(self, leaf: _Leaf, pos: int) -> None:
        change = delta_of(leaf.kinds[pos])
        del leaf.sids[pos]
        del leaf.kinds[pos]
        del leaf.refs[pos]
        self._count -= 1
        if change:
            self._add_path_deltas(leaf, -change)
        if len(leaf) == 0:
            self._remove_node(leaf)
        elif pos == 0:
            self._refresh_seps(leaf)

    def _add_path_deltas(self, leaf: _Leaf, change: int) -> None:
        node = leaf
        parent = node.parent
        while parent is not None:
            parent.deltas[parent.children.index(node)] += change
            node, parent = parent, parent.parent

    def _refresh_seps(self, node) -> None:
        child = node
        parent = child.parent
        while parent is not None:
            idx = parent.children.index(child)
            new_min = child.min_sid()
            if parent.seps[idx] == new_min:
                break
            parent.seps[idx] = new_min
            if idx != 0:
                break
            child, parent = parent, parent.parent

    def _split(self, node) -> None:
        while node is not None and len(node) > self.fanout:
            parent = node.parent
            if parent is None:
                parent = _Inner()
                parent.children = [node]
                parent.seps = [node.min_sid()]
                parent.deltas = [node.subtree_delta()]
                node.parent = parent
                self._root = parent
                self._inner_slots += 1
            idx = parent.children.index(node)
            right = self._split_node(node)
            right.parent = parent
            parent.children.insert(idx + 1, right)
            self._inner_slots += 1
            parent.seps.insert(idx + 1, right.min_sid())
            parent.deltas[idx] = node.subtree_delta()
            parent.deltas.insert(idx + 1, right.subtree_delta())
            node = parent

    @staticmethod
    def _split_node(node):
        if node.is_leaf:
            mid = len(node) // 2
            right = _Leaf()
            right.sids = node.sids[mid:]
            right.kinds = node.kinds[mid:]
            right.refs = node.refs[mid:]
            node.sids = node.sids[:mid]
            node.kinds = node.kinds[:mid]
            node.refs = node.refs[:mid]
            right.next = node.next
            right.prev = node
            if node.next is not None:
                node.next.prev = right
            node.next = right
            return right
        mid = len(node) // 2
        right = _Inner()
        right.children = node.children[mid:]
        right.seps = node.seps[mid:]
        right.deltas = node.deltas[mid:]
        node.children = node.children[:mid]
        node.seps = node.seps[:mid]
        node.deltas = node.deltas[:mid]
        for child in right.children:
            child.parent = right
        return right

    def _remove_node(self, node) -> None:
        parent = node.parent
        if node.is_leaf:
            if node.prev is not None:
                node.prev.next = node.next
            if node.next is not None:
                node.next.prev = node.prev
        if parent is None:
            # The root itself emptied out: reset to a fresh empty leaf.
            self._root = _Leaf()
            return
        idx = parent.children.index(node)
        del parent.children[idx]
        del parent.seps[idx]
        del parent.deltas[idx]
        self._inner_slots -= 1
        node.parent = None
        if len(parent.children) == 0:
            self._remove_node(parent)
        else:
            if idx == 0:
                # The parent's own minimum changed: refresh the ancestors'
                # separators *for the parent* (not for the surviving child,
                # whose separator is already correct).
                self._refresh_seps(parent)
            if parent.parent is None and len(parent.children) == 1:
                only = parent.children[0]
                only.parent = None
                self._root = only
                self._inner_slots -= 1

    # ------------------------------------------------------------------
    # validation

    def check_invariants(self) -> None:
        """Full structural validation: counted-tree bookkeeping, ordering,
        chain shapes, and leaf linkage (used heavily by tests)."""
        leaves_struct: list[_Leaf] = []
        inner_slots = 0

        def visit(node, parent):
            nonlocal inner_slots
            if node.parent is not parent:
                raise PDTError("parent pointer mismatch")
            if node.is_leaf:
                if parent is not None and len(node) == 0:
                    raise PDTError("empty non-root leaf")
                if len(node) > self.fanout:
                    raise PDTError("leaf overflow")
                leaves_struct.append(node)
                return
            if not (
                len(node.children) == len(node.seps) == len(node.deltas)
            ):
                raise PDTError("inner node arity mismatch")
            if len(node.children) == 0:
                raise PDTError("empty inner node")
            if len(node.children) > self.fanout:
                raise PDTError("inner overflow")
            inner_slots += len(node.children)
            for i, child in enumerate(node.children):
                if node.seps[i] != child.min_sid():
                    raise PDTError(
                        f"separator {node.seps[i]} != child min "
                        f"{child.min_sid()}"
                    )
                if node.deltas[i] != child.subtree_delta():
                    raise PDTError(
                        f"delta {node.deltas[i]} != child subtree "
                        f"{child.subtree_delta()}"
                    )
                visit(child, node)

        visit(self._root, None)
        if inner_slots != self._inner_slots:
            raise PDTError(
                f"inner slots {self._inner_slots} != walked {inner_slots}"
            )

        linked = []
        leaf = self._leftmost_leaf()
        while leaf is not None:
            linked.append(leaf)
            if leaf.next is not None and leaf.next.prev is not leaf:
                raise PDTError("broken leaf back-link")
            leaf = leaf.next
        if [id(x) for x in linked] != [id(x) for x in leaves_struct]:
            raise PDTError("leaf chain does not match tree order")

        count = sum(len(leaf) for leaf in leaves_struct)
        if count != self._count:
            raise PDTError(f"count {self._count} != leaf total {count}")

        self._check_entry_stream()

    def _check_entry_stream(self) -> None:
        prev_sid = prev_rid = None
        prev_kind = None
        for entry in self.iter_entries():
            if prev_sid is not None:
                if entry.sid < prev_sid:
                    raise PDTError(
                        f"sid order violated: {entry.sid} < {prev_sid}"
                    )
                if entry.rid < prev_rid:
                    raise PDTError(
                        f"rid order violated: {entry.rid} < {prev_rid}"
                    )
                if (
                    entry.sid == prev_sid
                    and entry.rid == prev_rid
                    and is_modify(entry.kind)
                    and is_modify(prev_kind)
                    and entry.kind <= prev_kind
                ):
                    raise PDTError("modify chain columns not increasing")
            self.values.value_of(entry.kind, entry.ref)
            prev_sid, prev_rid, prev_kind = entry.sid, entry.rid, entry.kind
