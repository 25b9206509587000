"""Propagate: fold a higher-layer PDT into the layer below (Algorithm 7).

``propagate(read, write)`` applies every update of ``write`` — which must
be *consecutive* to ``read`` (paper Definition 2: write's SID domain is
read's RID domain) — into ``read``, in left-to-right entry order. Because
entries are applied in order, read's RID domain evolves to match write's as
we go, so each entry's RID can be used directly. Inserts additionally need
their exact SID with respect to read's ghost tuples, recovered from sort
keys via ``sk_rid_to_sid`` (Algorithm 6).

Used when the Write-PDT outgrows its budget (migrate to the Read-PDT), at
commit (migrate a serialized Trans-PDT into the top Write layer) and when
two Write layers merge.

Two implementations of the same fold:

* :func:`propagate` — the paper-faithful per-entry loop: one counted-tree
  descent into ``read`` per ``write`` entry. Cheap when ``write`` is a
  handful of entries; the differential-testing oracle otherwise.
* :func:`propagate_batch` — the sorted-run form used by the bulk update
  path: both entry streams are walked once, merged group-by-group in
  write-SID order into a fresh entry run, and ``read`` is rebuilt from
  that run with ``bulk_append_entries``. O(|read| + |write|) with no
  descents; chosen automatically when ``write`` is large relative to
  ``read`` (or ``read`` is empty, where it degenerates to a bulk copy).
"""

from __future__ import annotations

from itertools import groupby

from .types import KIND_DEL, KIND_INS, delta_of

#: propagate_batch falls back to the scalar loop when read has more than
#: this many entries per write entry (rebuilding read would dominate).
MERGE_FOLD_RATIO = 8


def propagate(read_pdt, write_pdt) -> None:
    """Apply all of ``write_pdt``'s updates into ``read_pdt`` (in place)."""
    if read_pdt.schema is not write_pdt.schema and (
        read_pdt.schema != write_pdt.schema
    ):
        raise ValueError("propagate requires identical schemas")
    schema = write_pdt.schema
    for entry in write_pdt.iter_entries():
        rid = entry.rid
        if entry.is_insert:
            row = list(write_pdt.values.get_insert(entry.ref))
            sid = read_pdt.sk_rid_to_sid(schema.sk_of(row), rid)
            read_pdt.add_insert(sid, rid, row)
        elif entry.is_delete:
            read_pdt.add_delete(rid, write_pdt.values.get_delete(entry.ref))
        else:
            read_pdt.add_modify(
                rid,
                entry.kind,
                write_pdt.values.get_modify(entry.kind, entry.ref),
            )


def propagate_batch(read_pdt, write_pdt) -> None:
    """Sorted-run Propagate: fold ``write_pdt`` into ``read_pdt`` in one
    ordered pass over both entry streams.

    Semantically identical to :func:`propagate` (the property suite
    asserts so); picks the merge fold when it pays — ``read`` empty or
    ``write`` within :data:`MERGE_FOLD_RATIO` of ``read``'s size — and
    the scalar loop otherwise.
    """
    if read_pdt.schema is not write_pdt.schema and (
        read_pdt.schema != write_pdt.schema
    ):
        raise ValueError("propagate requires identical schemas")
    if write_pdt.is_empty():
        return
    if read_pdt.count() > MERGE_FOLD_RATIO * write_pdt.count():
        propagate(read_pdt, write_pdt)
        return
    merged = _merge_fold(read_pdt, write_pdt)
    read_pdt.clear()
    read_pdt.bulk_append_entries(merged)


def propagated(read_pdt, write_pdt):
    """A fresh PDT of ``read_pdt`` ∘ ``write_pdt``; neither changes."""
    fresh = type(read_pdt)(read_pdt.schema, fanout=read_pdt.fanout)
    fresh.bulk_append_entries(_merge_fold(read_pdt, write_pdt))
    return fresh


def _merge_fold(read_pdt, write_pdt) -> list:
    """Merged ``(sid, kind, payload)`` run of read ∘ write in read's SID
    domain.

    Write entries are grouped by their SID — which, by consecutivity, *is*
    the target position in read's output RID domain — and each group is
    spliced against the read entries at that position, replaying the
    scalar algorithms' interaction rules on the streams: inserts order
    among boundary ghosts by sort key (Algorithm 6), a delete annihilates
    a read-resident insert and swallows a read modify chain (Algorithm 5),
    and modifies rewrite insert rows / merge into modify chains by column
    number (Algorithm 4).
    """
    schema = read_pdt.schema
    r_entries = list(read_pdt.iter_entries())
    n_read = len(r_entries)
    value_of = read_pdt.values.value_of
    out: list[tuple] = []
    ri = 0
    delta_r = 0  # net delta of read entries consumed so far

    def emit_read(entry) -> None:
        nonlocal ri, delta_r
        out.append((entry.sid, entry.kind, value_of(entry.kind, entry.ref)))
        delta_r += delta_of(entry.kind)
        ri += 1

    for pos, group in groupby(write_pdt.iter_entries(), key=lambda e: e.sid):
        # Read entries strictly before the target position pass through.
        while ri < n_read and r_entries[ri].rid < pos:
            emit_read(r_entries[ri])
        pending_mods: dict[int, object] = {}
        for w in group:
            if w.kind == KIND_INS:
                row = list(write_pdt.values.get_insert(w.ref))
                sk = schema.sk_of(row)
                # Boundary ghosts with smaller keys precede the insert.
                while (
                    ri < n_read
                    and r_entries[ri].rid == pos
                    and r_entries[ri].kind == KIND_DEL
                    and sk > read_pdt.values.get_delete(r_entries[ri].ref)
                ):
                    emit_read(r_entries[ri])
                out.append((pos - delta_r, KIND_INS, row))
            elif w.kind == KIND_DEL:
                # All remaining ghosts at the position precede the live
                # tuple the delete addresses.
                while (
                    ri < n_read
                    and r_entries[ri].rid == pos
                    and r_entries[ri].kind == KIND_DEL
                ):
                    emit_read(r_entries[ri])
                if (
                    ri < n_read
                    and r_entries[ri].rid == pos
                    and r_entries[ri].kind == KIND_INS
                ):
                    # Deleting a read-resident insert annihilates both;
                    # the insert still counted in read's RID domain.
                    delta_r += 1
                    ri += 1
                    continue
                while (
                    ri < n_read
                    and r_entries[ri].rid == pos
                    and r_entries[ri].kind >= 0
                ):
                    ri += 1  # swallow the read modify chain
                out.append((
                    pos - delta_r, KIND_DEL,
                    write_pdt.values.get_delete(w.ref),
                ))
            else:
                pending_mods[w.kind] = write_pdt.values.get_modify(
                    w.kind, w.ref
                )
        if pending_mods:
            while (
                ri < n_read
                and r_entries[ri].rid == pos
                and r_entries[ri].kind == KIND_DEL
            ):
                emit_read(r_entries[ri])
            if (
                ri < n_read
                and r_entries[ri].rid == pos
                and r_entries[ri].kind == KIND_INS
            ):
                # Modify of a read-resident insert rewrites its row.
                row = list(read_pdt.values.get_insert(r_entries[ri].ref))
                for col_no, value in pending_mods.items():
                    row[col_no] = value
                out.append((r_entries[ri].sid, KIND_INS, row))
                delta_r += 1
                ri += 1
            else:
                # Merge into the stable tuple's modify chain (kept ordered
                # by column number; write values override equal columns).
                chain: dict[int, object] = {}
                while (
                    ri < n_read
                    and r_entries[ri].rid == pos
                    and r_entries[ri].kind >= 0
                ):
                    chain[r_entries[ri].kind] = value_of(
                        r_entries[ri].kind, r_entries[ri].ref
                    )
                    ri += 1
                chain.update(pending_mods)
                for col_no in sorted(chain):
                    out.append((pos - delta_r, col_no, chain[col_no]))
    while ri < n_read:
        emit_read(r_entries[ri])
    return out
