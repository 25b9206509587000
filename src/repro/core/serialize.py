"""Serialize: transpose an overlapping PDT to be consecutive (Algorithm 8).

Transactions x and y started from the same snapshot, so their Trans-PDTs
``Tx`` and ``Ty`` are *aligned* (paper Definition 1). When y commits first,
x's updates must be re-expressed relative to the post-y table image before
they can be propagated — and impossibility of doing so is exactly a
write-write conflict, aborting x. ``serialize(tx, ty)`` returns the
transformed T'x (a new PDT of the same class as ``tx``) or raises
:class:`~repro.core.types.TransactionConflict`.

Conflict rules (tuple-level write-write, reconciling disjoint-column
modifies, per the paper):

* y deleted a stable tuple that x deletes or modifies  -> conflict
* y modified a tuple that x deletes                    -> conflict (DEL-MOD)
* y and x modified the same column of the same tuple   -> conflict (MOD-MOD)
* y and x inserted tuples with the same sort key       -> key conflict
* x inserts never conflict with y deletes ("never conflict with insert");
  re-inserting a key y deleted is legal.

Implementation note (documented erratum): the paper's printed Algorithm 8
advances ``δ`` but not ``j`` when a Ty delete meets a Tx insert at the same
SID, which would double-count the delete through the line-4 loop on the
next iteration, and its branch structure misroutes a Ty-insert/Tx-modify
collision into the modify-conflict check. We therefore implement the
specification above with explicit per-SID groups; the result is validated
by property tests against sequential ground-truth application
(tests/core/test_serialize.py).
"""

from __future__ import annotations

from itertools import groupby

from .types import KIND_DEL, KIND_INS, TransactionConflict, delta_of


def serialize(tx, ty):
    """Return T'x: ``tx`` re-based onto the table image produced by ``ty``.

    Raises :class:`TransactionConflict` on write-write conflicts. ``tx``
    and ``ty`` must be aligned (same base snapshot); neither is mutated.
    """
    schema = tx.schema
    run: list[tuple] = []  # T'x's (sid, kind, payload) run, in order

    x_groups = _groups(tx)
    y_groups = _groups(ty)
    xi = yi = 0
    delta = 0  # net RID shift contributed by consumed y-entries
    while xi < len(x_groups):
        x_sid, x_chain = x_groups[xi]
        # Consume whole y-groups strictly before this x-group.
        while yi < len(y_groups) and y_groups[yi][0] < x_sid:
            delta += sum(delta_of(e.kind) for e in y_groups[yi][1])
            yi += 1
        if yi < len(y_groups) and y_groups[yi][0] == x_sid:
            y_chain = y_groups[yi][1]
            yi += 1
        else:
            y_chain = []
        delta += _emit_group(run, schema, tx, ty, x_sid, x_chain, y_chain,
                             delta)
        xi += 1
    out = tx.__class__(schema)
    out.bulk_append_entries(run)
    return out


def _groups(pdt):
    """Entries grouped by SID, each with resolved payloads, in order."""
    grouped = []
    for sid, chain in groupby(pdt.iter_entries(), key=lambda e: e.sid):
        grouped.append((sid, list(chain)))
    return grouped


def _split(chain):
    ins = [e for e in chain if e.kind == KIND_INS]
    dels = [e for e in chain if e.kind == KIND_DEL]
    mods = [e for e in chain if e.kind >= 0]
    return ins, dels, mods


def _emit_group(run, schema, tx, ty, sid, x_chain, y_chain, delta):
    """Append x's updates at ``sid`` to ``run``, re-based by ``delta`` plus
    same-SID y-effects; returns the delta contribution of the consumed
    y-chain."""
    x_ins, x_dels, x_mods = _split(x_chain)
    y_ins, y_dels, y_mods = _split(y_chain)

    # --- conflict detection on the shared stable tuple -------------------
    if y_dels and (x_dels or x_mods):
        raise TransactionConflict(
            f"tuple at stable position {sid} deleted by a concurrent "
            f"transaction"
        )
    if y_mods and x_dels:
        raise TransactionConflict(
            f"DEL-MOD conflict on stable position {sid}"
        )
    if y_mods and x_mods:
        y_cols = {e.kind for e in y_mods}
        overlap = sorted(y_cols & {e.kind for e in x_mods})
        if overlap:
            names = ", ".join(schema.columns[c].name for c in overlap)
            raise TransactionConflict(
                f"MOD-MOD conflict on stable position {sid}, column(s) "
                f"{names}"
            )

    # --- emit x inserts, interleaved with y inserts by sort key ----------
    y_ins_sks = [schema.sk_of(ty.values.get_insert(e.ref)) for e in y_ins]
    for entry in x_ins:
        row = tx.values.get_insert(entry.ref)
        sk = schema.sk_of(row)
        before = 0
        for y_sk in y_ins_sks:
            if y_sk == sk:
                raise TransactionConflict(
                    f"concurrent insert of identical key {sk!r}"
                )
            if y_sk < sk:
                before += 1
        run.append((sid + delta + before, KIND_INS, row))

    # --- emit x delete / modifies of the stable tuple at this SID --------
    # y inserts at this SID precede the stable tuple, shifting it by one
    # position each; a y delete of it was already ruled a conflict above.
    shift = delta + len(y_ins)
    for entry in x_mods:
        run.append((sid + shift, entry.kind,
                    tx.values.get_modify(entry.kind, entry.ref)))
    for entry in x_dels:
        run.append((sid + shift, KIND_DEL, tx.values.get_delete(entry.ref)))

    return sum(delta_of(e.kind) for e in y_chain)
